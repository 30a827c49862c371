"""Density-matrix core: eigenvalues, validation, partial trace, distance, entropy."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmemory import (
    XState,
    embed_xstate,
    extract_xstate,
    hermitian_eigenvalues,
    hermiticity_defect,
    partial_trace_qubit2,
    trace_distance,
    validate_density_matrix,
    von_neumann_entropy,
)
from qmemory.errors import (
    DimensionMismatchError,
    InvariantViolation,
    NegativeEigenvalueError,
    NonHermitianError,
    NotXFormError,
)

from helpers import (
    random_density,
    random_hermitian,
    random_qubit_density,
    random_valid_xstate,
    von_neumann_entropy_loop,
)


# --- independent eigenvalue oracle: characteristic polynomial + bisection ----

def _charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - A) by the Faddeev-LeVerrier recurrence."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    aux = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        aux = a @ aux + c * np.eye(n)
        c = -np.trace(a @ aux).real / k
        coeffs[k] = c
    return coeffs


def _poly(coeffs: np.ndarray, x: float) -> float:
    value = 0.0
    for c in coeffs:
        value = value * x + c
    return value


def charpoly_eigenvalue_oracle(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix with distinct spectrum, descending.

    Finds sign changes of the characteristic polynomial on a fine grid over
    the Gershgorin interval and bisects each to ~1e-12.  Raises if it cannot
    isolate a full set of simple roots (the caller must use matrices with
    distinct eigenvalues).
    """
    n = a.shape[0]
    coeffs = _charpoly_coefficients(a)
    radius = float(np.max(np.sum(np.abs(a), axis=1)))
    xs = np.linspace(-radius - 1.0, radius + 1.0, 40001)
    ys = np.polyval(coeffs, xs)  # Horner, the same recurrence as _poly
    roots = []
    signs = np.sign(ys)
    for i in np.flatnonzero((ys[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0)):
        if ys[i] == 0.0:
            roots.append(float(xs[i]))
            continue
        lo, hi = float(xs[i]), float(xs[i + 1])
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if _poly(coeffs, lo) * _poly(coeffs, mid) <= 0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    if len(roots) != n:
        raise AssertionError(f"oracle isolated {len(roots)} of {n} roots")
    return np.sort(np.array(roots))[::-1]


class TestHermitianEigenvalues:
    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            h = random_hermitian(rng, 4)
            got = hermitian_eigenvalues(h)
            expected = charpoly_eigenvalue_oracle(h)
            assert np.max(np.abs(got - expected)) < 1e-9

    def test_matches_lapack(self):
        rng = np.random.default_rng(12)
        for dim in (2, 4):
            for _ in range(100):
                h = random_hermitian(rng, dim)
                got = hermitian_eigenvalues(h)
                expected = np.sort(np.linalg.eigvalsh(h))[::-1]
                assert np.max(np.abs(got - expected)) < 1e-11

    def test_known_spectra(self):
        diag = np.diag([4.0, 1.0, 3.0, 2.0]).astype(complex)
        assert np.allclose(hermitian_eigenvalues(diag), [4, 3, 2, 1], atol=1e-14)

        mixed = np.eye(4, dtype=complex) / 4.0
        assert np.allclose(hermitian_eigenvalues(mixed), 0.25, atol=1e-14)

        pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert np.allclose(hermitian_eigenvalues(pauli_x), [1.0, -1.0], atol=1e-14)

        # rank-1 projector with degenerate kernel
        bell = XState(a=0.5, b=0.0, c=0.0, d=0.5, w=0.5 + 0.0j)
        vals = hermitian_eigenvalues(embed_xstate(bell))
        assert np.allclose(vals, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_descending_order_and_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            vals = hermitian_eigenvalues(h)
            assert np.all(np.diff(vals) <= 1e-13)
            assert abs(np.sum(vals) - np.trace(h).real) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        # inf - inf in the symmetry defect would warn before any check fails
        for value in (math.inf, math.nan):
            with pytest.raises(InvariantViolation, match="non-finite"):
                hermitian_eigenvalues(np.full((2, 2), value))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_eigenvalues(np.zeros((2, 3)))


class TestXState:
    def test_embed_extract_roundtrip(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = random_valid_xstate(rng)
            back = extract_xstate(embed_xstate(x))
            assert abs(back.a - x.a) < 1e-15
            assert abs(back.b - x.b) < 1e-15
            assert abs(back.c - x.c) < 1e-15
            assert abs(back.d - x.d) < 1e-15
            assert abs(back.z - x.z) < 1e-15
            assert abs(back.w - x.w) < 1e-15

    def test_embedded_state_is_valid_density_matrix(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            rho = embed_xstate(random_valid_xstate(rng))
            validate_density_matrix(rho, dim=4)

    def test_extract_rejects_off_pattern_entries(self):
        rho = embed_xstate(XState(0.25, 0.25, 0.25, 0.25))
        rho[0, 1] = 0.1
        rho[1, 0] = 0.1
        with pytest.raises(NotXFormError):
            extract_xstate(rho)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_extract_rejects_non_finite_off_pattern_entries(self, value):
        # a NaN is not above the tolerance, and not within it either
        rho = embed_xstate(XState(0.25, 0.25, 0.25, 0.25))
        for i, j in ((0, 1), (3, 2)):
            bad = rho.copy()
            bad[i, j] = value
            with pytest.raises(NotXFormError, match=rf"entry \({i}, {j}\)"):
                extract_xstate(bad)

    def test_extract_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            extract_xstate(np.eye(3) / 3.0)

    def test_validate_trace(self):
        with pytest.raises(InvariantViolation, match="trace"):
            XState(0.5, 0.5, 0.5, 0.5).validate()

    def test_validate_negative_population(self):
        with pytest.raises(InvariantViolation, match="eigenvalue"):
            XState(-0.2, 0.5, 0.5, 0.2).validate()

    def test_validate_coherence_bounds(self):
        with pytest.raises(InvariantViolation, match="eigenvalue"):
            XState(0.25, 0.25, 0.25, 0.25, z=0.3 + 0.0j).validate()
        with pytest.raises(InvariantViolation, match="eigenvalue"):
            XState(0.25, 0.25, 0.25, 0.25, w=0.3j).validate()

    def test_validate_non_finite(self):
        with pytest.raises(InvariantViolation):
            XState(math.nan, 0.5, 0.25, 0.25).validate()

    def test_validate_returns_self(self):
        x = XState(0.25, 0.25, 0.25, 0.25)
        assert x.validate() is x

    def test_coherence_slack_is_on_the_eigenvalue(self):
        # |z|^2 - b*c = 8.1e-11 is within 1e-10, but the inner block's
        # eigenvalue is -9e-6
        x = XState(0.5, 0.0, 0.0, 0.5, z=9e-6)
        with pytest.raises(InvariantViolation, match="eigenvalue -9.000e-06"):
            x.validate()
        with pytest.raises(InvariantViolation, match="eigenvalue -9.000e-06"):
            embed_xstate(x)

    def test_population_slack_is_on_the_eigenvalue(self):
        x = XState(-5e-11, 0.5, 0.5, 5e-11)
        assert x.validate() is x
        validate_density_matrix(embed_xstate(x), dim=4)

    def test_validate_agrees_with_the_matrix_rule_at_the_boundary(self):
        """Coherences at |z|^2 = bc(1 +- delta), |w|^2 = ad(1 +- delta) and
        populations near 0: an X state is valid exactly when its matrix is."""
        rng = np.random.default_rng(23)
        outcomes = set()
        for _ in range(2000):
            pops = rng.uniform(0.0, 1.0, 4)
            near_zero = rng.random(4) < 0.3
            near_zero[rng.integers(4)] = False
            pops[near_zero] = rng.choice([-1.0, 1.0], near_zero.sum()) * 10.0 ** rng.uniform(
                -13.0, -8.0, near_zero.sum())
            pops[~near_zero] *= (1.0 - pops[near_zero].sum()) / pops[~near_zero].sum()
            a, b, c, d = pops.tolist()
            coherences = []
            for product in (b * c, a * d):
                delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -1.0)
                phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                coherences.append(complex(math.sqrt(abs(product) * (1.0 + delta)) * phase))
            x = XState(a, b, c, d, z=coherences[0], w=coherences[1])
            rho = np.diag(np.array([a, b, c, d], dtype=complex))
            rho[1, 2], rho[2, 1] = x.z, np.conj(x.z)
            rho[0, 3], rho[3, 0] = x.w, np.conj(x.w)
            try:
                validate_density_matrix(rho, dim=4)
                valid = True
            except InvariantViolation:
                valid = False
            try:
                x.validate()
                embedded = embed_xstate(x)
            except InvariantViolation:
                assert not valid, x
            else:
                assert valid, x
                validate_density_matrix(embedded, dim=4)
            outcomes.add(valid)
        assert outcomes == {True, False}


class TestValidateDensityMatrix:
    def test_accepts_random_states(self):
        rng = np.random.default_rng(31)
        for dim in (2, 4):
            for _ in range(20):
                rho = random_density(rng, dim)
                assert validate_density_matrix(rho, dim=dim) is not None

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantViolation, match="trace"):
            validate_density_matrix(np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 0.1j
        with pytest.raises(InvariantViolation, match="Hermitian"):
            validate_density_matrix(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(InvariantViolation, match="eigenvalue"):
            validate_density_matrix(rho)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            validate_density_matrix(np.eye(2, dtype=complex) / 2.0, dim=4)
        with pytest.raises(DimensionMismatchError):
            validate_density_matrix(np.zeros((4, 3)))

    def test_positivity_slack_is_configurable(self):
        rho = np.diag([1.0 + 5e-10, -5e-10, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation):
            validate_density_matrix(rho)  # default slack 1e-10
        validate_density_matrix(rho, positivity_tol=1e-9)

    def test_rejects_nan_4x4(self):
        # NaN passes every comparison-based check and then stalls the eigensolver
        with pytest.raises(InvariantViolation, match="non-finite"):
            validate_density_matrix(np.full((4, 4), math.nan), dim=4)

    def test_rejects_non_finite_2x2(self):
        # every NaN comparison is False, so no comparison-based check fails
        for value in (math.nan, math.inf):
            with pytest.raises(InvariantViolation, match="non-finite"):
                validate_density_matrix(np.full((2, 2), value))


def _raised(call):
    """Type and message of what ``call`` raises, or None."""
    try:
        call()
    except Exception as exc:  # compared by the caller
        return type(exc), str(exc)
    return None


DEFECTS = ("non-finite", "non-Hermitian", "trace", "negative")


def _inject(rho: np.ndarray, defect: str, rng: np.random.Generator) -> None:
    """Break one invariant of the 4x4 ``rho`` in place."""
    if defect == "non-finite":
        i, j = rng.integers(4, size=2)
        rho[i, j] = rng.choice([math.nan, math.inf])
    elif defect == "non-Hermitian":
        rho[0, 1] += 1e-6j
    elif defect == "trace":
        rho[0, 0] += 1e-6
    else:
        rho[:] = np.diag([0.6, 0.5, 0.0, -0.1])


class TestValidateStack:
    def test_valid_stacks_pass(self):
        rng = np.random.default_rng(33)
        for n in (0, 1, 2, 17):
            stack = np.array([random_density(rng, 4) for _ in range(n)]).reshape(n, 4, 4)
            assert validate_density_matrix(stack, dim=4) is not None
            assert validate_density_matrix(stack, name=[f"m{k}" for k in range(n)]) is not None

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_first_bad_matrix_raises_its_own_error(self, defect):
        # one or more defects at seeded random indices: the stack raises what
        # the first bad matrix raises on its own, under its own name
        rng = np.random.default_rng(34)
        for _ in range(40):
            n = int(rng.integers(1, 25))
            stack = np.array([random_density(rng, 4) for _ in range(n)])
            _inject(stack[int(rng.integers(n))], defect, rng)
            for k in rng.integers(n, size=int(rng.integers(3))):
                _inject(stack[k], rng.choice(DEFECTS), rng)
            names = [f"sample {k}" for k in range(n)]
            for name, labels in ((names, names), ("rho", ["rho"] * n)):
                expected = next(filter(None, (
                    _raised(lambda: validate_density_matrix(rho, dim=4, name=label))
                    for rho, label in zip(stack, labels))))
                assert _raised(
                    lambda: validate_density_matrix(stack, dim=4, name=name)) == expected

    def test_stack_shape_errors_name_the_matrix_shape(self):
        assert _raised(lambda: validate_density_matrix(np.zeros((3, 4, 3)), name="s")) == (
            DimensionMismatchError, "s must be square, got shape (4, 3)")
        assert _raised(lambda: validate_density_matrix(np.zeros((3, 2, 2)), dim=4)) == (
            DimensionMismatchError, "rho must be 4x4, got shape (2, 2)")
        with pytest.raises(DimensionMismatchError, match="must be square"):
            validate_density_matrix(np.zeros((2, 2, 2, 2)))

    def test_hermiticity_defect_per_matrix(self):
        rng = np.random.default_rng(35)
        stack = np.array([random_hermitian(rng, 4) + 1e-3 * k * rng.normal(size=(4, 4))
                          for k in range(6)])
        assert hermiticity_defect(stack).tolist() == [hermiticity_defect(m) for m in stack]


class TestPartialTrace:
    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(44)
        stack = np.array([random_density(rng, 4) for _ in range(9)])
        reduced = partial_trace_qubit2(stack)
        assert reduced.shape == (9, 2, 2)
        for rho, red in zip(stack, reduced):
            assert red.tobytes() == partial_trace_qubit2(rho).tobytes()

    def test_product_state_recovers_first_factor(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            rho1 = random_qubit_density(rng)
            rho2 = random_qubit_density(rng)
            reduced = partial_trace_qubit2(np.kron(rho1, rho2))
            assert np.max(np.abs(reduced - rho1)) < 1e-14

    def test_xstate_reduces_to_diagonal(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = random_valid_xstate(rng)
            reduced = partial_trace_qubit2(embed_xstate(x))
            assert abs(reduced[0, 0].real - (x.a + x.b)) < 1e-14
            assert abs(reduced[1, 1].real - (x.c + x.d)) < 1e-14
            assert abs(reduced[0, 1]) < 1e-14

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            rho = random_density(rng, 4)
            reduced = partial_trace_qubit2(rho)
            assert abs(np.trace(reduced).real - 1.0) < 1e-13
            assert hermiticity_defect(reduced) < 1e-14

    def test_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_qubit2(np.eye(2, dtype=complex) / 2.0)


class TestTraceDistance:
    def test_frozen_diagonal_case(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        tau = np.diag([0.25, 0.75]).astype(complex)
        assert abs(trace_distance(rho, tau) - 0.35) < 1e-14

    def test_orthogonal_pure_states_have_distance_one(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        tau = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(rho, tau) - 1.0) < 1e-14

    @given(st.integers(0, 10**6))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 2)
        tau = random_density(rng, 2)
        chi = random_density(rng, 2)
        d_rt = trace_distance(rho, tau)
        assert 0.0 <= d_rt <= 1.0 + 1e-12
        assert abs(d_rt - trace_distance(tau, rho)) < 1e-12
        assert abs(trace_distance(rho, rho)) < 1e-12
        assert d_rt <= trace_distance(rho, chi) + trace_distance(chi, tau) + 1e-12

    def test_rejects_nan_operand(self):
        with pytest.raises(InvariantViolation, match="non-finite"):
            trace_distance(np.full((2, 2), math.nan), np.eye(2) / 2.0)

    def test_validates_inputs(self):
        good = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(InvariantViolation):
            trace_distance(good, np.diag([0.9, 0.9]).astype(complex))
        with pytest.raises(DimensionMismatchError):
            trace_distance(good, np.eye(4, dtype=complex) / 4.0)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(2, dtype=complex) / 2.0) - 1.0) < 1e-14
        assert abs(von_neumann_entropy(np.eye(4, dtype=complex) / 4.0) - 2.0) < 1e-13

    def test_frozen_binary_case(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert abs(von_neumann_entropy(rho) - 0.8112781244591328) < 1e-14

    def test_basis_independence(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            rho = random_density(rng, 2)
            mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            unitary, _ = np.linalg.qr(mat)
            rotated = unitary @ rho @ unitary.conj().T
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10

    def test_clamps_round_off_negatives(self):
        rho = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        assert abs(von_neumann_entropy(rho)) < 1e-9

    def test_rejects_nan(self):
        with pytest.raises(InvariantViolation, match="non-finite"):
            von_neumann_entropy(np.full((2, 2), math.nan))

    def test_rejects_genuinely_negative(self):
        with pytest.raises(NegativeEigenvalueError):
            von_neumann_entropy(np.diag([1.2, -0.2]).astype(complex))

    def test_names_first_eigenvalue_below_slack(self):
        # eigenvalues in descending order: -0.2 is met before -0.3
        rho = np.diag([1.3, 0.2, -0.2, -0.3]).astype(complex)
        message = "eigenvalue -2.000e-01 below 0 beyond slack 1e-10"
        with pytest.raises(NegativeEigenvalueError) as got:
            von_neumann_entropy(rho)
        with pytest.raises(NegativeEigenvalueError) as want:
            von_neumann_entropy_loop(rho)
        assert str(got.value) == str(want.value) == message

    def test_matches_eigenvalue_loop(self):
        # numpy's log2 and math.log2 differ in the last place on a few
        # eigenvalues, so a handful of entropies differ by an ulp or two
        rng = np.random.default_rng(0)
        differ = 0
        for k in range(2000):
            dim = (2, 4)[k % 2]
            rank = int(rng.integers(1, dim + 1))  # rank-deficient states too
            mat = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
            rho = mat @ mat.conj().T
            rho /= np.trace(rho).real
            got, want = von_neumann_entropy(rho), von_neumann_entropy_loop(rho)
            assert abs(got - want) <= 2 * math.ulp(max(abs(got), abs(want))), (k, got, want)
            differ += got != want
        assert differ <= 20

    @given(st.integers(0, 10**6))
    def test_nonnegative_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.choice([2, 4]))
        rho = random_density(rng, dim)
        s = von_neumann_entropy(rho)
        assert -1e-12 <= s <= math.log2(dim) + 1e-12


class TestHermiticityDefect:
    def test_exact_values(self):
        assert hermiticity_defect(np.eye(3)) == 0.0
        mat = np.zeros((2, 2), dtype=complex)
        mat[0, 1] = 0.25
        assert abs(hermiticity_defect(mat) - 0.25) < 1e-15
