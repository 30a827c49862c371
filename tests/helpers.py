"""Shared factories and frozen oracle values for the test suite.

Every constant in ``FROZEN`` was computed by an independent oracle (closed-form
geometric series, high-resolution Riemann sums, bisection localization of
extrema, direct evaluation of the published expressions) before being asserted
against the library; the tests check that the library reproduces them, not the
other way around.
"""
from __future__ import annotations

import math

import numpy as np

from qmemory import ModelParams, XState, superoperator
from qmemory.nonmarkov import _GAIN_FLOOR

# --- frozen oracle values ----------------------------------------------------

# Canonical parameter point used throughout: gamma=0.2, m=0.5, omega=0.8.
CANONICAL = ModelParams(gamma=0.2, m=0.5, omega=0.8)
N_CANONICAL = 0.2791824499586081          # interval-sum memory measure
N_CANONICAL_INTERVALS = 19
FIRST_GAIN = 0.2211461205366689           # first increase interval's gain
FIRST_GAIN_END = 3.620767488078661        # ... and the time it ends
N_OMEGA_01 = 5.845752310230492e-05        # omega = 0.1 (below 1e-3 threshold)
N_OMEGA_05 = 0.10302155415122126          # omega = 0.5
T_STAR = 1.9634954084936207               # pi / (2 omega): first distance zero
P_STAR = 0.13601546805850095              # both populations at t*, = (1 - e^{-pi/4})/4
E_PUBLISHED_T_STAR = 0.7829478427763598   # -2 p* log2 p*
E_SUBSYSTEM_T_STAR = 0.57370779479475     # binary entropy of p*
P_PLUS_T1 = 0.40779349894230055           # excited-start population at t = 1
P_MINUS_T1 = 0.08241998849109017          # ground-start population at t = 1
D_T1 = 0.3253735104512103                 # distance at t = 1
STEADY_PUBLISHED_M05 = 1.0                # -2 q log2 q at q = 1/4
STEADY_SUBSYSTEM_M05 = 0.8112781244591328  # binary entropy of 1/4
STEADY_SUBSYSTEM_M2 = 0.9709505944546686   # binary entropy of 0.4

# Maximization over product pairs at the canonical point: the winner is
# |10> vs |01>, whose distance curve is e^{-rate t} |cos 2 omega t|; the value
# is the truncated analytic series of its increase-interval gains.
N_MAXIMIZED_CANONICAL = 0.8643534521850287
MAXIMIZED_LABEL = "theta(0.0000,3.1416)/theta(3.1416,0.0000)"
MAXIMIZED_FIRST_START = math.pi / 3.2                     # pi / (4 omega)
MAXIMIZED_FIRST_END = (math.pi - math.atan(0.25)) / 1.6   # first peak after it
MAXIMIZED_FIRST_GAIN = 0.47026175746776266

# Published-solution probes (initial |10>, canonical parameters).
PUBLISHED_B0 = 1.5                        # printed formula at t = 0 (true: 1)
PUBLISHED_C0 = -0.5                       # printed formula at t = 0 (true: 0)
# Printed d(0) for b0=1, d0=0 is (2m+2)/(2m+1)^2 instead of 0:
PUBLISHED_D0 = {0.0: 2.0, 0.5: 0.75, 2.0: 0.24}
# At t = pi/omega the derived u = b - c completes one full 2*omega oscillation
# (value e^{-rate pi / omega}) while the printed formula, oscillating at
# omega, lands exactly on zero:
EXACT_U_AT_PI_OVER_OMEGA = 0.20787957635076193
PUBLISHED_U_AT_PI_OVER_OMEGA = 0.0


# --- independent oracles -----------------------------------------------------

def blp_geometric_series(params: ModelParams) -> float:
    """Untruncated memory measure of the canonical pair, summed in closed form.

    Interval k rises from a zero of D to the peak at
    ``s_k = s_0 + k pi / omega``, gaining ``4 omega^2 / (4 omega^2 + R^2)
    e^{-R s_k}``; the gains form a geometric series of ratio ``e^{-R pi / omega}``.
    """
    rate, omega = params.relaxation_rate, params.omega
    s_0 = (math.pi - math.atan(rate / (2.0 * omega))) / omega
    weight = 4.0 * omega**2 / (4.0 * omega**2 + rate**2)
    return weight * math.exp(-rate * s_0) / -math.expm1(-rate * math.pi / omega)


def swap_geometric_series(params: ModelParams) -> float:
    """Untruncated memory measure of the ``|10>/|01>`` pair, in closed form.

    Its distance ``e^{-R t} |cos 2 omega t|`` rises from each zero to the peak
    at ``s_k = s_0 + k pi / (2 omega)``, gaining ``2 omega / sqrt(4 omega^2 +
    R^2) e^{-R s_k}``; the gains form a geometric series of ratio
    ``e^{-R pi / (2 omega)}``.
    """
    rate, omega = params.relaxation_rate, params.omega
    s_0 = (math.pi - math.atan(rate / (2.0 * omega))) / (2.0 * omega)
    weight = 2.0 * omega / math.sqrt(4.0 * omega**2 + rate**2)
    return weight * math.exp(-rate * s_0) / -math.expm1(-rate * math.pi / (2.0 * omega))


def rk4_sequential(liouv: np.ndarray, y: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """``n_steps`` classic RK4 steps of ``dy/dt = L y``, one stage at a time.

    The plain four-stage loop, kept as the reference for the integrator's
    folded step-matrix power.
    """
    for _ in range(n_steps):
        k1 = liouv @ y
        k2 = liouv @ (y + 0.5 * h * k1)
        k3 = liouv @ (y + 0.5 * h * k2)
        k4 = liouv @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def integrate_per_sample(rho0: np.ndarray, params: ModelParams, times, max_step=None):
    """``integrate_master`` checked one sample at a time, as each span ends.

    The per-sample loop, kept as the reference for the integrator's single
    pass over the stack of samples: each span is advanced by the library's
    ``_rk4_steps``, then the sample is Hermitized, drift-checked,
    renormalized and validated before the next span is advanced.  Returns
    the samples; raises what the first failing span or sample raises.
    """
    from qmemory.densmat import TRACE_TOL, validate_density_matrix
    from qmemory.dynamics import SAMPLE_POSITIVITY_TOL, STEP_RESOLUTION, _rk4_steps
    from qmemory.errors import InvariantViolation

    times = np.asarray(times, dtype=float)
    h = STEP_RESOLUTION / max(params.relaxation_rate, params.omega)
    h = h if max_step is None else max_step
    liouv = superoperator(params)
    square = liouv @ liouv
    terms = np.stack(
        [liouv, square / 2.0, square @ liouv / 6.0, square @ square / 24.0]
    ).reshape(4, 256)
    y = rho0.reshape(16).astype(complex)
    samples = [rho0.copy()]
    for left, right in zip(times[:-1], times[1:]):
        span = float(right - left)
        n = max(1, math.ceil(span / h))
        try:
            with np.errstate(over="raise", invalid="raise"):
                y = _rk4_steps(terms, y, span / n, n)
        except FloatingPointError:
            raise InvariantViolation(
                f"RK4 steps of {span / n!r} overflow by t={right:g}: max_step={max_step!r} "
                f"is beyond RK4's stability limit for these rates"
            ) from None
        raw = y.reshape(4, 4)
        rho = 0.5 * (raw + raw.conj().T)
        tr = float(np.trace(rho).real)
        drift = abs(tr - 1.0)
        if not drift <= TRACE_TOL:
            raise InvariantViolation(
                f"integrator trace drift {drift:.3e} at t={right:g} exceeds "
                f"{TRACE_TOL:.0e} before renormalization"
            )
        if drift > 1e-12:
            rho = rho / tr
        validate_density_matrix(
            rho, dim=4, positivity_tol=SAMPLE_POSITIVITY_TOL, name=f"sample(t={right:g})"
        )
        samples.append(rho)
    return samples


def generator_modes(params: ModelParams):
    """Eigenvalues, eigenvectors and inverse eigenvector matrix of the 16x16
    generator: the numerical oracle for the library's sector closed forms."""
    lam, vec = np.linalg.eig(superoperator(params))
    return lam, vec, np.linalg.inv(vec)


def partial_trace_map() -> np.ndarray:
    """4x16 matrix taking vec(rho4) row-major to vec(reduced rho2) of atom 1."""
    pmap = np.zeros((4, 16))
    for i in range(2):
        for j in range(2):
            for s in range(2):
                pmap[2 * i + j, 4 * (2 * i + s) + (2 * j + s)] = 1.0
    return pmap


def reduced_distance(red: np.ndarray) -> np.ndarray:
    """Trace distances from vectorized 2x2 reduced differences (4 x T), in full.

    Keeps the mean term ``(red[0] + red[3]) / 2`` that vanishes for pair
    differences.
    """
    mean = 0.5 * (red[0] + red[3]).real
    half_gap = 0.5 * (red[0] - red[3]).real
    radius = np.sqrt(half_gap**2 + np.abs(red[1]) ** 2)
    return 0.5 * (np.abs(mean + radius) + np.abs(mean - radius))


def discrete_intervals(dvals: np.ndarray) -> list:
    """Index ranges (i, j) of the maximal strictly increasing runs of a curve."""
    rising = np.diff(dvals) > 0.0
    runs = []
    i = 0
    while i < rising.size:
        if rising[i]:
            j = i
            while j < rising.size and rising[j]:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


def per_pair_estimates(params: ModelParams, deltas: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Sampled memory-measure estimate of each pair, one pair at a time.

    The reference for the maximizer's batched pass: each column of ``deltas``
    (a vectorized 4x4 pair difference) is evolved in full through the
    generator's modes, reduced to atom 1 by the partial trace, and its sampled
    rises above the noise floor are summed.
    """
    lam, vec, vec_inv = generator_modes(params)
    ptrace = partial_trace_map()
    mode_factors = np.exp(np.outer(lam, grid))
    estimates = []
    for delta in deltas.T:
        coeff = vec_inv @ delta
        dvals = reduced_distance(ptrace @ (vec @ (mode_factors * coeff[:, None])))
        gains = [float(dvals[j] - dvals[i]) for i, j in discrete_intervals(dvals)]
        estimates.append(math.fsum(g for g in gains if g > _GAIN_FLOOR))
    return np.array(estimates)


# --- deterministic random factories ------------------------------------------

def random_params(rng: np.random.Generator) -> ModelParams:
    """A random parameter set across the physically interesting ranges."""
    return ModelParams(
        gamma=float(rng.uniform(0.05, 1.0)),
        m=float(rng.uniform(0.0, 3.0)),
        omega=float(rng.uniform(0.0, 1.5)),
    )


def random_valid_xstate(rng: np.random.Generator, coherence_scale: float = 0.5) -> XState:
    """A random X state strictly inside the positivity region."""
    raw = rng.uniform(0.05, 1.0, 4)
    a, b, c, d = (raw / raw.sum()).tolist()
    z = complex(*rng.uniform(-1.0, 1.0, 2)) * coherence_scale * math.sqrt(b * c)
    w = complex(*rng.uniform(-1.0, 1.0, 2)) * coherence_scale * math.sqrt(a * d)
    return XState(a=a, b=b, c=c, d=d, z=z, w=w).validate()


def random_qubit_density(rng: np.random.Generator) -> np.ndarray:
    """A random single-qubit density matrix (mixed, full rank a.s.)."""
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random full-rank density matrix of the given dimension."""
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """A random Hermitian matrix with continuous spectrum (distinct a.s.)."""
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (mat + mat.conj().T)
