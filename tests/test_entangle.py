"""Entanglement-entropy variants, revival values, and steady plateaus."""
import math

import numpy as np
import pytest

from qmemory import (
    EntanglementVariant,
    ModelParams,
    ParamFamily,
    XSTATE_10,
    binary_entropy,
    embed_xstate,
    entanglement_entropy,
    integrate_master,
    partial_trace_qubit2,
    population_from_excited,
    population_from_ground,
    steady_entanglement,
    von_neumann_entropy,
)
from qmemory.dynamics import MIN_GAMMA
from qmemory.errors import InvariantViolation

from helpers import (
    CANONICAL,
    E_PUBLISHED_T_STAR,
    E_SUBSYSTEM_T_STAR,
    P_STAR,
    STEADY_PUBLISHED_M05,
    STEADY_SUBSYSTEM_M05,
    STEADY_SUBSYSTEM_M2,
    T_STAR,
    random_params,
)

PUBLISHED = EntanglementVariant.PUBLISHED
SUBSYSTEM = EntanglementVariant.SUBSYSTEM


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.5) - 1.0) < 1e-15
        assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-15

    def test_symmetry(self):
        for p in (0.1, 0.3, 0.45):
            assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) < 1e-15

    def test_array_support(self):
        p = np.array([0.0, 0.25, 0.5, 1.0])
        out = binary_entropy(p)
        assert out.shape == (4,)
        assert np.allclose(out, [0.0, 0.8112781244591328, 1.0, 0.0], atol=1e-15)

    def test_domain_validation(self):
        for bad in (-0.01, 1.01, 2.0):
            with pytest.raises(InvariantViolation):
                binary_entropy(bad)
        # round-off just outside [0, 1] is clamped, not rejected
        assert binary_entropy(1.0 + 1e-16) == 0.0
        assert binary_entropy(-1e-16) == 0.0

    def test_nan_rejected(self):
        for bad in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(InvariantViolation, match="probability outside \\[0, 1\\]"):
                binary_entropy(bad)


class TestEntanglementEntropy:
    def test_zero_at_start(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            params = random_params(rng)
            e_pub = entanglement_entropy(params, 0.0, PUBLISHED)
            e_sub = entanglement_entropy(params, 0.0, SUBSYSTEM)
            # binary entropy near p = 1 amplifies round-off eps to eps*log2(1/eps)
            assert 0.0 <= e_pub < 1e-13
            assert 0.0 <= e_sub < 1e-13

    def test_zero_entropy_is_positive_zero(self):
        # at t = 0 (and for p- at m = 0) the 0 log 0 branch gives +0.0, so
        # no CSV row prints -0.00000000e+00
        for params in (CANONICAL, ModelParams(0.2, 0.0, 0.8)):
            for variant in (PUBLISHED, SUBSYSTEM):
                for value in (entanglement_entropy(params, 0.0, variant),
                              *entanglement_entropy(params, np.zeros(3), variant)):
                    assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert math.copysign(1.0, binary_entropy(0.0)) == math.copysign(1.0, binary_entropy(1.0)) == 1.0

    def test_frozen_values_at_revival(self):
        assert abs(
            entanglement_entropy(CANONICAL, T_STAR, PUBLISHED) - E_PUBLISHED_T_STAR
        ) < 1e-12
        assert abs(
            entanglement_entropy(CANONICAL, T_STAR, SUBSYSTEM) - E_SUBSYSTEM_T_STAR
        ) < 1e-12

    def test_populations_cross_at_revival(self):
        p_plus = population_from_excited(CANONICAL, T_STAR)
        p_minus = population_from_ground(CANONICAL, T_STAR)
        assert abs(p_plus - p_minus) < 1e-12
        assert abs(p_plus - P_STAR) < 1e-12
        assert abs(p_plus - (1.0 - math.exp(-math.pi / 4.0)) / 4.0) < 1e-12
        # with both populations equal, the published form is -2 p log2 p
        expected = -2.0 * P_STAR * math.log2(P_STAR)
        assert abs(entanglement_entropy(CANONICAL, T_STAR, PUBLISHED) - expected) < 1e-12

    def test_value_ranges(self):
        t = np.linspace(0.0, 40.0, 400)
        for params in (CANONICAL, ModelParams(0.5, 2.0, 0.3), ModelParams(0.1, 0.0, 1.0)):
            pub = entanglement_entropy(params, t, PUBLISHED)
            sub = entanglement_entropy(params, t, SUBSYSTEM)
            assert np.all(pub >= 0.0) and np.all(pub <= 2.0)
            assert np.all(sub >= 0.0) and np.all(sub <= 1.0)

    def test_subsystem_variant_is_reduced_state_entropy(self):
        # binary entropy of the excited population = von Neumann entropy of
        # the diagonal reduced state
        for t in (0.0, 0.8, T_STAR, 5.0):
            p = float(population_from_excited(CANONICAL, t))
            rho = np.diag([p, 1.0 - p]).astype(complex)
            e = entanglement_entropy(CANONICAL, t, SUBSYSTEM)
            assert abs(e - binary_entropy(p)) < 1e-14
            assert abs(e - von_neumann_entropy(rho)) < 1e-13

    def test_subsystem_variant_matches_integrator(self):
        t_grid = np.linspace(0.0, 8.0, 9)
        traj = integrate_master(embed_xstate(XSTATE_10), CANONICAL, t_grid)
        for t, rho in zip(traj.times, traj.samples):
            reduced = partial_trace_qubit2(rho)
            assert abs(
                von_neumann_entropy(reduced)
                - entanglement_entropy(CANONICAL, float(t), SUBSYSTEM)
            ) < 1e-8

    def test_array_support(self):
        t = np.linspace(0.0, 10.0, 23)
        for variant in (PUBLISHED, SUBSYSTEM):
            out = entanglement_entropy(CANONICAL, t, variant)
            assert out.shape == (23,)
            for i, ti in enumerate(t):
                assert abs(out[i] - entanglement_entropy(CANONICAL, float(ti), variant)) < 1e-15

    def test_rejects_negative_time(self):
        with pytest.raises(InvariantViolation):
            entanglement_entropy(CANONICAL, -0.1)
        with pytest.raises(InvariantViolation):
            entanglement_entropy(CANONICAL, np.array([0.0, -1.0]))


class TestFamilyEntropy:
    """A :class:`ParamFamily` of decay rates gives each member's own curve
    bit for bit, whole or in the member slices ``entanglement --gammas``
    writes one block at a time."""

    # out to Gamma t = 1e99 * 1e300, beyond the float range
    TIMES = np.concatenate([np.linspace(0.0, 20.0, 401), [1e10, 1e300]])
    GAMMAS = np.concatenate([[MIN_GAMMA, 1.5 * MIN_GAMMA, 1e-100],
                             np.geomspace(1e-3, 10.0, 30), [1e50, 1e99]])

    @pytest.mark.parametrize("variant", [PUBLISHED, SUBSYSTEM])
    @pytest.mark.parametrize("m, omega", [(0.5, 1.5), (0.0, 0.0), (2.0, 40.0)])
    def test_every_member_matches_its_own_call(self, variant, m, omega):
        t = self.TIMES
        family = ParamFamily(self.GAMMAS[:, None], m, omega)
        curves = entanglement_entropy(family, t, variant)
        assert curves.shape == (self.GAMMAS.size, t.size)
        per_block = 4096 // t.size  # the members of one --gammas block
        assert self.GAMMAS.size > 3 * per_block
        for first in range(0, self.GAMMAS.size, per_block):
            block = slice(first, first + per_block)
            members = ParamFamily(family.gamma[block], family.m, family.omega)
            assert entanglement_entropy(members, t, variant).tobytes() == curves[block].tobytes()
        for i, gamma in enumerate(self.GAMMAS.tolist()):
            own = entanglement_entropy(ModelParams(gamma, m, omega), t, variant)
            assert own.tobytes() == curves[i].tobytes(), gamma


class TestRevival:
    def test_instant_is_quarter_period(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            params = random_params(rng)
            if params.omega == 0.0:
                continue
            # atom 1's states from |10> and |00> coincide at pi / (2 omega)
            t_rev = math.pi / (2.0 * params.omega)
            assert population_from_excited(params, t_rev) == pytest.approx(
                population_from_ground(params, t_rev), abs=1e-15)

    def test_value_at_revival(self):
        assert math.pi / (2.0 * CANONICAL.omega) == T_STAR
        assert abs(entanglement_entropy(CANONICAL, T_STAR, PUBLISHED) - E_PUBLISHED_T_STAR) < 1e-12
        assert abs(entanglement_entropy(CANONICAL, T_STAR, SUBSYSTEM) - E_SUBSYSTEM_T_STAR) < 1e-12

    def test_fast_damping_saturates_published_form(self):
        # strong decay reaches the thermal populations q = 1/4 before the
        # revival, where -2 q log2 q = 1 exactly
        params = ModelParams(gamma=10.0, m=0.5, omega=0.8)
        t_rev = math.pi / (2.0 * params.omega)
        assert abs(entanglement_entropy(params, t_rev, PUBLISHED) - 1.0) < 1e-4


class TestSteadyEntanglement:
    def test_frozen_values(self):
        assert steady_entanglement(0.5, PUBLISHED) == pytest.approx(
            STEADY_PUBLISHED_M05, abs=1e-15
        )
        assert steady_entanglement(0.5, SUBSYSTEM) == pytest.approx(
            STEADY_SUBSYSTEM_M05, abs=1e-15
        )
        assert steady_entanglement(2.0, SUBSYSTEM) == pytest.approx(
            STEADY_SUBSYSTEM_M2, abs=1e-15
        )

    def test_bit_identical_to_direct_formulas(self):
        # -2 q log2 q in math and the binary entropy of q in numpy, as each
        # variant evaluated its plateau before the two shared one -p log2 p
        for m in (0.0, 1e-300, 1e-9, 0.1, 0.5, 2.0, 1e6, 1e100):
            q = m / (1.0 + 2.0 * m)
            published = 0.0 if q == 0.0 else -2.0 * q * math.log2(q)
            p = np.float64(q)
            subsystem = (-p * np.log2(p) if q > 0.0 else 0.0) - (1.0 - p) * np.log2(1.0 - p)
            assert steady_entanglement(m, PUBLISHED).hex() == published.hex()
            assert steady_entanglement(m, SUBSYSTEM).hex() == float(subsystem).hex()

    def test_empty_bath_gives_zero(self):
        assert steady_entanglement(0.0, PUBLISHED) == 0.0
        assert steady_entanglement(0.0, SUBSYSTEM) == 0.0

    def test_matches_long_time_dynamics_independent_of_gamma(self):
        for variant in (PUBLISHED, SUBSYSTEM):
            plateau = steady_entanglement(0.5, variant)
            for gamma in (0.1, 0.5, 2.0):
                params = ModelParams(gamma, 0.5, 0.8)
                late = 30.0 / params.relaxation_rate
                assert abs(entanglement_entropy(params, late, variant) - plateau) < 1e-4

    def test_monotone_in_occupation(self):
        for variant in (PUBLISHED, SUBSYSTEM):
            values = [steady_entanglement(m, variant) for m in (0.1, 0.5, 1.0, 2.0)]
            assert all(lo < hi for lo, hi in zip(values, values[1:]))

    def test_validation(self):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(InvariantViolation):
                steady_entanglement(bad)

    def test_occupation_limit(self):
        # both populations relax to q -> 1/2: a plateau of one bit
        for variant in (PUBLISHED, SUBSYSTEM):
            assert steady_entanglement(1e100, variant) == pytest.approx(1.0, abs=1e-15)
            with pytest.raises(InvariantViolation, match="m = 1e\\+101 is above the limit of 1e\\+100"):
                steady_entanglement(1e101, variant)


class TestVariantTokens:
    def test_cli_token_values(self):
        assert PUBLISHED.value == "eq13"
        assert SUBSYSTEM.value == "entropy"
        assert EntanglementVariant("eq13") is PUBLISHED
        assert EntanglementVariant("entropy") is SUBSYSTEM
