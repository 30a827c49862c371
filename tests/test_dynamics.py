"""Generator, integrator, exact propagator, and published-solution probes."""
import math
import time
import warnings

import numpy as np
import pytest

from qmemory import (
    GRID_GAMMAS,
    GRID_OCCUPATIONS,
    GRID_OMEGAS,
    ModelParams,
    Trajectory,
    XSTATE_00,
    XSTATE_10,
    XState,
    embed_xstate,
    extract_xstate,
    hermiticity_defect,
    integrate_master,
    lindblad_rhs,
    parameter_grid,
    population_from_excited,
    population_from_ground,
    propagate_exact,
    propagate_xstate_exact,
    propagate_xstate_published,
    superoperator,
    thermal_xstate,
    validate_density_matrix,
)
from qmemory import dynamics
from qmemory.dynamics import (
    MAX_PARAMETER,
    MAX_SPAN_STEPS,
    MIN_GAMMA,
    STEP_RESOLUTION,
    coherence_root,
)
from qmemory.errors import DimensionMismatchError, InvalidGridError, InvariantViolation

from helpers import (
    CANONICAL,
    EXACT_U_AT_PI_OVER_OMEGA,
    PUBLISHED_B0,
    PUBLISHED_C0,
    PUBLISHED_D0,
    PUBLISHED_U_AT_PI_OVER_OMEGA,
    generator_modes,
    random_density,
    random_params,
    random_qubit_density,
    random_valid_xstate,
    integrate_per_sample,
    rk4_sequential,
)


def _outcome(run):
    """Sample bytes of a successful run, or the type and message it raised."""
    try:
        return [np.asarray(rho).tobytes() for rho in run()]
    except InvariantViolation as exc:
        return type(exc), str(exc)


class TestModelParams:
    def test_validation_errors(self):
        for kwargs in (
            dict(gamma=0.0, m=0.5, omega=0.8),
            dict(gamma=-1.0, m=0.5, omega=0.8),
            dict(gamma=0.2, m=-0.1, omega=0.8),
            dict(gamma=0.2, m=0.5, omega=-0.5),
            dict(gamma=math.nan, m=0.5, omega=0.8),
            dict(gamma=math.inf, m=0.5, omega=0.8),
            dict(gamma="0.2", m=0.5, omega=0.8),
        ):
            with pytest.raises(InvariantViolation):
                ModelParams(**kwargs)

    def test_parameter_limits(self):
        ModelParams(MIN_GAMMA, MAX_PARAMETER / 2.0, MAX_PARAMETER)
        for kwargs in (
            dict(gamma=MIN_GAMMA / 2.0, m=0.0, omega=0.0),
            dict(gamma=2.0 * MAX_PARAMETER, m=0.0, omega=0.0),
            dict(gamma=1.0, m=MAX_PARAMETER, omega=0.0),  # gamma (1 + 2m) above
            dict(gamma=1.0, m=0.0, omega=2.0 * MAX_PARAMETER),
        ):
            with pytest.raises(InvariantViolation, match="limit"):
                ModelParams(**kwargs)

    def test_derived_rates(self):
        p = ModelParams(gamma=0.2, m=0.5, omega=0.8)
        assert abs(p.relaxation_rate - 0.4) < 1e-15
        assert abs(p.thermal_occupation - 0.25) < 1e-15
        p0 = ModelParams(gamma=0.3, m=0.0, omega=0.0)
        assert abs(p0.relaxation_rate - 0.3) < 1e-15
        assert p0.thermal_occupation == 0.0

    def test_parameter_grid(self):
        grid = parameter_grid()
        assert len(grid) == 27
        assert grid[0] == ModelParams(GRID_GAMMAS[0], GRID_OCCUPATIONS[0], GRID_OMEGAS[0])
        assert grid[-1] == ModelParams(GRID_GAMMAS[-1], GRID_OCCUPATIONS[-1], GRID_OMEGAS[-1])
        seen = {(p.gamma, p.m, p.omega) for p in grid}
        assert len(seen) == 27
        assert list(grid) == sorted(grid, key=lambda p: (p.gamma, p.m, p.omega))


class TestGenerator:
    def test_rhs_traceless_and_hermitian(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            params = random_params(rng)
            rho = embed_xstate(random_valid_xstate(rng))
            deriv = lindblad_rhs(rho, params)
            assert abs(np.trace(deriv)) < 1e-14
            assert hermiticity_defect(deriv) < 1e-14

    def test_superoperator_matches_rhs(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            params = random_params(rng)
            rho = embed_xstate(random_valid_xstate(rng))
            via_matrix = (superoperator(params) @ rho.reshape(16)).reshape(4, 4)
            direct = lindblad_rhs(rho, params)
            assert np.max(np.abs(via_matrix - direct)) < 1e-14

    def test_thermal_state_is_stationary(self):
        for params in parameter_grid():
            x = thermal_xstate(params)
            assert np.max(np.abs(lindblad_rhs(embed_xstate(x), params))) < 1e-15

    def test_thermal_state_populations(self):
        params = ModelParams(gamma=0.3, m=0.5, omega=0.4)
        q = params.thermal_occupation
        x = thermal_xstate(params)
        assert abs(x.a - q * q) < 1e-15
        assert abs(x.b - q * (1 - q)) < 1e-15
        assert abs(x.c - q * (1 - q)) < 1e-15
        assert abs(x.d - (1 - q) * (1 - q)) < 1e-15
        assert x.z == 0.0 and x.w == 0.0


class TestExactPropagator:
    def test_identity_at_time_zero(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            params = random_params(rng)
            x0 = random_valid_xstate(rng)
            x = propagate_xstate_exact(x0, params, 0.0)
            assert max(
                abs(x.a - x0.a), abs(x.b - x0.b), abs(x.c - x0.c),
                abs(x.d - x0.d), abs(x.z - x0.z), abs(x.w - x0.w),
            ) < 1e-14

    def test_semigroup_property(self):
        rng = np.random.default_rng(72)
        for _ in range(100):
            params = random_params(rng)
            x0 = random_valid_xstate(rng)
            t1, t2 = rng.uniform(0.0, 4.0, size=2)
            joint = propagate_xstate_exact(x0, params, t1 + t2)
            steps = propagate_xstate_exact(propagate_xstate_exact(x0, params, t1), params, t2)
            assert max(
                abs(joint.a - steps.a), abs(joint.b - steps.b), abs(joint.c - steps.c),
                abs(joint.d - steps.d), abs(joint.z - steps.z), abs(joint.w - steps.w),
            ) < 1e-11

    def test_matches_rhs_derivative(self):
        # centered finite difference of the propagator against the generator
        rng = np.random.default_rng(73)
        h = 1e-6
        for _ in range(25):
            params = random_params(rng)
            x0 = random_valid_xstate(rng)
            plus = propagate_xstate_exact(x0, params, 1.0 + h)
            minus = propagate_xstate_exact(x0, params, 1.0 - h)
            at = propagate_xstate_exact(x0, params, 1.0)
            deriv = extract_xstate(lindblad_rhs(embed_xstate(at), params))
            for got, want in (
                ((plus.a - minus.a) / (2 * h), deriv.a),
                ((plus.b - minus.b) / (2 * h), deriv.b),
                ((plus.c - minus.c) / (2 * h), deriv.c),
                ((plus.d - minus.d) / (2 * h), deriv.d),
                ((plus.z - minus.z) / (2 * h), deriv.z),
                ((plus.w - minus.w) / (2 * h), deriv.w),
            ):
                assert abs(got - want) < 1e-7

    def test_matches_generator_exponential(self):
        # independent route: e^{Lt} from the eigendecomposition of the 16x16
        # superoperator, applied to the row-major vectorized state
        rng = np.random.default_rng(77)
        for params in parameter_grid():
            lam, vec, vec_inv = generator_modes(params)

            def expected(rho0, t):
                return (vec @ (np.exp(lam * t) * (vec_inv @ rho0.reshape(16)))).reshape(4, 4)

            for _ in range(8):
                x0 = random_valid_xstate(rng)
                t = float(rng.uniform(0.0, 40.0 / params.relaxation_rate))
                got = embed_xstate(propagate_xstate_exact(x0, params, t))
                assert np.max(np.abs(got - expected(embed_xstate(x0), t))) < 1e-12
            # any full-rank state, every coherence sector populated
            for _ in range(8):
                rho0 = random_density(rng, 4)
                t = float(rng.uniform(0.0, 40.0 / params.relaxation_rate))
                got = propagate_exact(rho0, params, t)
                assert np.max(np.abs(got - expected(rho0, t))) < 1e-12

    def test_full_state_semigroup_property(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            params = random_params(rng)
            rho0 = random_density(rng, 4)
            t1, t2 = rng.uniform(0.0, 4.0, size=2)
            joint = propagate_exact(rho0, params, t1 + t2)
            steps = propagate_exact(propagate_exact(rho0, params, t1), params, t2)
            assert np.max(np.abs(joint - steps)) < 1e-11

    def test_full_state_time_arrays_and_limits(self):
        rng = np.random.default_rng(79)
        rho0 = random_density(rng, 4)
        times = np.linspace(0.0, 30.0, 7)
        stacked = propagate_exact(rho0, CANONICAL, times)
        assert stacked.shape == (7, 4, 4)
        for t, rho in zip(times.tolist(), stacked):
            assert np.max(np.abs(rho - propagate_exact(rho0, CANONICAL, t))) < 1e-15
        assert np.max(np.abs(stacked[0] - rho0)) < 1e-15
        # no overflow far out: every sector but the populations has decayed
        late = propagate_exact(rho0, CANONICAL, 1e300)
        assert np.max(np.abs(late - embed_xstate(thermal_xstate(CANONICAL)))) < 1e-15
        for bad_t in (-1.0, math.nan, math.inf, [0.0, 1.0, -1.0], [0.0, math.nan],
                      [0.0, math.inf]):
            with pytest.raises(InvariantViolation):
                propagate_exact(rho0, CANONICAL, bad_t)
        with pytest.raises(InvariantViolation):
            propagate_exact(rho0 + 0.1 * np.eye(4), CANONICAL, 1.0)

    def test_phase_overflow_rejected(self):
        # 2 omega t overflows to inf, where math.cos has no value
        params = ModelParams(0.2, 0.5, 2.0)
        with pytest.raises(InvariantViolation, match="phase"):
            propagate_xstate_exact(XSTATE_10, params, 1e308)
        for t in (1e308, [0.0, 1e308]):
            with pytest.raises(InvariantViolation, match="phase"):
                propagate_exact(embed_xstate(XSTATE_10), params, t)

    def test_decay_beyond_float_range(self):
        # R t overflows while 2 omega t does not: every decay factor is 0
        params = ModelParams(1e100, 0.0, 1.0)
        thermal = embed_xstate(thermal_xstate(params))
        late = propagate_exact(np.eye(4) / 4.0, params, [0.0, 1e300])
        assert np.max(np.abs(late[1] - thermal)) == 0.0
        assert embed_xstate(propagate_xstate_exact(XSTATE_10, params, 1e300)).tolist() == (
            thermal.tolist())

    def test_xstate_view_is_the_full_propagator(self):
        rng = np.random.default_rng(82)
        for _ in range(100):
            params = random_params(rng)
            x0 = random_valid_xstate(rng)
            t = float(rng.uniform(0.0, 40.0 / params.relaxation_rate))
            full = propagate_exact(embed_xstate(x0), params, t)
            assert embed_xstate(propagate_xstate_exact(x0, params, t)).tolist() == full.tolist()
        with pytest.raises(InvariantViolation, match="Python int or float"):
            propagate_xstate_exact(XSTATE_10, CANONICAL, np.array([1.0]))

    @pytest.mark.parametrize("omega", [0.0, 1.0, 0.5, 1e-30, 30.0])
    def test_tiny_and_huge_rates_scale(self, omega):
        # the generator is linear in (gamma, omega), so rho(t; s gamma, s omega)
        # = rho(s t; gamma, omega); squaring unscaled rates would underflow
        # (mu+ = 0) or overflow at these scales
        rng = np.random.default_rng(80)
        rho0 = random_density(rng, 4)
        times = np.linspace(0.0, 12.0, 9)
        reference = propagate_exact(rho0, ModelParams(1.0, 0.3, omega), times)
        mu = coherence_root(ModelParams(1.0, 0.3, omega))
        for scale in (1e-170, MIN_GAMMA, 1e70):
            params = ModelParams(scale, 0.3, scale * omega)
            assert coherence_root(params) == pytest.approx(scale * mu, rel=1e-14)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = propagate_exact(rho0, params, times / scale)
            assert np.max(np.abs(got - reference)) < 1e-12

    def test_pure_exchange_limit(self):
        # negligible damping: populations Rabi-oscillate between the atoms
        params = ModelParams(gamma=1e-12, m=0.5, omega=0.7)
        for t in np.linspace(0.0, 10.0, 21):
            x = propagate_xstate_exact(XSTATE_10, params, float(t))
            s = math.sin(params.omega * t)
            co = math.cos(params.omega * t)
            assert abs(x.b - co * co) < 1e-8
            assert abs(x.c - s * s) < 1e-8
            assert abs(abs(x.z) - abs(0.5 * math.sin(2 * params.omega * t))) < 1e-8
            assert abs(x.a) < 1e-8 and abs(x.d) < 1e-8

    def test_relaxes_to_thermal(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            params = random_params(rng)
            x0 = random_valid_xstate(rng)
            horizon = 40.0 / params.relaxation_rate
            x = propagate_xstate_exact(x0, params, horizon)
            th = thermal_xstate(params)
            assert max(
                abs(x.a - th.a), abs(x.b - th.b), abs(x.c - th.c),
                abs(x.d - th.d), abs(x.z), abs(x.w),
            ) < 1e-10

    def test_coherence_decay_rates(self):
        params = ModelParams(gamma=0.25, m=1.0, omega=0.0)
        x0 = XState(0.35, 0.30, 0.20, 0.15, z=0.1 + 0.05j, w=0.04 - 0.02j)
        rate = params.relaxation_rate
        for t in (0.5, 1.0, 2.5):
            x = propagate_xstate_exact(x0, params, t)
            assert abs(x.w - x0.w * math.exp(-rate * t)) < 1e-13
            assert abs(x.z - x0.z * math.exp(-rate * t)) < 1e-13

    def test_populations_match_propagator(self):
        rng = np.random.default_rng(75)
        for _ in range(20):
            params = random_params(rng)
            for t in (0.0, 0.7, 2.3, 6.0):
                x_exc = propagate_xstate_exact(XSTATE_10, params, t)
                x_gnd = propagate_xstate_exact(XSTATE_00, params, t)
                assert abs(population_from_excited(params, t) - (x_exc.a + x_exc.b)) < 1e-12
                assert abs(population_from_ground(params, t) - (x_gnd.a + x_gnd.b)) < 1e-12

    def test_population_endpoints(self):
        rng = np.random.default_rng(76)
        for _ in range(20):
            params = random_params(rng)
            assert abs(population_from_excited(params, 0.0) - 1.0) < 1e-15
            assert abs(population_from_ground(params, 0.0)) < 1e-15
            late = 35.0 / params.relaxation_rate
            q = params.thermal_occupation
            assert abs(population_from_excited(params, late) - q) < 1e-12
            assert abs(population_from_ground(params, late) - q) < 1e-12

    def test_population_array_support(self):
        t = np.linspace(0.0, 5.0, 7)
        out = population_from_excited(CANONICAL, t)
        assert out.shape == (7,)
        assert np.all(np.isfinite(out))
        for i, ti in enumerate(t):
            assert abs(out[i] - population_from_excited(CANONICAL, float(ti))) < 1e-15


class TestIntegrator:
    def test_matches_exact_propagator(self):
        rng = np.random.default_rng(81)
        t_grid = np.linspace(0.0, 5.0, 11)
        for params in (
            CANONICAL,
            ModelParams(0.1, 0.0, 0.0),
            ModelParams(0.5, 2.0, 0.3),
            ModelParams(0.2, 1.0, 1.2),
        ):
            x0 = random_valid_xstate(rng)
            traj = integrate_master(embed_xstate(x0), params, t_grid)
            for t, rho in zip(traj.times, traj.samples):
                expected = embed_xstate(propagate_xstate_exact(x0, params, float(t)))
                assert np.max(np.abs(rho - expected)) < 1e-9

    def test_samples_are_valid_density_matrices(self):
        traj = integrate_master(
            embed_xstate(XSTATE_10), CANONICAL, np.linspace(0.0, 10.0, 21)
        )
        for rho in traj.samples:
            validate_density_matrix(rho, dim=4, positivity_tol=1e-9)
        assert traj.max_trace_drift < 1e-10
        assert traj.max_hermiticity_defect < 1e-12

    def test_decoupled_atoms_evolve_as_product(self):
        # omega = 0: each qubit relaxes independently, with closed-form
        # populations q + (p0 - q) e^{-rate t} and coherences damped at rate/2
        rng = np.random.default_rng(83)
        params = ModelParams(gamma=0.3, m=0.5, omega=0.0)
        rate = params.relaxation_rate
        q = params.thermal_occupation
        rho1 = random_qubit_density(rng)
        rho2 = random_qubit_density(rng)
        t_grid = np.linspace(0.0, 5.0, 6)
        traj = integrate_master(np.kron(rho1, rho2), params, t_grid)

        def evolve(rho, t):
            p0 = rho[0, 0].real
            p = q + (p0 - q) * math.exp(-rate * t)
            off = rho[0, 1] * math.exp(-0.5 * rate * t)
            return np.array([[p, off], [np.conj(off), 1.0 - p]], dtype=complex)

        for t, rho in zip(traj.times, traj.samples):
            expected = np.kron(evolve(rho1, float(t)), evolve(rho2, float(t)))
            assert np.max(np.abs(rho - expected)) < 1e-9

    def test_grid_validation(self):
        rho0 = embed_xstate(XSTATE_10)
        with pytest.raises(InvalidGridError):
            integrate_master(rho0, CANONICAL, [0.1, 1.0])
        with pytest.raises(InvalidGridError):
            integrate_master(rho0, CANONICAL, [0.0, 1.0, 1.0])
        with pytest.raises(InvalidGridError):
            integrate_master(rho0, CANONICAL, [0.0, 2.0, 1.0])
        with pytest.raises(InvalidGridError):
            integrate_master(rho0, CANONICAL, [])
        with pytest.raises(InvalidGridError):
            integrate_master(rho0, CANONICAL, [[0.0, 1.0]])

    def test_negative_max_step_rejected(self):
        with pytest.raises(InvalidGridError, match="max_step must be finite and positive"):
            integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, 1.0], max_step=-1.0)

    def test_zero_max_step_rejected(self):
        with pytest.raises(InvalidGridError, match="max_step must be finite and positive"):
            integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, 1.0], max_step=0.0)

    def test_nan_max_step_rejected(self):
        with pytest.raises(InvalidGridError, match="max_step must be finite and positive"):
            integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, 1.0], max_step=math.nan)

    def test_subnormal_max_step_rejected(self):
        # 5e-324 is finite and positive, but 1 / 5e-324 overflows to inf steps
        with pytest.raises(InvalidGridError, match="finite step count"):
            integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, 1.0], max_step=5e-324)

    def test_tiny_max_step_still_integrates(self):
        # 1e300 steps: a finite count, advanced by binary powering
        start = time.perf_counter()
        traj = integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, 100.0],
                                max_step=1e-300)
        assert time.perf_counter() - start < 1.0
        expected = embed_xstate(propagate_xstate_exact(XSTATE_10, CANONICAL, 100.0))
        assert np.max(np.abs(traj.samples[-1] - expected)) < 1e-12

    @pytest.mark.parametrize("t_end", [1e25, 1e308])
    def test_span_limit_on_default_steps(self, t_end):
        # 1e25 needs 2e28 default steps, whose powers overflow; 1e308 needs more
        # steps than a float holds; both are beyond the limit, with or without max_step
        rho0 = np.eye(4, dtype=complex) / 4.0
        params = ModelParams(0.2, 0.5, 2.0)
        for max_step in (None, 1e-3):
            with pytest.raises(InvalidGridError, match="finite step count and 1e\\+21"):
                integrate_master(rho0, params, [0.0, t_end], max_step=max_step)
        limit = MAX_SPAN_STEPS * STEP_RESOLUTION / 2.0 * (1.0 - 1e-15)
        with pytest.raises(InvariantViolation, match="trace drift"):  # named, no overflow
            integrate_master(rho0, params, [0.0, limit])

    def test_unstable_max_step_rejected(self):
        # 5.0 is beyond RK4's stability limit at the canonical rates: over a
        # span of 100 the powers grow to a named drift, over 1000 they overflow
        rho0 = embed_xstate(XSTATE_10)
        with pytest.raises(InvariantViolation, match="trace drift"):
            integrate_master(rho0, CANONICAL, [0.0, 100.0], max_step=5.0)
        with pytest.raises(InvariantViolation, match="max_step=5.0 is beyond RK4's stability"):
            integrate_master(rho0, CANONICAL, [0.0, 1000.0], max_step=5.0)

    def test_nan_trace_drift_rejected(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_rk4_steps", lambda terms, y, h, n: y * math.nan)
        with pytest.raises(InvariantViolation, match="trace drift nan"):
            integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, 1.0])

    def test_infinite_grid_time_rejected(self):
        with pytest.raises(InvalidGridError, match="finite times"):
            integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, math.inf])

    def test_state_stacks_rejected(self):
        # the validator takes stacks; the dynamics take exactly one state
        stack = np.array([np.eye(4, dtype=complex) / 4.0] * 2)
        for call in (lambda: lindblad_rhs(stack, CANONICAL),
                     lambda: integrate_master(stack, CANONICAL, [0.0, 1.0]),
                     lambda: propagate_exact(stack, CANONICAL, 1.0)):
            with pytest.raises(DimensionMismatchError, match="got shape \\(2, 4, 4\\)"):
                call()

    def test_initial_state_validation(self):
        with pytest.raises(InvariantViolation):
            integrate_master(np.eye(4, dtype=complex), CANONICAL, [0.0, 1.0])

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 1316])
    def test_step_matrix_power_is_sequential_rk4(self, n_steps):
        # one span of exactly n_steps steps: ceil(span / max_step) == n_steps
        span = 0.25
        max_step = span / n_steps * (1.0 + 1e-12)
        rng = np.random.default_rng(85)
        for params in parameter_grid():
            rho0 = random_density(rng, 4)
            traj = integrate_master(rho0, params, [0.0, span], max_step=max_step)
            expected = rk4_sequential(
                superoperator(params), rho0.reshape(16), span / n_steps, n_steps
            ).reshape(4, 4)
            assert np.max(np.abs(traj.samples[-1] - expected)) < 1e-13

    def test_large_step_count_is_fast_and_exact(self):
        # 10^7 RK4 steps in one span; a step-by-step loop takes minutes
        start = time.perf_counter()
        traj = integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, 100.0], max_step=1e-5)
        assert time.perf_counter() - start < 5.0
        expected = embed_xstate(propagate_xstate_exact(XSTATE_10, CANONICAL, 100.0))
        assert np.max(np.abs(traj.samples[-1] - expected)) < 1e-9

    @pytest.mark.parametrize("max_step", [None, 0.05, 0.5, 2.0, 5.0])
    def test_one_pass_matches_per_sample_checks(self, max_step):
        # samples bit for bit, and the same first failure, as the loop that
        # checks each sample before advancing the next span; spans of 1e4 to
        # 1e5 drift by 1e-12 to 1e-11 (renormalized), 3e6 beyond the tolerance
        rng = np.random.default_rng(87)
        renormalized = np.array([0.0, 3e3, 1e4, 4e4, 1e5])
        for params in parameter_grid():
            rho0 = random_density(rng, 4)
            grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 60.0, 12))])
            for times in (np.linspace(0.0, 10.0, 20), grid, renormalized,
                          np.append(renormalized, 3e6)):
                expected = _outcome(lambda: integrate_per_sample(rho0, params, times, max_step))
                traj = _outcome(
                    lambda: integrate_master(rho0, params, times, max_step=max_step).samples)
                assert traj == expected

    def test_renormalized_samples_are_logged(self, caplog):
        caplog.set_level("DEBUG", logger="qmemory.dynamics")
        integrate_master(np.eye(4, dtype=complex) / 4.0, ModelParams(0.2, 0.5, 2.0),
                         [0.0, 3e3, 1e4, 4e4, 1e5])
        assert caplog.messages == [
            "renormalizing integrator sample at t=40000: trace drift 2.020e-12",
            "renormalizing integrator sample at t=100000: trace drift 5.050e-12",
        ]

    def test_coarse_step_failures_are_pinned(self):
        grid = np.linspace(0.0, 10.0, 20)
        with pytest.raises(InvariantViolation) as info:
            integrate_master(embed_xstate(XSTATE_10), ModelParams(0.1, 0.0, 0.3), grid,
                             max_step=0.5)
        assert str(info.value) == (
            "sample(t=0.526316) has eigenvalue -5.431e-07 below 0 beyond slack 1e-09")
        with pytest.raises(InvariantViolation) as info:
            integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, 75.0], max_step=2.0)
        assert str(info.value) == (
            "integrator trace drift 4.578e-05 at t=75 exceeds 1e-10 before renormalization")

    @pytest.mark.parametrize("spans, message", [
        (("negative", "drifted", "overflow"), "sample\\(t=1\\) has eigenvalue -1.000e-01"),
        (("valid", "drifted", "negative"), "trace drift 1.000e\\+00 at t=2 exceeds"),
        (("valid", "negative", "overflow"), "sample\\(t=2\\) has eigenvalue"),
        (("valid", "valid", "overflow"), "overflow by t=3"),
        (("valid", "overflow", "negative"), "overflow by t=2"),
    ])
    def test_first_failure_order(self, monkeypatch, spans, message):
        # a sample's drift, then its validity, then later samples and spans
        states = {
            "valid": np.eye(4, dtype=complex).reshape(16) / 4.0,
            "negative": np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex).reshape(16),
            "drifted": np.eye(4, dtype=complex).reshape(16) / 2.0,
        }
        script = iter(spans)

        def steps(terms, y, h, n):
            state = next(script)
            if state == "overflow":
                raise FloatingPointError(state)
            return states[state]

        monkeypatch.setattr(dynamics, "_rk4_steps", steps)
        with pytest.raises(InvariantViolation, match=message):
            integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, 1.0, 2.0, 3.0])

    def test_single_point_grid(self):
        traj = integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0])
        assert len(traj.samples) == 1
        assert np.max(np.abs(traj.samples[0] - embed_xstate(XSTATE_10))) == 0.0


class TestTrajectoryRecord:
    def test_sample_count_mismatch(self):
        with pytest.raises(InvariantViolation):
            Trajectory(times=np.array([0.0, 1.0]), samples=(XSTATE_10,))

    def test_grid_must_increase(self):
        with pytest.raises(InvalidGridError):
            Trajectory(times=np.array([0.0, 0.0]), samples=(XSTATE_10, XSTATE_10))


class TestPublishedSolution:
    def test_initial_value_defects(self):
        # verbatim transcription reproduces b(0) = 1.5 and c(0) = -0.5 for the
        # excited-atom start (true values: 1 and 0), for every occupancy
        for m in (0.0, 0.5, 2.0):
            params = ModelParams(gamma=0.2, m=m, omega=0.8)
            pub = propagate_xstate_published(XSTATE_10, params, 0.0)
            exact = propagate_xstate_exact(XSTATE_10, params, 0.0)
            assert abs(pub.b - PUBLISHED_B0) < 1e-12
            assert abs(pub.c - PUBLISHED_C0) < 1e-12
            assert abs(pub.d - PUBLISHED_D0[m]) < 1e-12
            assert abs(exact.b - 1.0) < 1e-14
            assert abs(exact.c) < 1e-14
            assert abs(exact.d) < 1e-14

    def test_initial_trace_defect(self):
        pub = propagate_xstate_published(XSTATE_10, CANONICAL, 0.0)
        total = pub.a + pub.b + pub.c + pub.d
        assert total > 1.7  # nowhere near the unit trace of a density matrix

    def test_oscillation_frequency_defect(self):
        # at t = pi/omega the exact population imbalance has completed a full
        # beat and sits at exp(-rate t); the published formulas place their
        # (half-frequency) beat zero there
        t_probe = math.pi / CANONICAL.omega
        pub = propagate_xstate_published(XSTATE_10, CANONICAL, t_probe)
        exact = propagate_xstate_exact(XSTATE_10, CANONICAL, t_probe)
        assert abs((pub.b - pub.c) - PUBLISHED_U_AT_PI_OVER_OMEGA) < 1e-12
        assert abs((exact.b - exact.c) - EXACT_U_AT_PI_OVER_OMEGA) < 1e-12
        assert abs((exact.b - exact.c) - (pub.b - pub.c)) > 0.2

    def test_validates_input_state(self):
        with pytest.raises(InvariantViolation):
            propagate_xstate_published(XState(0.9, 0.9, 0.0, 0.0), CANONICAL, 1.0)
