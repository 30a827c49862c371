"""Generator, integrator, exact propagator, and published-solution probes."""
import math
import time

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
    propagate_xstate_exact,
    propagate_xstate_published,
    superoperator,
    thermal_xstate,
    validate_density_matrix,
    xstate_rhs,
)
from qmemory.errors import InvalidGridError, InvariantViolation

from helpers import (
    CANONICAL,
    EXACT_U_AT_PI_OVER_OMEGA,
    PUBLISHED_B0,
    PUBLISHED_C0,
    PUBLISHED_D0,
    PUBLISHED_U_AT_PI_OVER_OMEGA,
    random_density,
    random_params,
    random_qubit_density,
    random_valid_xstate,
    rk4_sequential,
)


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

    def test_xstate_rhs_matches_full_generator(self):
        rng = np.random.default_rng(63)
        for _ in range(1000):
            params = random_params(rng)
            x = random_valid_xstate(rng)
            deriv = xstate_rhs(x, params)
            full = extract_xstate(lindblad_rhs(embed_xstate(x), params))
            assert abs(deriv.da - full.a) < 1e-13
            assert abs(deriv.db - full.b) < 1e-13
            assert abs(deriv.dc - full.c) < 1e-13
            assert abs(deriv.dd - full.d) < 1e-13
            assert abs(deriv.dz - full.z) < 1e-13
            assert abs(deriv.dw - full.w) < 1e-13
            assert abs(deriv.da + deriv.db + deriv.dc + deriv.dd) < 1e-14

    def test_xstate_rhs_validates_input(self):
        with pytest.raises(InvariantViolation):
            xstate_rhs(XState(0.9, 0.9, 0.0, 0.0), CANONICAL)

    def test_thermal_state_is_stationary(self):
        for params in parameter_grid():
            x = thermal_xstate(params)
            deriv = xstate_rhs(x, params)
            assert max(
                abs(deriv.da), abs(deriv.db), abs(deriv.dc), abs(deriv.dd),
                abs(deriv.dz), abs(deriv.dw),
            ) < 1e-15
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
        # centered finite difference of the propagator against the rate equations
        rng = np.random.default_rng(73)
        h = 1e-6
        for _ in range(25):
            params = random_params(rng)
            x0 = random_valid_xstate(rng)
            plus = propagate_xstate_exact(x0, params, 1.0 + h)
            minus = propagate_xstate_exact(x0, params, 1.0 - h)
            at = propagate_xstate_exact(x0, params, 1.0)
            deriv = xstate_rhs(at, params)
            for got, want in (
                ((plus.a - minus.a) / (2 * h), deriv.da),
                ((plus.b - minus.b) / (2 * h), deriv.db),
                ((plus.c - minus.c) / (2 * h), deriv.dc),
                ((plus.d - minus.d) / (2 * h), deriv.dd),
                ((plus.z - minus.z) / (2 * h), deriv.dz),
                ((plus.w - minus.w) / (2 * h), deriv.dw),
            ):
                assert abs(got - want) < 1e-7

    def test_matches_generator_exponential(self):
        # independent route: e^{Lt} from the eigendecomposition of the 16x16
        # superoperator, applied to the row-major vectorized state
        rng = np.random.default_rng(77)
        for params in parameter_grid():
            lam, vec = np.linalg.eig(superoperator(params))
            vec_inv = np.linalg.inv(vec)
            for _ in range(8):
                x0 = random_valid_xstate(rng)
                t = float(rng.uniform(0.0, 40.0 / params.relaxation_rate))
                y = vec @ (np.exp(lam * t) * (vec_inv @ embed_xstate(x0).reshape(16)))
                expected = y.reshape(4, 4)
                got = embed_xstate(propagate_xstate_exact(x0, params, t))
                assert np.max(np.abs(got - expected)) < 1e-12

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

    def test_infinite_grid_time_rejected(self):
        with pytest.raises(InvalidGridError, match="finite times"):
            integrate_master(embed_xstate(XSTATE_10), CANONICAL, [0.0, math.inf])

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
