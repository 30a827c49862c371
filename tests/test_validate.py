"""Self-check suite: all checks pass, and a coarse integrator makes them fail."""
import dataclasses
import inspect
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qmemory import (
    CANONICAL_PARAMS,
    CheckResult,
    GENERIC_XSTATE,
    ModelParams,
    NotXFormError,
    extract_xstate,
    hermitian_eigenvalues,
    run_validation,
    validate_density_matrix,
)
from qmemory import dynamics, entangle, nonmarkov, validate
from qmemory.densmat import embed_xstate
from qmemory.dynamics import lindblad_rhs, parameter_grid, thermal_xstate
from qmemory.errors import InvariantViolation
from qmemory.nonmarkov import (
    blp_measure,
    default_truncation_time,
    trace_distance_closed_form,
    trace_distance_pair,
    trace_distance_rate,
)
from qmemory.validate import GENERIC_STATE

from helpers import (
    distance_rate_check_loop,
    entanglement_check_loop,
    exact_check_loop,
    populations_check_loop,
    semigroup_check_loop,
    stationarity_check_loop,
    steady_check_loop,
)

EXPECTED_NAMES = [
    "exact-propagator-vs-integrator",
    "populations-vs-integrator",
    "distance-pair-vs-closed-form",
    "distance-rate-vs-finite-difference",
    "memory-measure-vs-riemann",
    "thermal-state-stationarity",
    "semigroup-property",
    "steady-state-convergence",
    "published-solution-discrepancy",
    "entanglement-consistency",
]

DISCREPANCY_ROWS = [
    "published.b(0)|t=0,b0=1 -> 1.5 (expected 1)",
    "published.c(0)|t=0,c0=0 -> -0.5 (expected 0)",
    "published.d(0)|t=0,m=0.5,d0=0 -> 0.75 (expected 0)",
]


@pytest.fixture(scope="module")
def results():
    return run_validation()


class TestFullRun:
    def test_every_check_passes(self, results):
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_check_names_and_order(self, results):
        assert [r.name for r in results] == EXPECTED_NAMES

    def test_results_carry_details(self, results):
        for r in results:
            assert isinstance(r, CheckResult)
            assert r.detail

    def test_discrepancy_table_rows(self, results):
        by_name = {r.name: r for r in results}
        table = by_name["published-solution-discrepancy"].table
        assert list(table) == DISCREPANCY_ROWS

    def test_only_discrepancy_check_tabulates(self, results):
        for r in results:
            if r.name != "published-solution-discrepancy":
                assert r.table == ()

    def test_riemann_detail(self, results):
        by_name = {r.name: r for r in results}
        assert by_name["memory-measure-vs-riemann"].detail == (
            "interval sum 0.27918245, closed form 0.27918245 vs Riemann 0.27918245 "
            "(rel 9.84e-10)")


class TestNegativeControl:
    def test_coarse_integrator_fails_oracle_checks(self):
        coarse = run_validation(max_step=0.5)
        # exactly the integrator-backed oracles notice a deliberately bad
        # step; the closed-form-only checks are untouched by the step cap
        assert [r.name for r in coarse] == EXPECTED_NAMES
        assert {r.name for r in coarse if not r.passed} == {
            "exact-propagator-vs-integrator",
            "populations-vs-integrator",
            "entanglement-consistency",
        }


# Plausible defects of the package, at least one per check: description ->
# (the check it is aimed at, module, function, text, defective text, every
# check that fails with it, in report order).  Each is applied by replacing
# its text once in the function's source, and only by monkeypatch.
DEFECTS = {
    "coherence factors with expm1(-1.9 mu t)": (
        "exact-propagator-vs-integrator", dynamics, "_coherence_factors",
        "np.expm1(-2.0 * mu * tt)", "np.expm1(-1.9 * mu * tt)",
        ("exact-propagator-vs-integrator",)),
    "relaxation envelope at gamma in place of R": (
        "populations-vs-integrator", dynamics, "_relaxation_envelope",
        "rate = params.relaxation_rate", "rate = params.gamma",
        ("populations-vs-integrator", "distance-rate-vs-finite-difference",
         "memory-measure-vs-riemann", "entanglement-consistency")),
    "excited population at cos(omega t), the published frequency": (
        "distance-pair-vs-closed-form", dynamics, "population_from_excited",
        "np.cos(2.0 * params.omega * tt)", "np.cos(params.omega * tt)",
        ("populations-vs-integrator", "distance-pair-vs-closed-form",
         "entanglement-consistency")),
    "sigma with the sign of its omega term flipped": (
        "distance-rate-vs-finite-difference", nonmarkov, "trace_distance_rate",
        "+ params.omega * np.sin", "- params.omega * np.sin",
        ("distance-rate-vs-finite-difference",)),
    "peak phase with atan(R / omega)": (
        "memory-measure-vs-riemann", nonmarkov, "_peak_phase",
        "2.0 * params.omega", "params.omega",
        ("memory-measure-vs-riemann",)),
    "closed-form geometric sum 1.5% high": (
        "memory-measure-vs-riemann", nonmarkov, "_full_gains",
        "return first *", "return 1.015 * first *",
        ("memory-measure-vs-riemann",)),
    "m dropped from the generator's raising term": (
        "thermal-state-stationarity", dynamics, "_generators",
        "m * gamma * raising", "gamma * raising",
        ("exact-propagator-vs-integrator", "populations-vs-integrator",
         "thermal-state-stationarity", "steady-state-convergence",
         "entanglement-consistency")),
    "sinh(mu t) / mu divided by Re mu": (
        "semigroup-property", dynamics, "_coherence_factors",
        "-lead * fall / mu", "-lead * fall / mu.real",
        ("exact-propagator-vs-integrator", "semigroup-property")),
    "truncation window 3/R in place of 30/R": (
        "steady-state-convergence", nonmarkov, "default_truncation_time",
        "30.0 /", "3.0 /",
        ("memory-measure-vs-riemann", "steady-state-convergence",
         "entanglement-consistency")),
    "published solution's norm not squared": (
        "published-solution-discrepancy", dynamics, "propagate_xstate_published",
        "norm = (2.0 * m + 1.0) ** 2", "norm = (2.0 * m + 1.0)",
        ("published-solution-discrepancy",)),
    "subsystem entropy of the ground-start population": (
        "entanglement-consistency", entangle, "_reading",
        "binary_entropy(p_plus)", "binary_entropy(p_minus)",
        ("entanglement-consistency",)),
}


def _apply(monkeypatch, module, name, text, defective):
    """Replace ``text`` once in the source of ``module.name`` and install the
    result wherever a package module binds that function."""
    original = getattr(module, name)
    source = inspect.getsource(original)
    assert source.count(text) == 1, (name, text)
    namespace = dict(vars(module))
    exec("from __future__ import annotations\n" + source.replace(text, defective), namespace)
    bound = [mod for key, mod in sys.modules.items()
             if key.split(".")[0] == "qmemory" and vars(mod).get(name) is original]
    assert module in bound
    for mod in bound:
        monkeypatch.setattr(mod, name, namespace[name])


class TestMutations:
    def test_every_check_has_a_defect(self):
        aimed = {check for check, *_ in DEFECTS.values()}
        assert aimed == set(EXPECTED_NAMES)
        for check, *_, failing in DEFECTS.values():
            assert check in failing
            assert list(failing) == [name for name in EXPECTED_NAMES if name in failing]

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_defect_fails_its_check(self, monkeypatch, defect):
        check, module, name, text, defective, failing = DEFECTS[defect]
        _apply(monkeypatch, module, name, text, defective)
        assert tuple(r.name for r in run_validation() if not r.passed) == failing

    def test_clean_run_passes_after_the_defects(self):
        # every defect is undone with its test: the package passes 10/10
        assert [r.passed for r in run_validation()] == [True] * len(EXPECTED_NAMES)


def _sequential_draws():
    """The distance check's 1000 rows as 4000 scalar draws, one member at a time."""
    rng = np.random.default_rng(validate.RNG_SEED)
    return [(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, 3.0)),
             float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 20.0)))
            for _ in range(1000)]


class TestDistanceFamily:
    def test_family_holds_the_sequential_draws(self, monkeypatch):
        calls = []

        def recording_pair(params, t):
            calls.append((params, t))
            return trace_distance_pair(params, t)

        monkeypatch.setattr(validate, "trace_distance_pair", recording_pair)
        validate._check_distance_closed_form()
        ((family, t),) = calls
        rows = np.column_stack([family.gamma, family.m, family.omega, t])
        assert rows.tolist() == [list(row) for row in _sequential_draws()]

    def test_report_matches_member_loop(self):
        worst = max(
            abs(trace_distance_pair(ModelParams(g, m, omega), t)
                - trace_distance_closed_form(ModelParams(g, m, omega), t))
            for g, m, omega, t in _sequential_draws())
        assert validate._check_distance_closed_form() == (
            True, f"worst |D_pair - D_closed| = {worst:.3e} (tol 1e-12)", ())


class TestFamilyChecks:
    """The checks that evaluate grid families report what their member loops
    report: the same worst values, and the same first failure."""

    @pytest.mark.parametrize("max_step", [None, 0.5, 0.05, 2.0])
    def test_results_equal_the_member_loops(self, monkeypatch, max_step):
        family = run_validation(max_step=max_step)
        for name, loop in (
            ("_check_exact_vs_integrator", exact_check_loop),
            ("_check_populations", populations_check_loop),
            ("_check_semigroup", semigroup_check_loop),
            ("_check_steady", steady_check_loop),
            ("_check_distance_rate", distance_rate_check_loop),
            ("_check_stationarity", stationarity_check_loop),
            ("_check_entanglement", entanglement_check_loop),
        ):
            monkeypatch.setattr(validate, name, loop)
        assert family == run_validation(max_step=max_step)

    def test_distance_rate_detail_is_the_scalar_loops(self):
        assert validate._check_distance_rate() == distance_rate_check_loop()

    def test_thermal_residuals_are_the_member_loops(self):
        loop = np.array([lindblad_rhs(embed_xstate(thermal_xstate(p)), p)
                         for p in parameter_grid()])
        assert validate._thermal_residuals().tobytes() == loop.tobytes()

    def test_coarse_step_populations_abort_is_the_first_member_failure(self):
        by_name = {r.name: r for r in run_validation(max_step=0.5)}
        with pytest.raises(InvariantViolation) as info:
            populations_check_loop(0.5)
        assert by_name["populations-vs-integrator"].detail == f"aborted: {info.value}" == (
            "aborted: sample(t=0.5) has eigenvalue -5.845e-06 below 0 beyond slack 1e-09")

    def test_integrator_checks_share_one_uniform_grid(self, monkeypatch):
        # one span length, so each block of members builds one power list
        times = validate._CHECK_TIMES
        assert (times[0], times[-1], np.unique(np.diff(times)).tolist()) == (0.0, 10.0, [0.5])
        grids = []

        def recording(integrate):
            def call(rho0, params, t_grid, *args, **kwargs):
                grids.append(t_grid)
                return integrate(rho0, params, t_grid, *args, **kwargs)
            return call

        monkeypatch.setattr(validate, "_integrate", recording(validate._integrate))
        monkeypatch.setattr(validate, "integrate_master", recording(validate.integrate_master))
        for check in (validate._check_exact_vs_integrator, validate._check_populations,
                      validate._check_entanglement):
            assert check(None)[0]
        assert len(grids) == 3 and all(grid is times for grid in grids)


def _one_shot_riemann(params, dt):
    """The oracle's sum as one array call of the library's sigma."""
    grid = np.arange(0.0, default_truncation_time(params), dt)
    sigma = trace_distance_rate(params, grid)
    return float(np.sum(np.clip(sigma, 0.0, None)) * dt), float(np.sum(np.abs(sigma)) * dt)


def _rate_blocks(params, dt):
    """``_sigma_blocks`` beside ``trace_distance_rate`` at the same grid points."""
    start = 0
    for sigma in validate._sigma_blocks(params, dt):
        t = np.arange(start, start + len(sigma), dtype=float) * dt
        yield t, sigma, trace_distance_rate(params, t)
        start += len(sigma)


class TestRiemannOracle:
    """The Riemann sum evaluates sigma from its own identity; on its grid it
    is the library's ``trace_distance_rate`` to a few units in the last
    place."""

    @pytest.mark.parametrize(
        "params", parameter_grid() + (ModelParams(0.01, 0.0, 3.0),),
        ids=lambda p: f"{p.gamma}-{p.m}-{p.omega}")
    def test_sigma_is_the_rate_pointwise(self, params):
        # a few ulps of the amplitude R + omega, growing with the exp and cos
        # arguments, whose rounding the two routes split differently; the
        # measured worst is 1.55 of this model (8.9e-16 absolute on the grid,
        # 2.1e-13 at omega t ~ 9000 for the last member)
        rate, omega = params.relaxation_rate, params.omega
        eps = np.finfo(float).eps
        count = 0
        for t, sigma, rate_at_t in _rate_blocks(params, 1e-4):
            bound = 4 * eps * (rate + omega) * (1.0 + (rate + 2 * omega) * t) * np.exp(-rate * t)
            assert np.all(np.abs(sigma - rate_at_t) <= bound)
            count += len(t)
        assert count == len(np.arange(0.0, default_truncation_time(params), 1e-4))

    def test_scaled_gains_fail_the_check(self, monkeypatch):
        # interval gains 0.9% too large: the check reaches 9.8e-10, and its
        # tolerance must not let an error of this size pass
        def scaled(params):
            result = blp_measure(params)
            gains = tuple(1.009 * gain for gain in result.gains)
            return dataclasses.replace(result, gains=gains, n_value=math.fsum(gains))

        assert validate._check_measure_riemann()[0]
        monkeypatch.setattr(validate, "blp_measure", scaled)
        passed, detail, _ = validate._check_measure_riemann()
        assert not passed, detail

    def test_flipped_omega_term_fails_the_check(self, monkeypatch):
        # sigma's Omega term enters only through the imaginary part of the
        # phasor R/2 - i omega; a phasor R/2 + i omega must fail the check
        source = inspect.getsource(validate._sigma_blocks)
        phasor = "complex(0.5 * rate, -params.omega)"
        assert source.count(phasor) == 1
        namespace = dict(vars(validate))
        exec(source.replace(phasor, "complex(0.5 * rate, params.omega)"), namespace)
        monkeypatch.setattr(validate, "_sigma_blocks", namespace["_sigma_blocks"])
        passed, detail, _ = validate._check_measure_riemann()
        assert not passed, detail


class TestBoundedMemory:
    def test_streamed_riemann_sum_is_the_one_shot_sum(self, monkeypatch):
        params, dt = CANONICAL_PARAMS, 1e-4
        one_shot, _ = _one_shot_riemann(params, dt)
        streamed = validate._riemann_measure(params, dt)
        assert abs(streamed - one_shot) <= 1e-15 * one_shot
        # the blocks cover exactly the one-shot grid's points
        blocks = [len(sigma) for sigma in validate._sigma_blocks(params, dt)]
        assert len(blocks) > 1
        assert sum(blocks) == len(np.arange(0.0, default_truncation_time(params), dt))

        def refuse(*args, **kwargs):
            raise AssertionError("the Riemann oracle called trace_distance_rate")

        monkeypatch.setattr(validate, "trace_distance_rate", refuse)
        assert validate._riemann_measure(params, dt) == streamed

    def test_streamed_riemann_sum_over_the_grid(self):
        # the sums differ by rounding, bounded by machine epsilon times
        # dt * sum |sigma| (measured worst 0.09 of it, at the member whose sum
        # is 1.6e-8)
        dt = 1e-4
        for params in parameter_grid():
            one_shot, total = _one_shot_riemann(params, dt)
            streamed = validate._riemann_measure(params, dt)
            assert abs(streamed - one_shot) <= np.finfo(float).eps * total, params

    def test_riemann_peak_allocation(self):
        tracemalloc.start()
        try:
            validate._riemann_measure(CANONICAL_PARAMS, 1e-4)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert current < 1e3

    def test_validation_peak_allocation(self, results):
        # ``results`` has filled the caches and built the lazy fixture
        tracemalloc.start()
        try:
            run_validation()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestFixtures:
    def test_import_runs_no_eigensolve(self):
        code = (
            "import numpy.linalg\n"
            "def refuse(*args, **kwargs):\n"
            "    raise RuntimeError('eigensolve at import')\n"
            "numpy.linalg.eigvalsh = refuse\n"
            "import qmemory, qmemory.cli\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_generic_state_is_built_once_and_read_only(self):
        # a module constant, built when qmemory.validate executes
        assert vars(validate)["GENERIC_STATE"] is GENERIC_STATE
        assert not hasattr(validate, "__getattr__")
        assert not GENERIC_STATE.flags.writeable

    def test_canonical_parameters(self):
        assert (CANONICAL_PARAMS.gamma, CANONICAL_PARAMS.m, CANONICAL_PARAMS.omega) == (
            0.2, 0.5, 0.8,
        )

    def test_generic_state_is_valid(self):
        GENERIC_XSTATE.validate()
        assert GENERIC_XSTATE.z.imag != 0.0
        assert GENERIC_XSTATE.w.imag != 0.0

    def test_generic_full_state_is_full_rank_and_not_x(self):
        validate_density_matrix(GENERIC_STATE, dim=4)
        assert hermitian_eigenvalues(GENERIC_STATE)[-1] > 0.05
        # the k = +-1 coherences the X family lacks are all populated
        assert min(abs(GENERIC_STATE[i, j]) for i, j in ((0, 1), (0, 2), (1, 3), (2, 3))) > 0.05
        with pytest.raises(NotXFormError):
            extract_xstate(GENERIC_STATE)
