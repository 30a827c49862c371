"""Self-check suite: all checks pass, and a coarse integrator makes them fail."""
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
from qmemory import validate
from qmemory.nonmarkov import (
    default_truncation_time,
    trace_distance_closed_form,
    trace_distance_pair,
    trace_distance_rate,
)
from qmemory.validate import GENERIC_STATE

from helpers import (
    distance_rate_check_loop,
    exact_check_loop,
    populations_check_loop,
    semigroup_check_loop,
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
        ):
            monkeypatch.setattr(validate, name, loop)
        assert family == run_validation(max_step=max_step)

    def test_distance_rate_detail_is_the_scalar_loops(self):
        assert validate._check_distance_rate() == distance_rate_check_loop()

    def test_coarse_step_populations_abort_is_the_first_member_failure(self):
        by_name = {r.name: r for r in run_validation(max_step=0.5)}
        assert by_name["populations-vs-integrator"].detail == (
            "aborted: sample(t=0.526316) has eigenvalue -5.431e-07 below 0 beyond slack 1e-09")


class TestBoundedMemory:
    def test_streamed_riemann_sum_is_the_one_shot_sum(self, monkeypatch):
        # the blocks cover exactly the one-shot grid's points, bit for bit
        params, dt = CANONICAL_PARAMS, 1e-4
        blocks = []

        def recording_rate(p, t):
            blocks.append(t)
            return trace_distance_rate(p, t)

        monkeypatch.setattr(validate, "trace_distance_rate", recording_rate)
        streamed = validate._riemann_measure(params, dt)
        grid = np.arange(0.0, default_truncation_time(params), dt)
        assert len(blocks) > 1
        assert np.concatenate(blocks).tobytes() == grid.tobytes()
        one_shot = float(np.sum(np.clip(trace_distance_rate(params, grid), 0.0, None)) * dt)
        assert abs(streamed - one_shot) <= 1e-15 * one_shot

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
        assert validate.GENERIC_STATE is GENERIC_STATE
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
