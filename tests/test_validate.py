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
    NotXFormError,
    extract_xstate,
    hermitian_eigenvalues,
    run_validation,
    validate_density_matrix,
)
from qmemory import validate
from qmemory.nonmarkov import default_truncation_time, trace_distance_rate
from qmemory.validate import GENERIC_STATE

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
