"""Self-check suite: all checks pass, and a coarse integrator makes them fail."""
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


class TestFixtures:
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
