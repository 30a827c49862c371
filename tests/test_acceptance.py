"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Run with ``pytest -v`` (one PASSED/FAILED line per criterion) or ``-s`` to see
the explicit ``[PASS]/[FAIL] criterion N`` lines.
"""
import filecmp
import functools
import math
import subprocess
import sys

import numpy as np
import pytest

from qmemory import (
    EntanglementVariant,
    GENERIC_XSTATE,
    MARKOVIAN,
    ModelParams,
    NON_MARKOVIAN,
    XSTATE_00,
    XSTATE_10,
    blp_measure,
    classify_dynamics,
    embed_xstate,
    entanglement_entropy,
    hermitian_eigenvalues,
    integrate_master,
    parameter_grid,
    partial_trace_qubit2,
    population_from_excited,
    population_from_ground,
    propagate_xstate_exact,
    propagate_xstate_published,
    steady_entanglement,
    thermal_xstate,
    trace_distance_closed_form,
    trace_distance_pair,
    trace_distance_rate,
)

from helpers import CANONICAL, E_PUBLISHED_T_STAR, random_params, trapezoid

T_GRID = np.linspace(0.0, 10.0, 20)


def criterion(number: int, summary: str):
    """Emit exactly one ``[PASS]/[FAIL] criterion N`` line per test."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {summary}")
                raise
            print(f"[PASS] criterion {number}: {summary}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def grid_runs():
    """Integrator trajectories over the full parameter grid, three preparations each."""
    runs = []
    for params in parameter_grid():
        for x0 in (GENERIC_XSTATE, XSTATE_10, XSTATE_00):
            runs.append((params, x0, integrate_master(embed_xstate(x0), params, T_GRID)))
    return runs


@criterion(1, "exact propagator matches the integrator within 1e-8 on the parameter grid")
def test_criterion_1_oracle_equivalence(grid_runs):
    worst = 0.0
    for params, x0, traj in grid_runs:
        for t, rho in zip(traj.times, traj.samples):
            expected = embed_xstate(propagate_xstate_exact(x0, params, float(t)))
            worst = max(worst, float(np.max(np.abs(rho - expected))))
    assert worst <= 1e-8, f"worst componentwise gap {worst:.3e}"


@criterion(2, "closed-form populations match partial-traced integrator populations within 1e-8")
def test_criterion_2_population_formulas(grid_runs):
    worst = 0.0
    for params, x0, traj in grid_runs:
        if x0 is XSTATE_10:
            formula = population_from_excited
        elif x0 is XSTATE_00:
            formula = population_from_ground
        else:
            continue
        for t, rho in zip(traj.times, traj.samples):
            numeric = float(partial_trace_qubit2(rho)[0, 0].real)
            worst = max(worst, abs(numeric - float(formula(params, float(t)))))
    assert worst <= 1e-8, f"worst population gap {worst:.3e}"


@criterion(3, "pair trace distance equals exp(-rate t) cos^2(omega t) within 1e-12 at 1000 points")
def test_criterion_3_distance_closed_form():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        params = random_params(rng)
        t = float(rng.uniform(0.0, 20.0))
        closed = math.exp(-params.relaxation_rate * t) * math.cos(params.omega * t) ** 2
        worst = max(worst, abs(float(trace_distance_pair(params, t)) - closed))
    assert worst <= 1e-12, f"worst distance gap {worst:.3e}"


@criterion(4, "memory measure: 0.2792 within 1%, Riemann within 1%, 0 uncoupled, weak in [4e-5, 8e-5]")
def test_criterion_4_blp_measure():
    result = blp_measure(CANONICAL)
    assert abs(result.n_value - 0.2792) / 0.2792 <= 0.01

    t = np.linspace(0.0, result.truncation_time, 750_001)
    sigma = np.asarray(trace_distance_rate(CANONICAL, t))
    riemann = trapezoid(np.maximum(sigma, 0.0), t)
    assert abs(result.n_value - riemann) / riemann <= 0.01

    assert blp_measure(ModelParams(0.2, 0.5, 0.0)).n_value == 0.0
    weak = blp_measure(ModelParams(0.2, 0.5, 0.1)).n_value
    assert 4e-5 <= weak <= 8e-5


@criterion(5, "regime flips with coupling at eps=1e-3; the distance revives from zero at pi/(2 omega)")
def test_criterion_5_transition():
    assert classify_dynamics(ModelParams(0.2, 0.5, 0.1), eps=1e-3).regime == MARKOVIAN
    assert classify_dynamics(ModelParams(0.2, 0.5, 0.8), eps=1e-3).regime == NON_MARKOVIAN
    for gamma in (0.1, 0.2, 0.5):
        for m in (0.0, 0.5, 2.0):
            params = ModelParams(gamma, m, 0.8)
            t_rev = math.pi / (2.0 * params.omega)
            assert trace_distance_closed_form(params, t_rev) <= 1e-30
            assert (trace_distance_rate(params, t_rev * (1.0 - 1e-6)) < 0.0
                    < trace_distance_rate(params, t_rev * (1.0 + 1e-6)))


@criterion(6, "entanglement: zero start, revival dip values, gamma-independent steady plateau")
def test_criterion_6_entanglement():
    published = EntanglementVariant.PUBLISHED
    subsystem = EntanglementVariant.SUBSYSTEM

    for variant in (published, subsystem):
        assert entanglement_entropy(CANONICAL, 0.0, variant) == pytest.approx(0.0, abs=1e-12)

    # at the revival instant both populations coincide at (1 - e^{-pi/4})/4,
    # whose 6-figure rounding is the quoted 0.136015
    t_star = math.pi / (2.0 * CANONICAL.omega)
    p_ref = (1.0 - math.exp(-math.pi / 4.0)) / 4.0
    p_plus = float(population_from_excited(CANONICAL, t_star))
    p_minus = float(population_from_ground(CANONICAL, t_star))
    assert abs(p_plus - p_minus) <= 1e-9
    assert abs(p_plus - p_ref) <= 1e-9
    assert f"{p_ref:.6f}" == "0.136015"

    # the two-population form evaluates to -2 p log2 p there; the quoted
    # 0.78297 is a low-precision rounding of this frozen value
    e_star = entanglement_entropy(CANONICAL, t_star, published)
    assert abs(e_star - E_PUBLISHED_T_STAR) <= 1e-5
    assert abs(e_star - (-2.0 * p_ref * math.log2(p_ref))) <= 1e-12
    assert abs(e_star - 0.78297) <= 5e-5

    # sampled over one beat, the distance bottoms out exactly at the revival
    # row and the entanglement dips in the surrounding quarter-beat window
    t = np.linspace(0.0, 2.0 * math.pi / CANONICAL.omega, 81)
    assert t[20] == pytest.approx(t_star, rel=1e-12)
    d = np.asarray(trace_distance_pair(CANONICAL, t))
    assert d[20] < d[19] and d[20] < d[21]
    assert d[20] == np.min(d)
    e = np.asarray(entanglement_entropy(CANONICAL, t, published))
    dip = int(np.argmin(e[10:31])) + 10
    assert 10 < dip < 30
    assert abs(t[dip] - t_star) <= math.pi / (4.0 * CANONICAL.omega)

    # steady plateau: value by variant, independent of gamma
    for variant, plateau in ((published, 1.0), (subsystem, 0.811278)):
        values = []
        for gamma in (0.1, 0.2, 0.5):
            params = ModelParams(gamma, 0.5, 0.8)
            values.append(
                float(entanglement_entropy(params, 30.0 / params.relaxation_rate, variant))
            )
        assert all(abs(v - plateau) <= 1e-4 for v in values)
        assert max(values) - min(values) <= 1e-4
        assert abs(steady_entanglement(0.5, variant) - plateau) <= 1e-4


@criterion(7, "published-formula defect b(0)=1.5 reproduced, derived b(0)=1, and self-check documents it")
def test_criterion_7_published_discrepancy(validate_cli_run):
    pub = propagate_xstate_published(XSTATE_10, CANONICAL, 0.0)
    exact = propagate_xstate_exact(XSTATE_10, CANONICAL, 0.0)
    assert abs(pub.b - 1.5) <= 1e-12
    assert abs(exact.b - 1.0) <= 1e-12

    assert validate_cli_run.returncode == 0
    out = validate_cli_run.stdout
    assert "[PASS] published-solution-discrepancy" in out
    assert "published.b(0)|t=0,b0=1 -> 1.5 (expected 1)" in out


@criterion(8, "integrator samples physical within stated slacks; steady state is the thermal product")
def test_criterion_8_physical_invariants(grid_runs):
    for params, x0, traj in grid_runs:
        assert traj.max_hermiticity_defect <= 1e-12
        assert traj.max_trace_drift <= 1e-10
        for rho in traj.samples:
            assert float(hermitian_eigenvalues(rho)[-1]) >= -1e-9

    for params in parameter_grid():
        th = thermal_xstate(params)
        late = propagate_xstate_exact(GENERIC_XSTATE, params, 30.0 / params.relaxation_rate)
        assert max(
            abs(late.a - th.a), abs(late.b - th.b), abs(late.c - th.c),
            abs(late.d - th.d), abs(late.z), abs(late.w),
        ) <= 1e-10

    end = 30.0 / CANONICAL.relaxation_rate
    traj = integrate_master(
        embed_xstate(XSTATE_10), CANONICAL, np.array([0.0, end])
    )
    assert np.max(np.abs(traj.samples[-1] - embed_xstate(thermal_xstate(CANONICAL)))) <= 1e-10


@criterion(9, "repeated CLI runs are byte-identical and `validate` exits 0")
def test_criterion_9_cli_determinism(tmp_path, validate_cli_run):
    cases = {
        "trace": ["trace-distance", "--t-max", "6", "--steps", "13"],
        "sweep": ["sweep", "--param", "m", "--from", "0", "--to", "2",
                  "--points", "3", "--t-max", "4", "--steps", "9"],
        "blp": ["blp", "--t-max", "30"],
        "entangle": ["entanglement", "--t-max", "6", "--steps", "13"],
        "family": ["entanglement", "--gammas", "0.1,0.5", "--t-max", "4",
                   "--steps", "9"],
    }
    for name, args in cases.items():
        first = tmp_path / f"{name}-1.csv"
        second = tmp_path / f"{name}-2.csv"
        for target in (first, second):
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "qmemory", *args, "--out", str(target)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert filecmp.cmp(first, second, shallow=False), f"{name} runs differ"

    assert validate_cli_run.returncode == 0
