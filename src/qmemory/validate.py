"""Self-validation: every closed form cross-checked against the numeric route.

Each check pits two independent computations of the same quantity against
each other (exact propagator vs Runge-Kutta integration, population formulas
vs partial-traced integrator states, analytic distance rate vs finite
differences, interval-sum memory measure vs a fine Riemann sum, ...).  One
check is special: the verbatim transcription of the published closed-form
solution is *expected* to disagree with the derived propagator in specific,
frozen ways (see ``published-solution-discrepancy``); that check passes when
the disagreement is exactly the documented one.

``run_validation(max_step=...)`` exists so a test harness can deliberately
degrade the integrator step and confirm the oracle checks actually fail.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .densmat import (
    XState,
    embed_xstate,
    partial_trace_qubit2,
    von_neumann_entropy,
)
from .dynamics import (
    ModelParams,
    XSTATE_00,
    XSTATE_10,
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
)
from .entangle import EntanglementVariant, entanglement_entropy, steady_entanglement
from .errors import QmemoryError
from .nonmarkov import (
    blp_measure,
    default_truncation_time,
    trace_distance_closed_form,
    trace_distance_pair,
    trace_distance_rate,
)

RNG_SEED = 20260824

# A fully generic valid X-form state: all six degrees of freedom nonzero.
GENERIC_XSTATE = XState(
    a=0.35, b=0.30, c=0.20, d=0.15, z=0.10 + 0.05j, w=0.05 - 0.02j
)

CANONICAL_PARAMS = ModelParams(gamma=0.2, m=0.5, omega=0.8)

_CHECK_TIMES = np.linspace(0.0, 10.0, 20)

# Points per block of the streamed Riemann sum: a few hundred kB of
# temporaries, however long the truncation time.
_RIEMANN_BLOCK = 1 << 15


@functools.cache
def _generic_state() -> np.ndarray:
    """A fixed full-rank state outside the X family: GENERIC_XSTATE mixed half
    and half with a pure state whose amplitudes are all nonzero, so that every
    coherence sector k = -2..2 is populated.  Built on first use, so that
    importing the package runs no eigensolve."""
    pure = np.array([0.5, 0.4 + 0.3j, -0.3 + 0.2j, 0.6])
    state = 0.5 * embed_xstate(GENERIC_XSTATE) + 0.5 * np.outer(
        pure, pure.conj()) / np.vdot(pure, pure).real
    state.setflags(write=False)
    return state


def __getattr__(name: str):
    if name == "GENERIC_STATE":
        return _generic_state()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named cross-check; ``table`` carries report rows."""

    name: str
    passed: bool
    detail: str
    table: tuple = ()


def _check_exact_vs_integrator(max_step):
    tol = 1e-8
    worst = 0.0
    for params in parameter_grid():
        traj = integrate_master(_generic_state(), params, _CHECK_TIMES, max_step=max_step)
        exact = propagate_exact(_generic_state(), params, traj.times)
        worst = max(worst, float(np.max(np.abs(np.array(traj.samples) - exact))))
    return worst <= tol, f"worst |rho_rk4 - rho_exact| = {worst:.3e} (tol {tol:.0e})", ()


def _check_populations(max_step):
    tol = 1e-8
    worst = 0.0
    for params in parameter_grid():
        for x0, formula in (
            (XSTATE_10, population_from_excited),
            (XSTATE_00, population_from_ground),
        ):
            traj = integrate_master(embed_xstate(x0), params, _CHECK_TIMES, max_step=max_step)
            numeric = partial_trace_qubit2(np.array(traj.samples))[:, 0, 0].real
            worst = max(worst, float(np.max(np.abs(numeric - formula(params, traj.times)))))
    return worst <= tol, f"worst |p_traced - p_formula| = {worst:.3e} (tol {tol:.0e})", ()


def _check_distance_closed_form():
    tol = 1e-12
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(1000):
        params = ModelParams(
            gamma=float(rng.uniform(0.05, 1.0)),
            m=float(rng.uniform(0.0, 3.0)),
            omega=float(rng.uniform(0.0, 1.5)),
        )
        t = float(rng.uniform(0.0, 20.0))
        worst = max(
            worst,
            abs(trace_distance_pair(params, t) - trace_distance_closed_form(params, t)),
        )
    return worst <= tol, f"worst |D_pair - D_closed| = {worst:.3e} (tol {tol:.0e})", ()


def _check_distance_rate():
    tol = 1e-8
    h = 1e-6
    worst = 0.0
    for params in (CANONICAL_PARAMS, ModelParams(0.5, 2.0, 0.3), ModelParams(0.1, 0.0, 1.2)):
        for t in np.linspace(h, 10.0, 50):
            fd = (
                trace_distance_closed_form(params, t + h)
                - trace_distance_closed_form(params, t - h)
            ) / (2.0 * h)
            worst = max(worst, abs(fd - trace_distance_rate(params, float(t))))
    return worst <= tol, f"worst |sigma_fd - sigma| = {worst:.3e} (tol {tol:.0e})", ()


def _riemann_measure(params: ModelParams, dt: float) -> float:
    """``dt`` times the sum of ``max(sigma, 0)`` over the grid
    ``np.arange(0, default_truncation_time(params), dt)``, streamed in blocks
    of :data:`_RIEMANN_BLOCK` points (``dt * k`` is the grid's ``k``-th point)."""
    n = math.ceil(default_truncation_time(params) / dt)
    return math.fsum(
        float(np.sum(np.clip(
            trace_distance_rate(params, dt * np.arange(i, min(i + _RIEMANN_BLOCK, n))),
            0.0, None)))
        for i in range(0, n, _RIEMANN_BLOCK)
    ) * dt


def _check_measure_riemann():
    rel_tol = 0.01
    params = CANONICAL_PARAMS
    result = blp_measure(params)
    riemann = _riemann_measure(params, 1e-4)
    rel = abs(result.n_value - riemann) / riemann
    return (
        rel <= rel_tol,
        f"interval sum {result.n_value:.8f} vs Riemann {riemann:.8f} (rel {rel:.2e})",
        (),
    )


def _check_stationarity():
    tol = 1e-12
    worst = 0.0
    for params in parameter_grid():
        rho_th = embed_xstate(thermal_xstate(params))
        worst = max(worst, float(np.max(np.abs(lindblad_rhs(rho_th, params)))))
        liouv = superoperator(params)
        residual = float(np.max(np.abs(liouv @ rho_th.reshape(16))))
        worst = max(worst, residual)
    return worst <= tol, f"worst |L(rho_thermal)| = {worst:.3e} (tol {tol:.0e})", ()


def _check_semigroup():
    tol = 1e-11
    rng = np.random.default_rng(RNG_SEED + 1)
    grid = parameter_grid()
    worst = 0.0
    for _ in range(50):
        params = grid[int(rng.integers(len(grid)))]
        t, s = float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0))
        first, direct = propagate_exact(_generic_state(), params, np.array([t, t + s]))
        staged = propagate_exact(first, params, s)
        worst = max(worst, float(np.max(np.abs(direct - staged))))
    return worst <= tol, f"worst semigroup defect = {worst:.3e} (tol {tol:.0e})", ()


def _check_steady(max_step):
    tol = 1e-10
    worst = 0.0
    rho0 = embed_xstate(GENERIC_XSTATE)
    for params in parameter_grid():
        t_end = 30.0 / params.relaxation_rate
        final = propagate_exact(rho0, params, t_end)
        worst = max(worst, float(np.max(np.abs(final - embed_xstate(thermal_xstate(params))))))
    # One full numeric integration to its steady state as well.
    params = CANONICAL_PARAMS
    t_end = 30.0 / params.relaxation_rate
    traj = integrate_master(
        embed_xstate(XSTATE_10), params, np.array([0.0, t_end]), max_step=max_step
    )
    rho_th = embed_xstate(thermal_xstate(params))
    worst = max(worst, float(np.max(np.abs(traj.samples[-1] - rho_th))))
    return worst <= tol, f"worst |steady - thermal| = {worst:.3e} (tol {tol:.0e})", ()


def _check_published_discrepancy():
    tol = 1e-12
    params = CANONICAL_PARAMS
    pub = propagate_xstate_published(XSTATE_10, params, 0.0)
    exact = propagate_xstate_exact(XSTATE_10, params, 0.0)
    expected_d = (2.0 * params.m + 2.0) / (1.0 + 2.0 * params.m) ** 2
    rows = (
        ("published.b(0)|t=0,b0=1", pub.b, 1.5, exact.b),
        ("published.c(0)|t=0,c0=0", pub.c, -0.5, exact.c),
        ("published.d(0)|t=0,m=0.5,d0=0", pub.d, expected_d, exact.d),
    )
    table = []
    passed = True
    for label, got, frozen, derived in rows:
        row_ok = abs(got - frozen) <= tol and abs(got - derived) > 0.1
        passed = passed and row_ok
        display = derived if abs(derived) > 1e-12 else 0.0
        table.append(f"{label} -> {got:g} (expected {display:g})")
    detail = (
        "published closed form disagrees with the derived propagator exactly "
        "as documented" if passed else "published-formula defect NOT reproduced"
    )
    return passed, detail, tuple(table)


def _check_entanglement(max_step):
    tol_entropy = 1e-8
    tol_steady = 1e-4
    params = CANONICAL_PARAMS
    traj = integrate_master(
        embed_xstate(XSTATE_10), params, np.linspace(0.0, 10.0, 21), max_step=max_step
    )
    worst = 0.0
    for t, rho in zip(traj.times, traj.samples):
        s_numeric = von_neumann_entropy(partial_trace_qubit2(rho))
        s_closed = entanglement_entropy(params, float(t), EntanglementVariant.SUBSYSTEM)
        worst = max(worst, abs(s_numeric - s_closed))
    if worst > tol_entropy:
        return False, f"subsystem entropy mismatch {worst:.3e} (tol {tol_entropy:.0e})", ()
    # Decay-rate independence of the plateau, for both variants.
    worst_steady = 0.0
    for variant in EntanglementVariant:
        steady = steady_entanglement(0.5, variant)
        for gamma in (0.1, 0.2, 0.5):
            p = ModelParams(gamma=gamma, m=0.5, omega=0.8)
            value = entanglement_entropy(p, 30.0 / p.relaxation_rate, variant)
            worst_steady = max(worst_steady, abs(value - steady))
    return (
        worst_steady <= tol_steady,
        f"entropy oracle ok ({worst:.1e}); plateau gamma-spread {worst_steady:.1e}",
        (),
    )


def run_validation(max_step: float | None = None) -> tuple[CheckResult, ...]:
    """Run every cross-check; returns one :class:`CheckResult` per check.

    ``max_step`` caps the integrator step in the integrator-backed checks
    (``None`` keeps the accurate default policy).  A coarse cap is the
    intended negative control: it must make the oracle checks fail.
    """
    checks = (
        ("exact-propagator-vs-integrator", lambda: _check_exact_vs_integrator(max_step)),
        ("populations-vs-integrator", lambda: _check_populations(max_step)),
        ("distance-pair-vs-closed-form", _check_distance_closed_form),
        ("distance-rate-vs-finite-difference", _check_distance_rate),
        ("memory-measure-vs-riemann", _check_measure_riemann),
        ("thermal-state-stationarity", _check_stationarity),
        ("semigroup-property", _check_semigroup),
        ("steady-state-convergence", lambda: _check_steady(max_step)),
        ("published-solution-discrepancy", _check_published_discrepancy),
        ("entanglement-consistency", lambda: _check_entanglement(max_step)),
    )
    results = []
    for name, fn in checks:
        try:
            passed, detail, table = fn()
        except QmemoryError as exc:
            passed, detail, table = False, f"aborted: {exc}", ()
        results.append(CheckResult(name=name, passed=passed, detail=detail, table=tuple(table)))
    return tuple(results)
