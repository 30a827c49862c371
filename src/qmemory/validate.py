"""Self-validation: every closed form cross-checked against the numeric route.

Each check pits two independent computations of the same quantity against
each other (exact propagator vs Runge-Kutta integration, population formulas
vs partial-traced integrator states, analytic distance rate vs finite
differences, interval-sum memory measure vs a fine Riemann sum of the
positive part of sigma, ...).  That Riemann sum evaluates sigma from its own
complex-exponential identity, block by block from tables built once per
call, and does not call :func:`~qmemory.nonmarkov.trace_distance_rate`.  The
distance check evaluates both routes over its 1000 random parameter draws
as one :class:`~qmemory.dynamics.ParamFamily`, in one array pass.  The
exact, populations, semigroup and steady-state checks evaluate the 27-point
parameter grid (or the semigroup's 50 draws from it) as families too: one
integrator call and one propagator call each, whose every member equals its
own call bit for bit, and whose first failure is the one a loop over the
members raises first.  The stationarity check applies the 27 generators to
their thermal states in one stacked product.  One check is special: the
verbatim transcription of the published closed-form solution is *expected*
to disagree with the derived propagator in specific, frozen ways (see ``published-solution-discrepancy``); that check passes when
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
    ParamFamily,
    XSTATE_00,
    XSTATE_10,
    _generators,
    _integrate,
    integrate_master,
    parameter_grid,
    population_from_excited,
    population_from_ground,
    propagate_exact,
    propagate_xstate_exact,
    propagate_xstate_published,
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

# The grid of the three integrator-backed checks: spans of exactly 0.5, so
# each block of members builds one step-matrix power list.
_CHECK_TIMES = np.linspace(0.0, 10.0, 21)

# Points per block of the Riemann sum: its three tables and two buffers take
# 1.3 MB, however long the truncation time.
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


@functools.cache
def _grid_columns() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gamma, m and omega of :func:`~qmemory.dynamics.parameter_grid`, one
    read-only array each, in its order."""
    grid = parameter_grid()
    columns = tuple(np.array([getattr(p, name) for p in grid]) for name in ("gamma", "m", "omega"))
    for v in columns:
        v.setflags(write=False)
    return columns


def _grid_family(index=slice(None), *, column: bool = False) -> ParamFamily:
    """The grid members ``index`` as a 1-D family, or as a column (shape
    ``(P, 1)``) whose members broadcast against a row of times."""
    return ParamFamily(*(v[index, None] if column else v[index] for v in _grid_columns()))


@functools.cache
def _grid_thermal_states() -> np.ndarray:
    """The thermal fixed point of every grid member, ``(27, 4, 4)``."""
    states = np.array([embed_xstate(thermal_xstate(p)) for p in parameter_grid()])
    states.setflags(write=False)
    return states


def _samples(trajectories) -> np.ndarray:
    """The members' samples as one ``(P, n, 4, 4)`` array."""
    return np.array([traj.samples for traj in trajectories])


# The family checks call ``_integrate``, the body of ``integrate_master``,
# directly: the benchmark's tracer wraps ``integrate_master`` and reads its
# result as one member's trajectory.
def _check_exact_vs_integrator(max_step):
    tol = 1e-8
    trajectories = _integrate(_generic_state(), _grid_family(), _CHECK_TIMES, max_step)
    exact = propagate_exact(_generic_state(), _grid_family(column=True), trajectories[0].times)
    worst = float(np.max(np.abs(_samples(trajectories) - exact)))
    return worst <= tol, f"worst |rho_rk4 - rho_exact| = {worst:.3e} (tol {tol:.0e})", ()


def _check_populations(max_step):
    tol = 1e-8
    # every grid member from |10>, then from |00>: the failure order of a
    # loop over the members and, within one, the two states
    size = _grid_columns()[0].size
    starts = np.tile([embed_xstate(XSTATE_10), embed_xstate(XSTATE_00)], (size, 1, 1))
    trajectories = _integrate(
        starts, _grid_family(np.repeat(np.arange(size), 2)), _CHECK_TIMES, max_step)
    numeric = partial_trace_qubit2(_samples(trajectories).reshape(-1, 4, 4))[:, 0, 0].real
    family, times = _grid_family(column=True), trajectories[0].times
    formulas = np.stack(
        [population_from_excited(family, times), population_from_ground(family, times)], axis=1)
    worst = float(np.max(np.abs(numeric - formulas.ravel())))
    return worst <= tol, f"worst |p_traced - p_formula| = {worst:.3e} (tol {tol:.0e})", ()


def _check_distance_closed_form():
    tol = 1e-12
    # 1000 rows of (gamma, m, omega, t), drawn in row order
    rows = np.random.default_rng(RNG_SEED).uniform(
        [0.05, 0.0, 0.0, 0.0], [1.0, 3.0, 1.5, 20.0], size=(1000, 4))
    family = ParamFamily(gamma=rows[:, 0], m=rows[:, 1], omega=rows[:, 2])
    t = rows[:, 3]
    worst = float(np.max(np.abs(
        trace_distance_pair(family, t) - trace_distance_closed_form(family, t))))
    return worst <= tol, f"worst |D_pair - D_closed| = {worst:.3e} (tol {tol:.0e})", ()


def _check_distance_rate():
    tol = 1e-8
    h = 1e-6
    t = np.linspace(h, 10.0, 50)
    worst = 0.0
    for params in (CANONICAL_PARAMS, ModelParams(0.5, 2.0, 0.3), ModelParams(0.1, 0.0, 1.2)):
        fd = (
            trace_distance_closed_form(params, t + h) - trace_distance_closed_form(params, t - h)
        ) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(fd - trace_distance_rate(params, t)))))
    return worst <= tol, f"worst |sigma_fd - sigma| = {worst:.3e} (tol {tol:.0e})", ()


def _sigma_blocks(params: ModelParams, dt: float):
    """sigma on the grid ``np.arange(0, default_truncation_time(params), dt)``,
    in consecutive blocks of at most :data:`_RIEMANN_BLOCK` points.

    Computed from its own identity, not by :func:`trace_distance_rate`:
    ``sigma(t) = -(R/2) e^{-Rt} - Re[(R/2 - i omega) e^{(-R + 2i omega) t}]``
    with ``R = gamma (1 + 2m)``.  Three tables over one block's offsets
    ``j dt`` (``e^{-R j dt}``, and it times ``cos`` and ``sin`` of ``2 omega
    j dt``) are built once; each block's start ``t0`` enters through one
    ``exp``, ``cos`` and ``sin`` of its own, so no error carries from block to
    block.  Each yielded block is a view into one buffer that the next block
    overwrites.
    """
    n = math.ceil(default_truncation_time(params) / dt)
    size = min(n, _RIEMANN_BLOCK)
    rate, frequency = params.relaxation_rate, 2.0 * params.omega
    # the tables, built in place: e^{-R j dt}, and it times cos and sin
    decay = np.arange(size, dtype=float)
    decay *= dt
    decay_cos = decay * frequency
    decay_sin = np.sin(decay_cos)
    np.cos(decay_cos, out=decay_cos)
    decay *= -rate
    np.exp(decay, out=decay)
    decay_cos *= decay
    decay_sin *= decay
    sigma, term = np.empty(size), np.empty(size)
    for i in range(0, n, size):
        k = min(size, n - i)
        t0 = i * dt
        envelope = math.exp(-rate * t0)
        start = complex(0.5 * rate, -params.omega) * complex(
            envelope * math.cos(frequency * t0), envelope * math.sin(frequency * t0))
        out, tmp = sigma[:k], term[:k]
        np.multiply(decay[:k], -0.5 * rate * envelope, out=out)
        out += np.multiply(decay_cos[:k], -start.real, out=tmp)
        out += np.multiply(decay_sin[:k], start.imag, out=tmp)
        yield out


def _riemann_measure(params: ModelParams, dt: float) -> float:
    """``dt`` times the sum of ``max(sigma, 0)`` over the grid
    ``np.arange(0, default_truncation_time(params), dt)``, block by block
    (see :func:`_sigma_blocks`)."""
    sums = []
    for sigma in _sigma_blocks(params, dt):
        np.maximum(sigma, 0.0, out=sigma)
        sums.append(float(sigma.sum()))
    return math.fsum(sums) * dt


def _check_measure_riemann():
    # the Riemann sum's own error: 9.8e-10 here, about 1e-8 at worst over
    # ten points of the parameter space
    rel_tol = 1e-7
    params = CANONICAL_PARAMS
    result = blp_measure(params)
    riemann = _riemann_measure(params, 1e-4)
    rel = abs(result.n_value - riemann) / riemann
    return (
        rel <= rel_tol,
        f"interval sum {result.n_value:.8f} vs Riemann {riemann:.8f} (rel {rel:.2e})",
        (),
    )


def _thermal_residuals() -> np.ndarray:
    """``L(rho_thermal)`` of every grid member, ``(27, 4, 4)``: each member's
    generator applied to its vectorized thermal state, in one stacked product."""
    generators = _generators(*(v[:, None, None] for v in _grid_columns()))
    return (generators @ _grid_thermal_states().reshape(-1, 16, 1)).reshape(-1, 4, 4)


def _check_stationarity():
    tol = 1e-12
    worst = float(np.max(np.abs(_thermal_residuals())))
    return worst <= tol, f"worst |L(rho_thermal)| = {worst:.3e} (tol {tol:.0e})", ()


def _check_semigroup():
    tol = 1e-11
    rng = np.random.default_rng(RNG_SEED + 1)
    draws = [(int(rng.integers(len(_grid_columns()[0]))), float(rng.uniform(0.0, 5.0)),
              float(rng.uniform(0.0, 5.0))) for _ in range(50)]
    index, t, s = (np.array(v) for v in zip(*draws))
    family = _grid_family(index, column=True)
    first, direct = np.moveaxis(
        propagate_exact(_generic_state(), family, np.column_stack([t, t + s])), 1, 0)
    staged = propagate_exact(first[:, None], family, s[:, None])[:, 0]
    worst = float(np.max(np.abs(direct - staged)))
    return worst <= tol, f"worst semigroup defect = {worst:.3e} (tol {tol:.0e})", ()


def _check_steady(max_step):
    tol = 1e-10
    family = _grid_family()
    final = propagate_exact(
        embed_xstate(GENERIC_XSTATE), family, default_truncation_time(family))
    worst = float(np.max(np.abs(final - _grid_thermal_states())))
    # One full numeric integration to its steady state as well.
    params = CANONICAL_PARAMS
    t_end = default_truncation_time(params)
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
    traj = integrate_master(embed_xstate(XSTATE_10), params, _CHECK_TIMES, max_step=max_step)
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
            value = entanglement_entropy(p, default_truncation_time(p), variant)
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
