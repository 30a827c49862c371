"""Trace-distance non-Markovianity of the watched atom.

The canonical witness pair starts the two atoms in ``|10>`` and ``|00>``.  For
that pair the reduced states of atom 1 stay diagonal, so the trace distance is
a population difference and collapses to the closed form

    D(t) = exp(-gamma (1 + 2m) t) * cos^2(omega t),

verified against the two-population route to 1e-12 by the test suite.  The
memory measure accumulates D over its intervals of increase, which are known
exactly: D rises from each zero ``t_k = (pi/2 + k pi) / omega`` to the next
peak ``s_k = (pi - atan(R / 2 omega) + k pi) / omega``, ``R = gamma (1 + 2m)``.
The measure is zero exactly when the exchange coupling vanishes and grows
monotonically with it.

For arbitrary product-state pairs (the maximizer) no closed form exists; the
difference of the two full states is evolved through the eigendecomposition of
the 16x16 generator and the sampled distance curve is analyzed directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import (
    ModelParams,
    population_from_excited,
    population_from_ground,
    superoperator,
)
from .errors import InvalidGridError, InvariantViolation

MARKOVIAN = "Markovian"
NON_MARKOVIAN = "NonMarkovian"

CANONICAL_PAIR_LABEL = "|10>/|00>"

# Largest number of increase intervals the canonical measure will build.
MAX_INTERVALS = 100_000
# Time localization of the maximizer's interval endpoints.
_BISECT_TOL = 1e-10
# Sampled-curve rises below this are float noise, not information backflow.
_GAIN_FLOOR = 1e-12
# Relative accuracy demanded of the generator eigendecomposition.
_MODES_RTOL = 1e-9


def default_scan_step(params: ModelParams) -> float:
    """Maximizer sampling step: 1e-2 of the fastest time scale in the problem."""
    return 0.01 / max(params.omega, params.relaxation_rate)


def default_truncation_time(params: ModelParams) -> float:
    """Truncation ``30 / (gamma (1 + 2m))``: the envelope is below 1e-13 there."""
    return 30.0 / params.relaxation_rate


@dataclass(frozen=True)
class IncreaseInterval:
    """One maximal interval on which the trace distance increases."""

    t_start: float
    t_end: float
    gain: float

    def __post_init__(self) -> None:
        if not (self.t_start < self.t_end):
            raise InvariantViolation(
                f"interval endpoints out of order: [{self.t_start!r}, {self.t_end!r}]"
            )
        if self.gain < 0:
            raise InvariantViolation(f"interval gain must be nonnegative, got {self.gain!r}")


@dataclass(frozen=True)
class BlpResult:
    """Accumulated memory measure with its supporting intervals.

    ``n_value`` is exactly the sum of interval gains; ``tail_bound`` bounds
    whatever the truncation at ``truncation_time`` can have missed.
    """

    n_value: float
    intervals: tuple
    pair_label: str
    truncation_time: float
    tail_bound: float

    def __post_init__(self) -> None:
        total = math.fsum(iv.gain for iv in self.intervals)
        if abs(self.n_value - total) > 1e-12:
            raise InvariantViolation(
                f"n_value {self.n_value!r} differs from interval-gain sum {total!r}"
            )
        if self.n_value < 0 or self.tail_bound < 0 or self.truncation_time <= 0:
            raise InvariantViolation("n_value/tail_bound/truncation_time out of range")


@dataclass(frozen=True)
class Classification:
    """Threshold-relative verdict: ``regime`` is Markovian iff n_value <= eps."""

    regime: str
    n_value: float
    eps: float
    result: BlpResult


# --- canonical pair: closed forms -------------------------------------------

def trace_distance_pair(params: ModelParams, t):
    """Trace distance of the reduced atom-1 states for the ``|10>``/``|00>`` pair.

    Computed by the population route ``(|p+ - p-| + |q+ - q-|) / 2`` with
    ``q = 1 - p``; accepts scalar or array ``t``.
    """
    p_plus = population_from_excited(params, t)
    p_minus = population_from_ground(params, t)
    q_plus = 1.0 - np.asarray(p_plus)
    q_minus = 1.0 - np.asarray(p_minus)
    value = 0.5 * (np.abs(np.asarray(p_plus) - p_minus) + np.abs(q_plus - q_minus))
    return float(value) if np.asarray(t, dtype=float).ndim == 0 else value


def trace_distance_closed_form(params: ModelParams, t):
    """Algebraically simplified form of the same distance: envelope times cos^2."""
    tt = np.asarray(t, dtype=float)
    value = np.exp(-params.relaxation_rate * tt) * np.cos(params.omega * tt) ** 2
    return float(value) if tt.ndim == 0 else value


def trace_distance_rate(params: ModelParams, t):
    """Analytic d/dt of the closed-form distance (the backflow witness sigma).

    Positive values mark information flowing back to the watched atom;
    ``sigma(0) = -gamma (1 + 2m)`` always.
    """
    tt = np.asarray(t, dtype=float)
    rate = params.relaxation_rate
    value = -np.exp(-rate * tt) * (
        rate * np.cos(params.omega * tt) ** 2
        + params.omega * np.sin(2.0 * params.omega * tt)
    )
    return float(value) if tt.ndim == 0 else value


# --- increase intervals ------------------------------------------------------

def blp_measure(
    params: ModelParams,
    dt: float | None = None,
    t_max: float | None = None,
) -> BlpResult:
    """Memory measure for the canonical pair from its exact increase intervals.

    D rises on ``[t_k, s_k]`` (see the module docstring); every interval with
    ``t_k < t_max`` contributes ``D(min(s_k, t_max)) - D(t_k)``.  The tail
    bound is the envelope value ``exp(-gamma (1 + 2m) t_max)``, which D can
    never exceed.  ``dt`` is validated but has no effect: the intervals need
    no sampling.  Raises :class:`InvalidGridError` when ``[0, t_max]`` holds
    more than :data:`MAX_INTERVALS` intervals.
    """
    if t_max is None:
        t_max = default_truncation_time(params)
    dt_ok = dt is None or (dt > 0 and math.isfinite(dt))
    if not (dt_ok and t_max > 0 and math.isfinite(t_max)):
        raise InvalidGridError(f"dt and t_max must be positive and finite, got {dt!r}, {t_max!r}")
    omega = params.omega
    approx_count = omega * t_max / math.pi
    if not (math.isfinite(approx_count) and approx_count <= MAX_INTERVALS):
        raise InvalidGridError(
            f"[0, t_max={t_max!r}] holds about {approx_count:.3g} increase intervals "
            f"(omega * t_max / pi), above the limit of {MAX_INTERVALS} intervals"
        )

    k = np.arange(math.ceil(approx_count), dtype=float)
    starts = (0.5 * math.pi + k * math.pi) / omega
    starts = starts[starts < t_max]
    peak_phase = math.pi - math.atan2(params.relaxation_rate, 2.0 * omega)
    ends = np.minimum((peak_phase + k[: starts.size] * math.pi) / omega, t_max)
    gains = np.maximum(
        trace_distance_closed_form(params, ends) - trace_distance_closed_form(params, starts),
        0.0,
    )
    intervals = tuple(
        IncreaseInterval(t_start=a, t_end=b, gain=g)
        for a, b, g in zip(starts.tolist(), ends.tolist(), gains.tolist())
    )
    return BlpResult(
        n_value=math.fsum(iv.gain for iv in intervals),
        intervals=intervals,
        pair_label=CANONICAL_PAIR_LABEL,
        truncation_time=float(t_max),
        tail_bound=math.exp(-params.relaxation_rate * t_max),
    )


def first_revival_time(params: ModelParams) -> float | None:
    """First time the distance rate flips from nonpositive to positive.

    ``None`` when the exchange coupling is zero (monotone decay); otherwise
    ``pi / (2 omega)``, where the distance touches zero.
    """
    return None if params.omega == 0.0 else math.pi / (2.0 * params.omega)


def classify_dynamics(
    params: ModelParams,
    eps: float = 1e-3,
    t_max: float | None = None,
) -> Classification:
    """Classify against a threshold: NonMarkovian iff ``n_value > eps``."""
    if not (eps >= 0 and math.isfinite(eps)):
        raise InvariantViolation(f"eps must be finite and nonnegative, got {eps!r}")
    result = blp_measure(params, t_max=t_max)
    regime = NON_MARKOVIAN if result.n_value > eps else MARKOVIAN
    return Classification(regime=regime, n_value=result.n_value, eps=eps, result=result)


# --- arbitrary product pairs (maximizer) -------------------------------------

@lru_cache(maxsize=16)
def _liouvillian_modes(params: ModelParams):
    """Eigendecomposition of the 16x16 generator, with a reconstruction check.

    The generator is diagonalizable throughout the tested parameter space
    (identical local baths plus symmetric exchange); if a parameter set ever
    produced a defective generator this raises rather than silently degrading.
    """
    liouv = superoperator(params)
    lam, vec = np.linalg.eig(liouv)
    vec_inv = np.linalg.inv(vec)
    scale = max(1.0, float(np.max(np.abs(liouv))))
    residual = float(np.max(np.abs(vec @ np.diag(lam) @ vec_inv - liouv)))
    if residual > _MODES_RTOL * scale:
        raise RuntimeError(
            f"generator eigendecomposition residual {residual:.3e} exceeds "
            f"{_MODES_RTOL:.0e} x scale; generator may be defective at {params}"
        )
    for arr in (lam, vec, vec_inv):
        arr.setflags(write=False)
    return lam, vec, vec_inv


def _partial_trace_map() -> np.ndarray:
    """4x16 matrix taking vec(rho4) row-major to vec(reduced rho2)."""
    pmap = np.zeros((4, 16))
    for i in range(2):
        for j in range(2):
            for s in range(2):
                pmap[2 * i + j, 4 * (2 * i + s) + (2 * j + s)] = 1.0
    return pmap


_PTRACE = _partial_trace_map()
_PTRACE.setflags(write=False)


def bloch_polar_state(theta: float) -> np.ndarray:
    """Single-atom pure state at polar angle ``theta``, azimuth 0.

    ``theta = 0`` is the excited state, ``theta = pi`` the ground state; the
    amplitudes are real.
    """
    amp = np.array([math.cos(0.5 * theta), math.sin(0.5 * theta)])
    return np.outer(amp, amp).astype(complex)


def _reduced_distance(red: np.ndarray) -> np.ndarray:
    """Trace distance values from vectorized 2x2 reduced differences (4 x T)."""
    mean = 0.5 * (red[0] + red[3]).real
    half_gap = 0.5 * (red[0] - red[3]).real
    radius = np.sqrt(half_gap**2 + np.abs(red[1]) ** 2)
    return 0.5 * (np.abs(mean + radius) + np.abs(mean - radius))


def _mode_tail_bound(params: ModelParams, coeff: np.ndarray, vec: np.ndarray,
                     lam: np.ndarray, t_max: float) -> float:
    """Bound on gains past ``t_max`` for a general pair, from generator modes.

    Mode-wise: ||delta(t)||_1 <= sum_i |c_i| ||v_i||_1 e^{Re lam_i t}; future
    peaks of the reduced distance are below half of that, recurring no more
    often than the revival spacing, so a geometric sum with the slowest
    nonzero rate bounds the total.
    """
    live = -lam.real > 1e-12
    if not np.any(live):
        return 0.0
    norms = np.array([
        float(np.sum(np.linalg.svd(vec[:, i].reshape(4, 4), compute_uv=False)))
        for i in range(16)
    ])
    amplitude = 0.5 * float(
        np.sum(np.abs(coeff[live]) * norms[live] * np.exp(lam.real[live] * t_max))
    )
    gap = float(np.min(-lam.real[live]))
    if params.omega > 0.0:
        spacing = math.pi / (2.0 * params.omega)
        return amplitude / max(1.0 - math.exp(-gap * spacing), 1e-15)
    return amplitude


def _scan_grid(dt: float, t_max: float) -> np.ndarray:
    grid = np.arange(0.0, t_max, dt)
    return np.append(grid, t_max)


def _pair_curve(params: ModelParams, delta0: np.ndarray, mode_factors: np.ndarray):
    """Distance curve of a pair difference plus a point evaluator.

    ``mode_factors`` is ``exp(outer(lam, grid))``, shared by every pair.
    """
    lam, vec, vec_inv = _liouvillian_modes(params)
    coeff = vec_inv @ delta0.reshape(16)
    evolved = vec @ (mode_factors * coeff[:, None])
    dvals = _reduced_distance(_PTRACE @ evolved)

    def at(t: float) -> float:
        state = vec @ (np.exp(lam * t) * coeff)
        return float(_reduced_distance((_PTRACE @ state)[:, None])[0])

    return dvals, at, coeff


def _discrete_intervals(dvals: np.ndarray):
    """Index ranges (i, j) of maximal strictly increasing runs of a curve."""
    rising = np.diff(dvals) > 0.0
    runs = []
    i = 0
    while i < rising.size:
        if rising[i]:
            j = i
            while j < rising.size and rising[j]:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


def _refine_extremum(f, lo: float, hi: float, mode: str) -> float:
    """Ternary search for a local extremum of ``f`` inside [lo, hi]."""
    want_min = mode == "min"
    while hi - lo > _BISECT_TOL:
        third = (hi - lo) / 3.0
        f1, f2 = f(lo + third), f(hi - third)
        if (f1 <= f2) == want_min:
            hi = hi - third
        else:
            lo = lo + third
    return 0.5 * (lo + hi)


def blp_measure_maximized(
    params: ModelParams,
    grid_size: int = 5,
    dt: float | None = None,
    t_max: float | None = None,
) -> BlpResult:
    """Maximize the memory measure over product-state pairs.

    Candidates are all unordered pairs of ``|s(th1)> x |s(th2)>`` with both
    angles on a ``grid_size``-point polar grid (azimuth 0), plus always the
    canonical ``|10>``/``|00>`` pair (evaluated analytically).  Ties are broken
    toward the lexicographically smallest pair label.  The winner's interval
    endpoints are refined by ternary search on the sampled distance curve;
    rises below 1e-12 are discarded as float noise, so fully divisible
    dynamics reports exactly 0.
    """
    if grid_size < 2:
        raise InvariantViolation(f"grid_size must be at least 2, got {grid_size!r}")
    if dt is None:
        dt = default_scan_step(params)
    if t_max is None:
        t_max = default_truncation_time(params)
    if not (dt > 0 and t_max > 0 and math.isfinite(dt) and math.isfinite(t_max)):
        raise InvalidGridError(f"dt and t_max must be positive and finite, got {dt!r}, {t_max!r}")

    thetas = np.linspace(0.0, math.pi, grid_size)
    states = []
    for th1 in thetas:
        for th2 in thetas:
            label = f"theta({th1:.4f},{th2:.4f})"
            states.append(((float(th1), float(th2)), label,
                           np.kron(bloch_polar_state(th1), bloch_polar_state(th2))))

    canonical_angles = {((0.0, math.pi), (math.pi, math.pi))}
    grid = _scan_grid(dt, t_max)
    mode_factors = np.exp(np.outer(_liouvillian_modes(params)[0], grid))

    candidates = [(blp_measure(params, t_max=t_max), None)]
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            (ang_a, lab_a, rho_a), (ang_b, lab_b, rho_b) = states[i], states[j]
            if (ang_a, ang_b) in canonical_angles:
                continue  # identical to the canonical pair, already included
            dvals, at, coeff = _pair_curve(params, rho_a - rho_b, mode_factors)
            gains = [
                float(dvals[hi] - dvals[lo]) for lo, hi in _discrete_intervals(dvals)
            ]
            n_est = math.fsum(g for g in gains if g > _GAIN_FLOOR)
            candidates.append((n_est, (f"{lab_a}/{lab_b}", rho_a - rho_b, coeff)))

    def sort_key(entry):
        value, payload = entry
        n = value.n_value if isinstance(value, BlpResult) else value
        label = CANONICAL_PAIR_LABEL if payload is None else payload[0]
        return (-n, label)

    candidates.sort(key=sort_key)
    best_value, best_payload = candidates[0]

    if best_payload is None:
        return best_value  # canonical pair wins; analytic result already exact

    label, delta0, coeff = best_payload
    dvals, at, _ = _pair_curve(params, delta0, mode_factors)
    intervals = []
    for lo, hi in _discrete_intervals(dvals):
        if lo == 0:
            t_start = float(grid[0])
        else:
            t_start = _refine_extremum(
                at, float(grid[lo - 1]), float(grid[min(lo + 1, grid.size - 1)]), "min"
            )
        if hi == grid.size - 1:
            t_end = float(grid[-1])
        else:
            t_end = _refine_extremum(
                at, float(grid[hi - 1]), float(grid[hi + 1]), "max"
            )
        gain = at(t_end) - at(t_start)
        if gain > _GAIN_FLOOR:
            intervals.append(IncreaseInterval(t_start=t_start, t_end=t_end, gain=gain))

    lam, vec, _ = _liouvillian_modes(params)
    return BlpResult(
        n_value=math.fsum(iv.gain for iv in intervals),
        intervals=tuple(intervals),
        pair_label=label,
        truncation_time=float(t_max),
        tail_bound=_mode_tail_bound(params, coeff, vec, lam, float(t_max)),
    )
