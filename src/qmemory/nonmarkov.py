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

For arbitrary product-state pairs (the maximizer) no closed form is used: a
pair difference is traceless, so its reduced difference is
``[[r0, r1], [conj(r1), -r0]]`` and ``D = sqrt(r0^2 + |r1|^2)``, with both
rows read off the eigendecomposition of the 16x16 generator.  Every candidate's
curve is sampled in one batched contraction of ``exp(outer(t, lam))`` with the
pairs' mode coefficients, a block of pairs at a time, and its rises give an
estimate.  Refining a rise's endpoints can add at most a bound set by the
grid spacing and the curve's largest speed, so candidates are refined only
while their estimate plus bound can still reach the best refined value.  The
candidate pairs vary atom 2 as well; their maximum is not the BLP measure of
atom 1's dynamical map, which fixes the environment's initial state.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dynamics import (
    ModelParams,
    population_from_excited,
    population_from_ground,
    superoperator,
)
from .errors import InvalidGridError, InvariantViolation

logger = logging.getLogger(__name__)

MARKOVIAN = "Markovian"
NON_MARKOVIAN = "NonMarkovian"

CANONICAL_PAIR_LABEL = "|10>/|00>"

# Largest number of increase intervals the canonical measure will build.
MAX_INTERVALS = 100_000
# Largest polar grid the maximizer accepts; its cost grows as grid_size**4.
MAX_GRID_SIZE = 13
# Largest number of samples (t_max / dt) on one candidate distance curve.
MAX_SCAN_POINTS = 1_000_000
# Budget per block of pairs in the batched candidate pass, at 16 bytes per
# pair and time sample; it sets the memory, not the result.
_CHUNK_BYTES = 400_000
# Generator eigenvalues closer than this (relative) count as one mode.
_DEGENERACY_RTOL = 1e-12
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


class _Interval(NamedTuple):
    t_start: float
    t_end: float
    gain: float


class IncreaseInterval(_Interval):
    """One maximal interval on which the trace distance increases.

    An immutable named tuple rather than a frozen dataclass: a measure can
    hold up to :data:`MAX_INTERVALS` of them, and a tuple costs less than half
    as much to build.
    """

    __slots__ = ()

    def __new__(cls, t_start: float, t_end: float, gain: float):
        if not (t_start < t_end):
            raise InvariantViolation(f"interval endpoints out of order: [{t_start!r}, {t_end!r}]")
        if gain < 0:
            raise InvariantViolation(f"interval gain must be nonnegative, got {gain!r}")
        return super().__new__(cls, t_start, t_end, gain)


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
    gains = gains.tolist()
    intervals = tuple(map(IncreaseInterval, starts.tolist(), ends.tolist(), gains))
    return BlpResult(
        n_value=math.fsum(gains),
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


def _candidate_pairs(grid_size: int):
    """Labels and 16 x P matrix of vectorized differences of the candidate pairs.

    The states are ``|s(th1)> x |s(th2)>`` with both angles on a
    ``grid_size``-point polar grid; the pairs are the unordered ones, minus the
    one equal to the canonical pair.
    """
    thetas = np.linspace(0.0, math.pi, grid_size).tolist()
    angles = [(th1, th2) for th1 in thetas for th2 in thetas]
    states = np.array([
        np.kron(bloch_polar_state(th1), bloch_polar_state(th2)).reshape(16)
        for th1, th2 in angles
    ])
    first, second = np.triu_indices(len(angles), k=1)
    # (0, pi) vs (pi, pi) is |10> vs |00>, evaluated analytically instead
    keep = ~((first == grid_size - 1) & (second == len(angles) - 1))
    first, second = first[keep], second[keep]
    names = [f"theta({th1:.4f},{th2:.4f})" for th1, th2 in angles]
    labels = [f"{names[i]}/{names[j]}" for i, j in zip(first.tolist(), second.tolist())]
    return labels, (states[first] - states[second]).T


def _mode_factors(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``exp(outer(lam, t))`` as stacked real and imaginary parts (32 x K)."""
    factors = np.exp(np.outer(lam, t))
    return np.concatenate([factors.real, factors.imag])


def _pair_weights(rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Real weights (32 x 3P) that turn :func:`_mode_factors` into reduced rows.

    ``rows`` holds the two reduced-state rows ``(_PTRACE @ vec)[:2]`` and
    ``coeffs`` the pairs' mode coefficients (16 x P).  With ``x = rows[k] c``,
    ``Re r_k = [Re x, -Im x] . factors`` and ``Im r_k = [Im x, Re x] . factors``;
    the columns give ``r0``, ``Re r1`` and ``Im r1`` of every pair, in blocks.
    """
    a, b = rows[0][:, None] * coeffs, rows[1][:, None] * coeffs
    return np.block([[a.real, b.real, b.imag], [-a.imag, -b.imag, b.real]])


def _distance(weights: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Reduced trace distances (P x K) from :func:`_pair_weights` and factors.

    A pair difference is traceless, so its reduced difference is
    ``[[r0, r1], [conj(r1), -r0]]`` with real ``r0``, and its trace distance is
    ``sqrt(r0^2 + |r1|^2)``.
    """
    parts = weights.T @ factors
    parts *= parts
    count = parts.shape[0] // 3
    return np.sqrt(parts[:count] + parts[count:2 * count] + parts[2 * count:])


def _rising_runs(dvals: np.ndarray):
    """Maximal strictly rising runs of each row of ``dvals`` (P x T).

    Returns index arrays ``(row, lo, hi)``: the run climbs from
    ``dvals[row, lo]`` to ``dvals[row, hi]``, ordered by row, then time.
    """
    size = dvals.shape[1]
    rising = np.zeros(dvals.shape, dtype=np.int8)
    rising[:, :-1] = np.diff(dvals, axis=1) > 0.0  # last slot False ends every run
    edges = np.diff(rising.reshape(-1), prepend=np.int8(0))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return starts // size, starts % size, stops % size


def _slope_bound(lam: np.ndarray, rows: np.ndarray):
    """Bound on the speed ``|dD/dt|`` of pair distance curves, from a time on.

    A pair with mode coefficients ``c`` has reduced rows ``r(t) = sum_i
    rows[:, i] c_i e^{lam_i t}``, so ``L(t) = sum_i (|rows[0, i] c_i| +
    |rows[1, i] c_i|) |lam_i| e^{Re lam_i t}`` bounds the speed of ``D =
    sqrt(r0^2 + |r1|^2)`` on ``[t, inf)``.  Modes whose eigenvalues agree to
    rounding move as one: their amplitudes are added before the moduli are
    taken, and each split ``delta_i`` from the group's eigenvalue ``lam_g`` adds
    the bound ``delta_i (1 + (|lam_g| + delta_i) t) e^{max(Re lam_i, Re lam_g) t}``
    on the change of ``lam e^{lam t}``, times the mode's own amplitude.
    Returns ``bound(coeffs, pair, times)``: L at ``times[k]`` for the pair
    with coefficients ``coeffs[:, pair[k]]``.
    """
    tol = _DEGENERACY_RTOL * max(1.0, float(np.max(np.abs(lam))))
    rep = np.array([np.flatnonzero(np.abs(lam - x) <= tol)[0] for x in lam])
    group = (rep[None, :] == np.arange(lam.size)[:, None]).astype(float)
    split = np.abs(lam - lam[rep])
    crest = np.maximum(lam.real, lam.real[rep])

    def bound(coeffs: np.ndarray, pair: np.ndarray, times: np.ndarray) -> np.ndarray:
        a, b = rows[0][:, None] * coeffs, rows[1][:, None] * coeffs
        joint = (np.abs(group @ a) + np.abs(group @ b)).T[pair]
        own = (np.abs(a) + np.abs(b)).T[pair]
        t = times[:, None]
        return np.sum(
            joint * np.abs(lam) * np.exp(t * lam.real)
            + own * split * (1.0 + (np.abs(lam[rep]) + split) * t) * np.exp(t * crest),
            axis=1,
        )

    return bound


def _sampled_estimates(params: ModelParams, coeffs: np.ndarray, grid: np.ndarray):
    """Sampled memory measure of every pair, each with a bound on its refinement.

    The pairs' distance curves on ``grid`` are built a block of pairs at a
    time from one shared ``exp(outer(lam, grid))``.  A pair's estimate sums the
    rises of its sampled runs above the float-noise floor.  Refining a run
    (:func:`_refined_intervals`) moves each interior endpoint by at most one
    grid spacing ``h``, so it adds at most ``h (L(t_lo - h) + L(t_hi - h))``
    to the rise, with ``L`` from :func:`_slope_bound`.  A rise above the floor
    adds that plus the floor, which covers the rounding between the sampled and
    the refined evaluation; a rise below the floor counts only if the addition
    can lift it above.  Returns ``(estimates, bounds)``; refined minus estimate
    is at most bound.
    """
    lam, vec, _ = _liouvillian_modes(params)
    rows = (_PTRACE @ vec)[:2]
    factors = _mode_factors(lam, grid)
    slope_bound = _slope_bound(lam, rows)
    spacing = float(np.max(np.diff(grid)))
    last = grid.size - 1
    count = coeffs.shape[1]
    estimates = np.empty(count)
    bounds = np.empty(count)
    width = max(1, _CHUNK_BYTES // (16 * grid.size))
    for first in range(0, count, width):
        block = coeffs[:, first:first + width]
        dvals = _distance(_pair_weights(rows, block), factors)
        pair, lo, hi = _rising_runs(dvals)
        gains = dvals[pair, hi] - dvals[pair, lo]
        # L just before each endpoint; an endpoint at either end of the grid stays put
        ends = np.concatenate([lo, hi])
        speed = np.where(np.concatenate([lo > 0, hi < last]),
                         slope_bound(block, np.tile(pair, 2), grid[ends - 1]), 0.0)
        moves = spacing * (speed[:lo.size] + speed[lo.size:])
        kept = gains > _GAIN_FLOOR
        reach = gains + moves
        slack = np.where(kept, moves + _GAIN_FLOOR, np.where(reach > _GAIN_FLOOR, reach, 0.0))
        splits = np.cumsum(np.bincount(pair[kept], minlength=block.shape[1]))[:-1]
        estimates[first:first + width] = [
            math.fsum(g.tolist()) for g in np.split(gains[kept], splits)
        ]
        bounds[first:first + width] = np.bincount(pair, weights=slack,
                                                  minlength=block.shape[1])
    return estimates, bounds


def _refined_intervals(params: ModelParams, coeff: np.ndarray, grid: np.ndarray) -> tuple:
    """Increase intervals of one pair, each sampled run's endpoints refined.

    An interior start (end) is refined by ternary search for the minimum
    (maximum) between its two grid neighbours, to :data:`_BISECT_TOL`, for all
    endpoints at once; rises below the float-noise floor are dropped.
    """
    lam, vec, _ = _liouvillian_modes(params)
    weights = _pair_weights((_PTRACE @ vec)[:2], coeff[:, None])

    def distance(t: np.ndarray) -> np.ndarray:
        return _distance(weights, _mode_factors(lam, t))[0]

    _, lo, hi = _rising_runs(distance(grid)[None, :])
    inner_lo, inner_hi = lo > 0, hi < grid.size - 1
    index = np.concatenate([lo[inner_lo], hi[inner_hi]])
    want_min = np.arange(index.size) < np.count_nonzero(inner_lo)
    left, right = grid[index - 1], grid[index + 1]
    while True:
        active = right - left > _BISECT_TOL
        if not np.any(active):
            break
        third = (right - left) / 3.0
        f1, f2 = np.split(distance(np.concatenate([left + third, right - third])), 2)
        shrink_right = (f1 <= f2) == want_min
        right = np.where(active & shrink_right, right - third, right)
        left = np.where(active & ~shrink_right, left + third, left)
    refined = 0.5 * (left + right)

    t_start, t_end = grid[lo], grid[hi]
    t_start[inner_lo] = refined[want_min]
    t_end[inner_hi] = refined[~want_min]
    gains = distance(t_end) - distance(t_start)
    return tuple(
        IncreaseInterval(t_start=a, t_end=b, gain=g)
        for a, b, g in zip(t_start.tolist(), t_end.tolist(), gains.tolist())
        if g > _GAIN_FLOOR
    )


def blp_measure_maximized(
    params: ModelParams,
    grid_size: int = 5,
    dt: float | None = None,
    t_max: float | None = None,
) -> BlpResult:
    """Maximize the memory measure over product-state pairs.

    Candidates are all unordered pairs of ``|s(th1)> x |s(th2)>`` with both
    angles on a ``grid_size``-point polar grid (azimuth 0), plus always the
    canonical ``|10>``/``|00>`` pair (evaluated analytically).  These pairs
    vary atom 2 as well, so the value is a maximum over this family, not the
    BLP measure of atom 1's dynamical map.

    Every candidate's distance curve is sampled with step ``dt`` in one
    batched contraction, giving an estimate and a bound on how far refining its
    interval endpoints can raise it.  Candidates are refined in decreasing
    order of estimate plus bound until that sum falls below the best refined
    value, so no unrefined candidate can beat the winner.  Ties are broken
    toward the lexicographically smallest pair label.  Rises below 1e-12 are
    discarded as float noise, so fully divisible dynamics reports exactly 0.

    Raises :class:`InvariantViolation` for ``grid_size < 2`` and
    :class:`InvalidGridError` above :data:`MAX_GRID_SIZE` or when
    ``t_max / dt`` exceeds :data:`MAX_SCAN_POINTS`.
    """
    if grid_size < 2:
        raise InvariantViolation(f"grid_size must be at least 2, got {grid_size!r}")
    if grid_size > MAX_GRID_SIZE:
        raise InvalidGridError(
            f"grid_size {grid_size!r} is above the limit of {MAX_GRID_SIZE} "
            f"(the cost grows as grid_size**4)"
        )
    if dt is None:
        dt = default_scan_step(params)
    if t_max is None:
        t_max = default_truncation_time(params)
    if not (dt > 0 and t_max > 0 and math.isfinite(dt) and math.isfinite(t_max)):
        raise InvalidGridError(f"dt and t_max must be positive and finite, got {dt!r}, {t_max!r}")
    points = float(t_max) / float(dt)
    if not points <= MAX_SCAN_POINTS:
        raise InvalidGridError(
            f"t_max / dt = {points:.3g} sample points per candidate curve, "
            f"above the limit of {MAX_SCAN_POINTS} points"
        )

    grid = _scan_grid(dt, t_max)
    labels, deltas = _candidate_pairs(grid_size)
    lam, vec, vec_inv = _liouvillian_modes(params)
    coeffs = vec_inv @ deltas
    estimates, bounds = _sampled_estimates(params, coeffs, grid)
    ceilings = (estimates + bounds).tolist()

    canonical = blp_measure(params, t_max=t_max)
    best_n, best_label, best_intervals, best_index = (
        canonical.n_value, canonical.pair_label, canonical.intervals, None)
    refined = 0
    for p in sorted(range(len(labels)), key=lambda p: (-ceilings[p], labels[p])):
        if ceilings[p] < best_n:
            break
        intervals = ()  # a zero ceiling leaves no rise that refinement can keep
        if ceilings[p] > 0.0:
            refined += 1
            intervals = _refined_intervals(params, coeffs[:, p], grid)
        n_value = math.fsum(iv.gain for iv in intervals)
        if (-n_value, labels[p]) < (-best_n, best_label):
            best_n, best_label, best_intervals, best_index = n_value, labels[p], intervals, p
    logger.debug("maximizer refined %d of %d candidate pairs", refined, len(labels) + 1)

    if best_index is None:
        return canonical  # canonical pair wins; analytic result already exact
    return BlpResult(
        n_value=best_n,
        intervals=best_intervals,
        pair_label=best_label,
        truncation_time=float(t_max),
        tail_bound=_mode_tail_bound(params, coeffs[:, best_index], vec, lam, float(t_max)),
    )
