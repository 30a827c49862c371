"""Trace-distance non-Markovianity of the watched atom.

The canonical witness pair starts the two atoms in ``|10>`` and ``|00>``.  For
that pair the reduced states of atom 1 stay diagonal, so the trace distance is
a population difference and collapses to the closed form

    D(t) = exp(-gamma (1 + 2m) t) * cos^2(omega t),

verified against the two-population route to 1e-12 by the test suite.  Both
routes accept a :class:`~qmemory.dynamics.ParamFamily` and evaluate all its
members in one array pass, as ``validate`` does for its 1000 draws.  The
memory measure accumulates D over its intervals of increase, which are known
exactly: D rises from each zero ``t_k = (pi/2 + k pi) / omega`` to the next
peak ``s_k = (pi - atan(R / 2 omega) + k pi) / omega``, ``R = gamma (1 + 2m)``.
Interval k gains ``4 omega^2 / (4 omega^2 + R^2) e^{-R s_k}``, a geometric
series of ratio ``e^{-R pi / omega}``, so the measure is a finite geometric sum
plus the last interval cut at ``t_max``: classification costs O(1) however
many intervals there are, and builds none of them.  The measure is zero
exactly when the exchange coupling vanishes and grows monotonically with it.

For product-state pairs (the maximizer) a pair difference is traceless, so
its reduced difference is ``[[r0, r1], [conj(r1), -r0]]`` and ``D = sqrt(r0^2
+ |r1|^2)``.  Both rows are closed forms by coherence sector (see
:mod:`qmemory.dynamics`): ``r0`` comes from the k = 0 sector and is ``e^{-R
t}`` times a constant plus a cosine at ``2 omega``; ``r1``, atom 1's
coherence, comes from the k = 1 sector and combines the real and imaginary
parts of two block functions.  A pair of real product states reaches these
rows through the differences of six real coordinates of its two states (see
:func:`_candidate_pairs`), so every candidate's curve is one real
contraction of six shared basis functions with the pair's weights, a block of
pairs at a time, and its sampled rises give an estimate.  Refining a
rise's endpoints can add at most a bound set by the grid spacing and the
curve's largest speed, which the sector forms bound in closed form, so
candidates are refined only while their estimate plus bound can still reach
the best refined value.  The candidate pairs vary atom 2 as well; their
maximum is not the BLP measure of atom 1's dynamical map, which fixes the
environment's initial state.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dynamics import (
    ModelParams,
    ParamFamily,
    checked_times,
    coherence_factors,
    coherence_root,
    population_from_excited,
    population_from_ground,
    relaxation_envelope,
)
from .errors import InvalidGridError, InvariantViolation, _real

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
# Budget per block of pairs in the batched candidate pass, at 24 bytes (three
# real rows) per pair and time sample; it bounds the memory of a block's
# curves and rising runs, not the result.
_CHUNK_BYTES = 1_000_000
# Time localization of the maximizer's interval endpoints, and the same
# relative to t_max where floats near t_max are coarser than that.
_BISECT_TOL = 1e-10
_BISECT_RTOL = 1e-14
# Sampled-curve rises below this are float noise, not information backflow.
_GAIN_FLOOR = 1e-12
# pi in the precision the geometric sum is evaluated in.  N reaches about
# 3300 at the default truncation, where a double's last place is 4.5e-13, so
# the sum keeps the extra bits of numpy's long double (64-bit significand on
# x86-64) until its final rounding.
_PI_EXT = 4 * np.arctan(np.longdouble(1))


def default_scan_step(params: ModelParams) -> float:
    """Maximizer sampling step: 1e-2 of the fastest time scale in the problem."""
    return 0.01 / max(params.omega, params.relaxation_rate)


def default_truncation_time(params: ModelParams | ParamFamily):
    """Truncation ``30 / (gamma (1 + 2m))``: the envelope is below 1e-13 there
    (an array of one per member for a :class:`ParamFamily`)."""
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

    The increase intervals are three float columns ``starts``, ``ends`` and
    ``gains``; ``n_value`` is exactly the sum of ``gains``, and ``tail_bound``
    bounds whatever the truncation at ``truncation_time`` can have missed.
    Records are built only when :attr:`intervals` is read: up to
    :data:`MAX_INTERVALS` of them cost time, and as objects the garbage
    collector tracks they trigger its full collections in later calls.
    """

    n_value: float
    starts: tuple
    ends: tuple
    gains: tuple
    pair_label: str
    truncation_time: float
    tail_bound: float

    def __post_init__(self) -> None:
        if not len(self.starts) == len(self.ends) == len(self.gains):
            raise InvariantViolation("interval columns starts, ends and gains differ in length")
        total = math.fsum(self.gains)
        if abs(self.n_value - total) > 1e-12:
            raise InvariantViolation(
                f"n_value {self.n_value!r} differs from interval-gain sum {total!r}"
            )
        if self.n_value < 0 or self.tail_bound < 0 or self.truncation_time <= 0:
            raise InvariantViolation("n_value/tail_bound/truncation_time out of range")

    @property
    def intervals(self) -> tuple:
        """The intervals as :class:`IncreaseInterval` records, built when read."""
        return tuple(map(IncreaseInterval, self.starts, self.ends, self.gains))


@dataclass(frozen=True)
class Classification:
    """Threshold-relative verdict: ``regime`` is Markovian iff n_value <= eps.

    ``n_value`` is the canonical pair's closed-form geometric sum over the
    ``interval_count`` increase intervals on ``[0, truncation_time]``; none of
    them is built until :attr:`result` is first read.
    """

    regime: str
    n_value: float
    eps: float
    interval_count: int
    params: ModelParams
    truncation_time: float

    @property
    def tail_bound(self) -> float:
        """Bound on what the truncation can have missed (see :func:`blp_measure`)."""
        return _tail_bound(self.params, self.truncation_time)

    @cached_property
    def result(self) -> BlpResult:
        """The intervals behind ``n_value``, from :func:`blp_measure`; their
        interval-sum ``n_value`` agrees with this one to about a unit in the
        last place."""
        return blp_measure(self.params, t_max=self.truncation_time)


# --- canonical pair: closed forms -------------------------------------------

def trace_distance_pair(params: ModelParams | ParamFamily, t):
    """Trace distance of the reduced atom-1 states for the ``|10>``/``|00>`` pair.

    Computed by the population route ``(|p+ - p-| + |q+ - q-|) / 2`` with
    ``q = 1 - p``; accepts scalar or array ``t`` and a :class:`ParamFamily`
    (see :func:`~qmemory.dynamics.checked_times`).
    """
    p_plus = population_from_excited(params, t)
    p_minus = population_from_ground(params, t)
    return 0.5 * (abs(p_plus - p_minus) + abs((1.0 - p_plus) - (1.0 - p_minus)))


def _cos_squared(params: ModelParams | ParamFamily, tt):
    """``cos^2(omega t)`` as one multiplication, in place for an array.

    A float time and an array then round alike (``** 2`` takes numpy's
    ``pow`` for a scalar), and no second array of the times' size is kept.
    """
    c = np.cos(params.omega * tt)
    c *= c
    return c


def trace_distance_closed_form(params: ModelParams | ParamFamily, t):
    """Algebraically simplified form of the same distance: envelope times cos^2.

    Accepts a scalar or array ``t`` and a :class:`ParamFamily` (see
    :func:`~qmemory.dynamics.checked_times`).
    """
    tt = checked_times(params, t)
    value = relaxation_envelope(params, tt) * _cos_squared(params, tt)
    return float(value) if tt.ndim == 0 else value


def trace_distance_rate(params: ModelParams, t):
    """Analytic d/dt of the closed-form distance (the backflow witness sigma).

    Positive values mark information flowing back to the watched atom;
    ``sigma(0) = -gamma (1 + 2m)`` always.  Accepts a scalar or array ``t``
    (see :func:`~qmemory.dynamics.checked_times`).
    """
    tt = checked_times(params, t)
    value = -relaxation_envelope(params, tt) * (
        params.relaxation_rate * _cos_squared(params, tt)
        + params.omega * np.sin(2.0 * params.omega * tt)
    )
    return float(value) if tt.ndim == 0 else value


# --- increase intervals ------------------------------------------------------

def _zero_time(omega: float, k):
    """The ``k``-th zero ``(pi/2 + k pi) / omega`` of D, where interval k starts."""
    return (0.5 * math.pi + k * math.pi) / omega


def _peak_phase(params: ModelParams) -> float:
    """Phase ``omega s_0 = pi - atan(R / 2 omega)`` of D's first peak."""
    return math.pi - math.atan2(params.relaxation_rate, 2.0 * params.omega)


def _tail_bound(params: ModelParams, t_max: float) -> float:
    """The envelope ``exp(-gamma (1 + 2m) t_max)``, which D never exceeds later."""
    return math.exp(-params.relaxation_rate * t_max)


def _interval_count(params: ModelParams, t_max: float | None):
    """The checked window ``t_max`` and its number K of increase intervals.

    K counts the zeros :func:`_zero_time` below ``t_max``, evaluated with the
    float expressions that build :func:`blp_measure`'s columns.  Raises
    :class:`InvalidGridError` for a bad ``t_max`` and when ``[0, t_max]``
    holds more than :data:`MAX_INTERVALS` intervals.
    """
    t_max = default_truncation_time(params) if t_max is None else _real(
        "t_max", t_max, strict=True, error=InvalidGridError)
    omega = params.omega
    approx_count = omega * t_max / math.pi
    if not (math.isfinite(approx_count) and approx_count <= MAX_INTERVALS):
        raise InvalidGridError(
            f"[0, t_max={t_max!r}] holds about {approx_count:.3g} increase intervals "
            f"(omega * t_max / pi), above the limit of {MAX_INTERVALS} intervals"
        )
    count = math.ceil(approx_count - 0.5)  # zeros before t_max, up to rounding
    while count and _zero_time(omega, count - 1) >= t_max:
        count -= 1
    return t_max, count


def _full_gains(ratio, full):
    """``A (1 - q^F) / (1 - q)`` for ``ratio = R / omega`` in long double and
    ``F`` full intervals, elementwise for arrays: the same long-double
    operations, in the same order, round alike for one member or many."""
    half = 0.5 * ratio  # R / 2 omega
    step = ratio * _PI_EXT  # R pi / omega
    first = np.exp(-ratio * (_PI_EXT - np.arctan(half))) / (1.0 + half * half)
    return first * np.expm1(-full * step) / np.expm1(-step)


def _cut_gain(rate: float, omega: float, t_max: float, count: int) -> float:
    """``max(D(t_max) - D(t_{K-1}), 0)``: the last of ``count`` intervals, cut
    at ``t_max``.  D = e^{-R t} cos^2(omega t) in scalar math: a scalar call of
    :func:`trace_distance_closed_form` costs about as much as the whole sum."""
    start = _zero_time(omega, count - 1)
    rise = (math.exp(-rate * t_max) * math.cos(omega * t_max) ** 2
            - math.exp(-rate * start) * math.cos(omega * start) ** 2)
    return max(rise, 0.0)


def _canonical_measure(params: ModelParams, t_max: float | None):
    """``(t_max, N, K)`` of the canonical pair in O(1), from the geometric series.

    The F intervals that end by ``t_max`` gain ``A q^k`` with ``A = 4 omega^2 /
    (4 omega^2 + R^2) e^{-R s_0}`` and ``q = e^{-R pi / omega}``, so they sum
    to ``A (1 - q^F) / (1 - q)``, evaluated with ``expm1``; when the last of
    the K intervals ends after ``t_max``, it adds ``max(D(t_max) - D(t_{K-1}),
    0)``.  Checks as :func:`_interval_count`.
    """
    t_max, count = _interval_count(params, t_max)
    if count == 0:
        return t_max, 0.0, 0
    rate, omega = params.relaxation_rate, params.omega
    cut = (_peak_phase(params) + (count - 1) * math.pi) / omega > t_max
    full = count - cut
    n_value = np.longdouble(0.0)
    if full:
        n_value = _full_gains(np.longdouble(rate) / omega, full)
    if cut:
        n_value += _cut_gain(rate, omega, t_max, count)
    return t_max, float(n_value), count


def canonical_measures(params: ParamFamily) -> np.ndarray:
    """N of every member of a family on its default window, in one array pass.

    Each member's value equals, bit for bit, the ``n_value`` of its own
    :func:`classify_dynamics` call with the default ``t_max``: the interval
    count, the cut test and the geometric sum are that call's expressions
    over the member arrays (long double where it uses long double), and the
    two terms it takes from ``math`` (the peak phase's ``atan2`` and the cut
    interval) are taken from ``math`` per member.  The first member (in C
    order) with more than :data:`MAX_INTERVALS` intervals raises its own
    call's :class:`InvalidGridError`.
    """
    gamma, m, omega, rate, t_max = (
        np.broadcast_to(v, params.shape).ravel()
        for v in (params.gamma, params.m, params.omega, params.relaxation_rate,
                  default_truncation_time(params)))
    approx_count = omega * t_max / math.pi
    over = ~(approx_count <= MAX_INTERVALS)
    if over.any():
        first = int(np.argmax(over))
        _interval_count(ModelParams(gamma[first], m[first], omega[first]), None)
        raise AssertionError("unreachable: the interval limit passed a rejected member")
    count = np.ceil(approx_count - 0.5).astype(np.int64)
    n_value = np.zeros(count.shape)
    some = count > 0  # omega > 0 on these members
    rate, omega, t_max, count = rate[some], omega[some], t_max[some], count[some]
    while True:  # as _interval_count: zeros before t_max, up to rounding
        late = (count > 0) & (_zero_time(omega, count - 1) >= t_max)
        if not late.any():
            break
        count -= late
    peak_phase = math.pi - np.fromiter(
        map(math.atan2, rate.tolist(), (2.0 * omega).tolist()), float, rate.size)
    cut = (count > 0) & ((peak_phase + (count - 1) * math.pi) / omega > t_max)
    full = count - cut
    gains = np.zeros(count.shape, dtype=np.longdouble)
    geometric = full > 0
    gains[geometric] = _full_gains(rate[geometric].astype(np.longdouble) / omega[geometric],
                                   full[geometric])
    gains[cut] += np.fromiter(
        map(_cut_gain, rate[cut].tolist(), omega[cut].tolist(), t_max[cut].tolist(),
            count[cut].tolist()), float, int(cut.sum()))
    n_value[some] = gains  # rounded to double once, as float(n_value) does
    return n_value.reshape(params.shape)


def blp_measure(
    params: ModelParams,
    dt: float | None = None,
    t_max: float | None = None,
) -> BlpResult:
    """Memory measure for the canonical pair from its exact increase intervals.

    D rises on ``[t_k, s_k]`` (see the module docstring); every interval with
    ``t_k < t_max`` contributes ``D(min(s_k, t_max)) - D(t_k)``, and
    ``n_value`` is the sum of these gains.  :func:`classify_dynamics` sums the
    same finite geometric series in closed form without building the
    intervals; the two agree to about a unit in the last place.  The tail
    bound is the envelope value ``exp(-gamma (1 + 2m) t_max)``, which D can
    never exceed.  ``dt`` is validated but has no effect: the intervals need
    no sampling.  Raises :class:`InvalidGridError` when ``[0, t_max]`` holds
    more than :data:`MAX_INTERVALS` intervals.
    """
    if dt is not None:
        _real("dt", dt, strict=True, error=InvalidGridError)
    t_max, count = _interval_count(params, t_max)
    omega = params.omega
    k = np.arange(count, dtype=float)
    starts = _zero_time(omega, k)
    ends = np.minimum((_peak_phase(params) + k * math.pi) / omega, t_max)
    gains = np.maximum(
        trace_distance_closed_form(params, ends) - trace_distance_closed_form(params, starts),
        0.0,
    )
    gains = tuple(gains.tolist())
    return BlpResult(
        n_value=math.fsum(gains),
        starts=tuple(starts.tolist()),
        ends=tuple(ends.tolist()),
        gains=gains,
        pair_label=CANONICAL_PAIR_LABEL,
        truncation_time=t_max,
        tail_bound=_tail_bound(params, t_max),
    )


def first_revival_time(params: ModelParams) -> float | None:
    """First time the distance rate flips from nonpositive to positive.

    ``None`` when the exchange coupling is zero (monotone decay); otherwise
    ``pi / (2 omega)``, where the distance touches zero.
    """
    return None if params.omega == 0.0 else _zero_time(params.omega, 0)


def classify_dynamics(
    params: ModelParams,
    eps: float = 1e-3,
    t_max: float | None = None,
) -> Classification:
    """Classify against a threshold: NonMarkovian iff ``n_value > eps``.

    ``n_value`` is the canonical pair's memory measure on ``[0, t_max]``
    (default :func:`default_truncation_time`) as a closed-form geometric sum,
    in O(1) time: no increase interval is built unless the verdict's
    ``result`` is read.  Accepts and rejects the same ``t_max`` as
    :func:`blp_measure`, with the same errors.
    """
    eps = _real("eps", eps)
    t_max, n_value, count = _canonical_measure(params, t_max)
    regime = NON_MARKOVIAN if n_value > eps else MARKOVIAN
    return Classification(regime=regime, n_value=n_value, eps=eps, interval_count=count,
                          params=params, truncation_time=t_max)


# --- arbitrary product pairs (maximizer) -------------------------------------

def _scan_grid(dt: float, t_max: float) -> np.ndarray:
    grid = np.arange(0.0, t_max, dt)
    return np.append(grid, t_max)


def _candidate_pairs(grid_size: int):
    """Labels and 6 x P table of the candidate pairs' differences.

    The states are ``|s(th1)> x |s(th2)>``, ``|s(th)> = cos(th/2) |1> +
    sin(th/2) |0>``, with both angles on a ``grid_size``-point polar grid; the
    pairs are the unordered ones, minus the one equal to the canonical pair.
    With ``p = cos^2(th/2)`` and ``x = cos(th/2) sin(th/2)``, a product state
    reaches atom 1's reduced rows (see :func:`_pair_weights`) through six real
    numbers, the rows of the table: ``alpha = (p1 + p2) / 2``, ``beta = (p1 -
    p2) / 2``, ``c1 = x1``, ``c2 = x2``, ``e1 = x1 (2 p2 - 1)`` and ``e2 = x2
    (2 p1 - 1)``.  By the joint z-rotation symmetry the azimuth adds nothing,
    so real states are all the family needs.
    """
    thetas = np.linspace(0.0, math.pi, grid_size)
    cos, sin = np.cos(0.5 * thetas), np.sin(0.5 * thetas)
    p, x = cos * cos, cos * sin
    p1, p2 = np.repeat(p, grid_size), np.tile(p, grid_size)
    x1, x2 = np.repeat(x, grid_size), np.tile(x, grid_size)
    coords = np.stack([0.5 * (p1 + p2), 0.5 * (p1 - p2), x1, x2,
                       x1 * (2.0 * p2 - 1.0), x2 * (2.0 * p1 - 1.0)])
    first, second = np.triu_indices(p1.size, k=1)
    # (0, pi) vs (pi, pi) is |10> vs |00>, evaluated analytically instead
    keep = ~((first == grid_size - 1) & (second == p1.size - 1))
    first, second = first[keep], second[keep]
    names = [f"theta({th1:.4f},{th2:.4f})" for th1 in thetas.tolist() for th2 in thetas.tolist()]
    labels = [f"{names[i]}/{names[j]}" for i, j in zip(first.tolist(), second.tolist())]
    return labels, coords[:, first] - coords[:, second]


def _sector_basis(params: ModelParams, t: np.ndarray) -> np.ndarray:
    """The six real functions (6 x K) that every pair's reduced rows combine.

    Rows: ``e^{-R t}`` and ``e^{-R t} cos 2 omega t`` (the k = 0 sector), then
    the real and imaginary parts of ``e^{-R t} (cosh(mu+ t) + R/2 sinh(mu+ t)
    / mu+)`` and of ``e^{-R t} sinh(mu+ t) / mu+`` (the k = 1 sector).
    """
    with np.errstate(over="ignore"):  # R t beyond the float range: the decays are 0
        envelope = np.exp(-params.relaxation_rate * t)
        cosh, sinh = coherence_factors(params, t)
    leading = cosh + 0.5 * params.relaxation_rate * sinh
    return np.stack([envelope, envelope * np.cos(2.0 * params.omega * t),
                     leading.real, leading.imag, sinh.real, sinh.imag])


def _pair_weights(params: ModelParams, table: np.ndarray):
    """Weights of the pairs of :func:`_candidate_pairs` (6 x P) on the basis.

    A traceless difference has the reduced atom-1 difference
    ``[[r0, r1], [conj(r1), -r0]]``.  Its k = 0 part gives
    ``r0 = e^{-R t} (alpha + beta cos 2 omega t)``; its k = 1 part gives ``r1
    = c1 P_re - omega e1 S_im + i (c2 P_im + omega e2 S_re)`` in the rows of
    :func:`_sector_basis`, since ``mu- = conj(mu+)`` turns the sum and the
    difference of the two blocks into real and imaginary parts.  Returns the
    weights (P x 3 x 6; rows ``r0``, ``Re r1``, ``Im r1``) and the amplitudes
    (6 x P) ``|alpha|``, ``|alpha + beta|``, ``|beta|``, ``|c1|``, ``|c2|`` and
    ``omega (|e1| + |e2|)`` that weight the rows of :func:`_slope_bound`.
    """
    alpha, beta, c1, c2, e1, e2 = table
    omega = params.omega
    weights = np.zeros((table.shape[1], 3, 6))
    weights[:, 0, 0], weights[:, 0, 1] = alpha, beta
    weights[:, 1, 2], weights[:, 1, 5] = c1, -omega * e1
    weights[:, 2, 3], weights[:, 2, 4] = c2, omega * e2
    amplitudes = np.stack([np.abs(alpha), np.abs(alpha + beta), np.abs(beta),
                           np.abs(c1), np.abs(c2), omega * (np.abs(e1) + np.abs(e2))])
    return weights, amplitudes


def _distance(weights: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Reduced trace distances (P x K) from :func:`_pair_weights` and the basis.

    A pair difference is traceless, so its reduced difference is
    ``[[r0, r1], [conj(r1), -r0]]`` with real ``r0``, and its trace distance is
    ``sqrt(r0^2 + |r1|^2)``.
    """
    parts = (weights.reshape(-1, 6) @ basis).reshape(weights.shape[0], 3, -1)
    parts *= parts
    return np.sqrt(parts[:, 0] + parts[:, 1] + parts[:, 2])


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


def _slope_bound(params: ModelParams):
    """Bounds on the speed ``|dD/dt|`` of pair distance curves, by sector.

    Each term of :func:`_pair_weights` has a derivative bound ``g(t)`` per unit
    of its amplitude (rows 0-2 for ``r0``, 3-5 for ``r1``).  With ``mu+ = rho +
    i y`` and the k = 1 rates ``-kappa = rho - R`` and ``-kappa' = -rho - R``,
    the derivatives of the k = 1 rows are ``F = p(mu) e^{(mu - R) t} + p(-mu)
    e^{(-mu - R) t}``, ``p(mu) = mu/2 - R/4 - R^2/(4 mu)``, and ``G = ((mu - R)
    e^{(mu - R) t} + (mu + R) e^{(-mu - R) t}) / (2 mu)``.  The bounds:

    * ``r0``: ``alpha`` and ``alpha + beta``: ``R e^{-R t}``; ``beta``:
      ``sqrt(R^2 + 4 omega^2) e^{-R t}`` beside ``alpha``, or, writing ``r0 =
      e^{-R t} (alpha + beta + beta (cos 2 omega t - 1))``, ``(2 omega + 2 R
      min(1, omega t)) e^{-R t}`` beside ``alpha + beta``.  The smaller sum
      counts; the second vanishes with ``omega`` where D does;
    * ``c1``: ``|F| <= |p(mu)| e^{-kappa t} + |p(-mu)| e^{-kappa' t}``;
    * ``c2``: ``|Im F|``, which also obeys a bound that vanishes with ``y =
      -gamma omega / (2 rho)``, as the coupling of atom 2's coherence into atom
      1's does (bounding the two blocks apart would lose that cancellation as
      ``omega -> 0``).  F is real for real ``mu``, so ``|Im F(mu+)| <= |y| max
      |dF/dmu|`` on the segment from ``rho`` to ``mu+``; from ``sinh(mu t) / mu
      = int_0^t cosh(mu s) ds`` and ``|cosh(mu s)| <= cosh(rho s)`` that is at
      most ``|y| (2 + B t) e^{-kappa t}``, ``B = R/2 + (|rho^2 - R^2/2| + |y|
      (|y| + 2 rho)) / (2 rho)``.  The smaller of the two counts;
    * ``omega e1``, ``omega e2``: ``|G| <= |mu - R| / (2 |mu|) e^{-kappa t} +
      |mu + R| / (2 |mu|) e^{-kappa' t}``.

    Returns ``(speed, tail)``: ``speed(t)`` (6 x K) is the supremum of each
    ``g`` over ``[t, inf)``, so the speed from ``t`` on is at most ``L(t) =
    hypot(*_row_bounds(amplitudes, speed(t)))``, since ``|dD/dt| <= sqrt(r0'^2 +
    |r1'|^2)``; ``tail(t)`` (6,) bounds each ``g``'s integral over ``[t, inf)``,
    so ``sum(_row_bounds(amplitudes, tail(t_max)))`` bounds the total variation,
    and with it every gain, after ``t_max``.
    """
    rate, omega = params.relaxation_rate, params.omega
    mu = coherence_root(params)
    rho, y = mu.real, abs(mu.imag)
    slow, fast = rate - rho, rate + rho
    rise = math.hypot(rate, 2.0 * omega)
    f_slow, f_fast = (abs(0.5 * m - 0.25 * rate - 0.25 * rate * (rate / m)) for m in (mu, -mu))
    g_slow, g_fast = abs(mu - rate) / (2.0 * abs(mu)), abs(mu + rate) / (2.0 * abs(mu))
    # B, kept free of squares so that tiny rates do not underflow
    slope = 0.5 * (rate + abs(rho - 0.5 * rate * (rate / rho)) + (y / rho) * (y + 2.0 * rho))
    peak = 1.0 / slow - 2.0 / slope  # where (2 + slope s) e^{-slow s} is largest

    def speed(t: np.ndarray) -> np.ndarray:
        # decays beyond the float range are 0; where the mixed bound is no number, f bounds
        with np.errstate(over="ignore", invalid="ignore"):
            e_rate, e_slow, e_fast = np.exp(-rate * t), np.exp(-slow * t), np.exp(-fast * t)
            late = np.maximum(t, peak)
            turn = 2.0 * (omega + rate * np.minimum(1.0, omega * t)) * e_rate  # non-increasing
            f = f_slow * e_slow + f_fast * e_fast
            mixed = np.fmin(f, y * (2.0 + slope * late) * np.exp(-slow * late))
        return np.stack([rate * e_rate, rise * e_rate, turn, f, mixed,
                         g_slow * e_slow + g_fast * e_fast])

    def tail(t: float) -> np.ndarray:
        e_rate, e_slow, e_fast = (math.exp(-k * t) / k for k in (rate, slow, fast))
        turn = 2.0 * (omega + rate * min(1.0, omega * (t + 1.0 / rate)))
        f = f_slow * e_slow + f_fast * e_fast
        mixed = min(f, y * e_slow * (2.0 + slope * t + slope / slow))
        return np.array([rate * e_rate, rise * e_rate, turn * e_rate,
                         f, mixed, g_slow * e_slow + g_fast * e_fast])

    return speed, tail


def _row_bounds(amplitudes: np.ndarray, rows: np.ndarray):
    """Bounds on ``|r0'|`` and ``|r1'|`` (or their integrals) from the
    amplitudes of :func:`_pair_weights` and the rows of :func:`_slope_bound`."""
    r0 = np.minimum(amplitudes[0] * rows[0] + amplitudes[2] * rows[1],
                    amplitudes[1] * rows[0] + amplitudes[2] * rows[2])
    return r0, amplitudes[3] * rows[3] + amplitudes[4] * rows[4] + amplitudes[5] * rows[5]


def _sampled_estimates(params: ModelParams, weights: np.ndarray, amplitudes: np.ndarray,
                       grid: np.ndarray, basis: np.ndarray):
    """Sampled memory measure of every pair, each with a bound on its refinement.

    The pairs' distance curves on ``grid`` are built a block of pairs at a
    time from their :func:`_pair_weights` and the :func:`_sector_basis` on
    ``grid``.  A pair's estimate sums the rises of its sampled runs above the
    float-noise floor.  Refining a run (:func:`_refined_intervals`) moves each
    interior endpoint by at most one grid spacing ``h``, so it adds at most
    ``h (L(t_lo - h) + L(t_hi - h))`` to the rise, with ``L`` from
    :func:`_slope_bound`.  A rise above the floor adds that plus the floor,
    which covers the rounding between the sampled and the refined evaluation;
    a rise below the floor counts only if the addition can lift it above.  Returns ``(estimates, bounds)``; refined minus estimate
    is at most bound.
    """
    speed, _ = _slope_bound(params)
    speed_table = speed(grid)
    spacing = float(np.max(np.diff(grid)))
    last = grid.size - 1
    count = weights.shape[0]
    estimates = np.empty(count)
    bounds = np.empty(count)
    width = max(1, _CHUNK_BYTES // (24 * grid.size))
    for first in range(0, count, width):
        dvals = _distance(weights[first:first + width], basis)
        pair, lo, hi = _rising_runs(dvals)
        gains = dvals[pair, hi] - dvals[pair, lo]
        # L just before each endpoint; an endpoint at either end of the grid stays put
        ends = np.concatenate([lo, hi])
        bound = np.hypot(*_row_bounds(amplitudes[:, np.tile(pair + first, 2)],
                                      speed_table[:, ends - 1]))
        speeds = np.where(np.concatenate([lo > 0, hi < last]), bound, 0.0)
        moves = spacing * (speeds[:lo.size] + speeds[lo.size:])
        kept = gains > _GAIN_FLOOR
        reach = gains + moves
        slack = np.where(kept, moves + _GAIN_FLOOR, np.where(reach > _GAIN_FLOOR, reach, 0.0))
        splits = np.cumsum(np.bincount(pair[kept], minlength=dvals.shape[0]))[:-1]
        estimates[first:first + width] = [
            math.fsum(g.tolist()) for g in np.split(gains[kept], splits)
        ]
        bounds[first:first + width] = np.bincount(pair, weights=slack, minlength=dvals.shape[0])
    return estimates, bounds


def _refined_intervals(params: ModelParams, weights: np.ndarray, grid: np.ndarray,
                       basis: np.ndarray) -> tuple:
    """Increase intervals of one pair, each sampled run's endpoints refined.

    ``weights`` (1 x 3 x 6) are the pair's :func:`_pair_weights`, ``basis``
    the :func:`_sector_basis` on ``grid``.  An interior start (end) is refined
    by ternary search for the minimum (maximum) between its two grid
    neighbours, for all endpoints at once, to :data:`_BISECT_TOL` or
    :data:`_BISECT_RTOL` times ``t_max``, whichever is larger; rises below the
    float-noise floor are dropped.  Returns the ``(starts, ends, gains)``
    columns of :class:`BlpResult`.
    """
    def distance(t: np.ndarray) -> np.ndarray:
        return _distance(weights, _sector_basis(params, t))[0]

    _, lo, hi = _rising_runs(_distance(weights, basis))
    inner_lo, inner_hi = lo > 0, hi < grid.size - 1
    index = np.concatenate([lo[inner_lo], hi[inner_hi]])
    want_min = np.arange(index.size) < np.count_nonzero(inner_lo)
    left, right = grid[index - 1], grid[index + 1]
    tol = max(_BISECT_TOL, _BISECT_RTOL * float(grid[-1]))
    while True:
        active = right - left > tol
        if not np.any(active):
            break
        third = (right - left) / 3.0
        values = distance(np.concatenate([left + third, right - third]))
        f1, f2 = values[:index.size], values[index.size:]
        shrink_right = (f1 <= f2) == want_min
        right = np.where(active & shrink_right, right - third, right)
        left = np.where(active & ~shrink_right, left + third, left)
    refined = 0.5 * (left + right)

    t_start, t_end = grid[lo], grid[hi]
    t_start[inner_lo] = refined[want_min]
    t_end[inner_hi] = refined[~want_min]
    gains = distance(t_end) - distance(t_start)
    kept = gains > _GAIN_FLOOR
    t_start, t_end, gains = t_start[kept], t_end[kept], gains[kept]
    if not np.all(t_start < t_end):
        raise InvariantViolation("refined interval endpoints out of order")
    return tuple(t_start.tolist()), tuple(t_end.tolist()), tuple(gains.tolist())


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
    A winning product pair's ``tail_bound`` is the integral of its speed bound
    from ``t_max`` on: a bound on the total variation, so on every later gain.

    Raises :class:`InvariantViolation` for a ``grid_size`` that is not an
    integer of at least 2 and
    :class:`InvalidGridError` above :data:`MAX_GRID_SIZE`, then for the
    window checks of the canonical measure (:func:`blp_measure`: ``dt`` and
    ``t_max`` positive and finite, at most :data:`MAX_INTERVALS` intervals,
    which keeps every phase ``omega t`` below ``pi`` times that), then when
    ``t_max / dt`` exceeds :data:`MAX_SCAN_POINTS`.
    """
    if not (isinstance(grid_size, (int, np.integer)) and grid_size >= 2):
        raise InvariantViolation(f"grid_size must be an integer of at least 2, got {grid_size!r}")
    if grid_size > MAX_GRID_SIZE:
        raise InvalidGridError(
            f"grid_size {grid_size!r} is above the limit of {MAX_GRID_SIZE} "
            f"(the cost grows as grid_size**4)"
        )
    dt = default_scan_step(params) if dt is None else _real(
        "dt", dt, strict=True, error=InvalidGridError)
    t_max, _ = _interval_count(params, t_max)
    points = t_max / dt
    if not points <= MAX_SCAN_POINTS:
        raise InvalidGridError(
            f"t_max / dt = {points:.3g} sample points per candidate curve, "
            f"above the limit of {MAX_SCAN_POINTS} points"
        )

    canonical = blp_measure(params, t_max=t_max)
    grid = _scan_grid(dt, t_max)
    basis = _sector_basis(params, grid)
    labels, table = _candidate_pairs(grid_size)
    weights, amplitudes = _pair_weights(params, table)
    estimates, bounds = _sampled_estimates(params, weights, amplitudes, grid, basis)
    ceilings = (estimates + bounds).tolist()

    best_n, best_label, best_columns, best_index = (
        canonical.n_value, canonical.pair_label, None, None)
    refined = 0
    for p in sorted(range(len(labels)), key=lambda p: (-ceilings[p], labels[p])):
        if ceilings[p] < best_n:
            break
        columns = ((), (), ())  # a zero ceiling leaves no rise that refinement can keep
        if ceilings[p] > 0.0:
            refined += 1
            columns = _refined_intervals(params, weights[p:p + 1], grid, basis)
        n_value = math.fsum(columns[2])
        if (-n_value, labels[p]) < (-best_n, best_label):
            best_n, best_label, best_columns, best_index = n_value, labels[p], columns, p
    logger.debug("maximizer refined %d of %d candidate pairs", refined, len(labels) + 1)

    if best_index is None:
        return canonical  # canonical pair wins; analytic result already exact
    _, tail = _slope_bound(params)
    return BlpResult(
        best_n,
        *best_columns,
        pair_label=best_label,
        truncation_time=t_max,
        tail_bound=float(sum(_row_bounds(amplitudes[:, best_index], tail(t_max)))),
    )
