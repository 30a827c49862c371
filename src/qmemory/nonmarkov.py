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

The maximizer over product-state pairs, :func:`blp_measure_maximized`, lives
in :mod:`qmemory.pairs`, which only a call to it loads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dynamics import (
    ANY_SET,
    ONE_SET,
    ModelParams,
    ParamFamily,
    checked_times,
    population_from_excited,
    population_from_ground,
    relaxation_envelope,
)
from .errors import InvalidGridError, InvariantViolation, _params, _real

MARKOVIAN = "Markovian"
NON_MARKOVIAN = "NonMarkovian"

CANONICAL_PAIR_LABEL = "|10>/|00>"

# Largest number of increase intervals the canonical measure will build.
MAX_INTERVALS = 100_000
# pi in the precision the geometric sum is evaluated in.  N reaches about
# 3300 at the default truncation, where a double's last place is 4.5e-13, so
# the sum keeps the extra bits of numpy's long double (64-bit significand on
# x86-64) until its final rounding.
_PI_EXT = 4 * np.arctan(np.longdouble(1))


def default_scan_step(params: ModelParams) -> float:
    """Maximizer sampling step: 1e-2 of the fastest time scale in the problem."""
    params = _params(params, ONE_SET)
    return 0.01 / max(params.omega, params.relaxation_rate)


def default_truncation_time(params: ModelParams | ParamFamily):
    """Truncation ``30 / (gamma (1 + 2m))``: the envelope is below 1e-13 there
    (an array of one per member for a :class:`ParamFamily`)."""
    return 30.0 / _params(params, ANY_SET).relaxation_rate


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
        t_start, t_end = _real("t_start", t_start), _real("t_end", t_end)
        if not (t_start < t_end):
            raise InvariantViolation(f"t_start must be below t_end, got [{t_start!r}, {t_end!r}]")
        return super().__new__(cls, t_start, t_end, _real("gain", gain))


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
        for name in ("n_value", "truncation_time", "tail_bound"):
            object.__setattr__(self, name, _real(name, getattr(self, name),
                                                 strict=name == "truncation_time"))
        if not len(self.starts) == len(self.ends) == len(self.gains):
            raise InvariantViolation("interval columns starts, ends and gains differ in length")
        total = math.fsum(self.gains)
        if abs(self.n_value - total) > 1e-12:
            raise InvariantViolation(
                f"n_value {self.n_value!r} differs from interval-gain sum {total!r}"
            )

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

    def __post_init__(self) -> None:
        _params(self.params, ONE_SET)

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


def trace_distance_rate(params: ModelParams | ParamFamily, t):
    """Analytic d/dt of the closed-form distance (the backflow witness sigma).

    Positive values mark information flowing back to the watched atom;
    ``sigma(0) = -gamma (1 + 2m)`` always.  Accepts a scalar or array ``t``
    and a :class:`ParamFamily` (see :func:`~qmemory.dynamics.checked_times`).
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
    _params(params, ONE_SET)
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
    _params(params, (ParamFamily,))
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

    Raises :class:`InvariantViolation` for a ``params`` that is not a
    :class:`ModelParams` and for a ``grid_size`` that is not an integer of
    at least 2, :class:`InvalidGridError` above
    :data:`~qmemory.pairs.MAX_GRID_SIZE`, then for the window checks of the
    canonical measure (:func:`blp_measure`: ``dt`` and ``t_max`` positive and
    finite, at most :data:`MAX_INTERVALS` intervals, which keeps every phase
    ``omega t`` below ``pi`` times that), then when ``t_max / dt`` exceeds
    :data:`~qmemory.pairs.MAX_SCAN_POINTS`.  The work is done in
    :mod:`qmemory.pairs`, loaded by the first call.
    """
    from .pairs import maximize

    return maximize(params, grid_size, dt, t_max)
