"""The memory measure maximized over product-state pairs: the body of
:func:`qmemory.nonmarkov.blp_measure_maximized`, loaded by its first call.

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

import numpy as np

from . import nonmarkov
from .dynamics import ONE_SET, ModelParams, coherence_factors, coherence_root
from .errors import InvalidGridError, InvariantViolation, _params, _real
from .nonmarkov import BlpResult

logger = logging.getLogger(__name__)

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


def maximize(params: ModelParams, grid_size: int, dt: float | None,
             t_max: float | None) -> BlpResult:
    """The body of :func:`~qmemory.nonmarkov.blp_measure_maximized`, which
    documents it.  The canonical pair's measure and the window checks are
    :mod:`~qmemory.nonmarkov`'s, called through that module so that what
    wraps its functions there sees these calls too."""
    _params(params, ONE_SET)
    if not (isinstance(grid_size, (int, np.integer)) and grid_size >= 2):
        raise InvariantViolation(f"grid_size must be an integer of at least 2, got {grid_size!r}")
    if grid_size > MAX_GRID_SIZE:
        raise InvalidGridError(
            f"grid_size {grid_size!r} is above the limit of {MAX_GRID_SIZE} "
            f"(the cost grows as grid_size**4)"
        )
    dt = nonmarkov.default_scan_step(params) if dt is None else _real(
        "dt", dt, strict=True, error=InvalidGridError)
    t_max, _ = nonmarkov._interval_count(params, t_max)
    points = t_max / dt
    if not points <= MAX_SCAN_POINTS:
        raise InvalidGridError(
            f"t_max / dt = {points:.3g} sample points per candidate curve, "
            f"above the limit of {MAX_SCAN_POINTS} points"
        )

    canonical = nonmarkov.blp_measure(params, t_max=t_max)
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
