"""Master-equation dynamics of two coupled atoms in local thermal reservoirs.

The model: two identical two-level atoms, each damped by its own structured
bath of finite mean occupancy ``m`` at rate ``gamma``, coherently coupled by an
excitation-exchange interaction of strength ``omega``.  In the excited-first
product basis ``|11>, |10>, |01>, |00>`` the generator is

    d(rho)/dt =   (m+1) gamma sum_i D[sigma_i^-](rho)
                +  m    gamma sum_i D[sigma_i^+](rho)
                -  i omega [ sigma_1^+ sigma_2^- + sigma_1^- sigma_2^+ , rho ]

with ``D[L](rho) = L rho L^dag - (L^dag L rho + rho L^dag L)/2``.

The generator commutes with a joint z-rotation of both atoms, so a matrix
element ``|i><j|`` only mixes with elements of the same coherence number
``k = n_i - n_j`` (``n`` counts excitations; Buca and Prosen, New J. Phys. 14,
073007 (2012)).  The sectors k = -2..2 have sizes 1, 4, 6, 4, 1, and each has a
closed form:

* k = 0 and k = +-2 hold the X-state family, which the flow keeps closed:
  ``w`` and ``Re z`` decay at ``R = gamma (1 + 2m)``; ``u = b - c`` and
  ``y = Im z`` perform a damped rotation at angular frequency ``2 omega``; the
  population sums ``(a, b + c, d)`` never see ``omega``: each atom relaxes
  under its own single-atom map, so they evolve under the product of two such
  maps.
* k = +1 holds ``x = (rho(11,10), rho(11,01), rho(10,00), rho(01,00))``.  With
  ``c1 = x2 + x3`` (atom 1's coherence), ``c2 = x1 + x4``, ``e1 = x2 - x3`` and
  ``e2 = x1 - x4``, the pairs ``(c1 +- c2, e2 +- e1)`` evolve under
  ``-R I + N+-``, ``N+- = [[R/2, i omega], [i omega -+ gamma, -R/2]]``.  Since
  ``N+-^2 = mu+-^2 I`` with ``mu+-^2 = R^2/4 - omega^2 -+ i gamma omega``,

      exp(t (-R I + N+-)) = e^{-R t} (cosh(mu+- t) I + sinh(mu+- t) / mu+- N+-),

  and ``mu- = conj(mu+)``.  ``mu+-`` never vanishes for ``gamma > 0``, so the
  block has no defective case.  k = -1 is the adjoint of k = +1.

:func:`propagate_exact` evaluates every sector over a whole array of times
(a time alone as an array of one, so that it rounds alike);
:func:`propagate_xstate_exact` is its view of one X state at one time.

Two quantities recur everywhere: the relaxation rate ``gamma (1 + 2m)`` and
the thermal occupation ``q = m / (1 + 2m)`` of a single atom.

A :class:`ParamFamily` holds many parameter sets as arrays.  The closed forms
:func:`checked_times`, :func:`relaxation_envelope`, :func:`coherence_factors`,
:func:`propagate_exact` and the two populations (and ``nonmarkov``'s two
canonical distances) accept it wherever they accept :class:`ModelParams`:
they broadcast its arrays against the times, and every member's value
equals, bit for bit, that member's own call at its own time.
:func:`integrate_master` takes a 1-D family on one shared time grid and
advances its members together, a block at a time, with stacked 16x16
products; a :class:`ModelParams` is the one-member case of the same code.
Its spans advance without floating-point traps, and one vectorised pass over
the samples decides every failure: a non-finite sample is the overflow of
its span, then come trace drift and validity.

A previously published closed-form solution of the same rate equations ships
verbatim as :func:`propagate_xstate_published`.  It is defective (it fails the
``t = 0`` identity and oscillates at half the correct frequency) and exists
solely so the defect is reproducible; see the ``validate`` CLI subcommand.
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .densmat import (
    TRACE_TOL,
    XState,
    embed_xstate,
    extract_xstate,
    hermiticity_defect,
    validate_density_matrix,
)
from .errors import (
    DimensionMismatchError, InvalidGridError, InvariantViolation, _broadcast, _matrix, _params,
    _real, _real_array)

logger = logging.getLogger(__name__)

# Integrator policy: internal step keeps both the relaxation rate and the
# exchange frequency resolved to 1e-3 of their time scales.
STEP_RESOLUTION = 1e-3
# Integrator samples get an extra slack decade on positivity compared to the
# 1e-10 used for hand-constructed states.
SAMPLE_POSITIVITY_TOL = 1e-9
# Members that integrate_master advances together.  The one power list it
# keeps holds a 16x16 matrix (4 kB) per member and squaring: 32 kB per
# squaring for a block, 2.3 MB for the 70 squarings of MAX_SPAN_STEPS.
_BLOCK_MEMBERS = 8
# Longest integrator span, in steps of the default policy.  Up to 1e21 such
# steps every failure on the cross-check grid is a named trace-drift error;
# from 1e22 on the step-matrix powers overflow.  The round-off that grows
# with the powers scales with the span times the rates, not with the step
# count, so a finer ``max_step`` does not move this limit.
MAX_SPAN_STEPS = 1e21
# Largest rate, gamma (1 + 2m) or omega, that the integrator accepts: the
# generator's fourth power L^4 / 4! overflows from about 4e76 on.
MAX_RK4_RATE = 1e76

# Canonical initial states of the watched pair: atom 1 excited / both ground.
XSTATE_10 = XState(0.0, 1.0, 0.0, 0.0)
XSTATE_00 = XState(0.0, 0.0, 0.0, 1.0)

# Cross-check grid shared by the validation suite and the test oracle: decay
# rates, occupations, and exchange couplings spanning the regimes of interest
# (zero temperature, zero coupling, strong backflow).
GRID_GAMMAS = (0.1, 0.2, 0.5)
GRID_OCCUPATIONS = (0.0, 0.5, 2.0)
GRID_OMEGAS = (0.0, 0.3, 0.8)

# Largest accepted gamma, m, omega and relaxation rate gamma (1 + 2m): squares
# and products of rates, and rates times CLI times, stay finite.
MAX_PARAMETER = 1e100
# exp(-x) rounds to 0 for every x from this on (2**-1074 is e^-744.4).
_DECAY_CUTOFF = 746.0
# Smallest accepted gamma: with omega at most MAX_PARAMETER, the real part of
# the k = 1 root (about gamma / 2 at strong coupling) stays a normal float.
MIN_GAMMA = 1e-200


def parameter_grid() -> tuple["ModelParams", ...]:
    """The 27-point cross-check grid, in deterministic lexicographic order."""
    return tuple(
        ModelParams(gamma=g, m=m, omega=om)
        for g in GRID_GAMMAS
        for m in GRID_OCCUPATIONS
        for om in GRID_OMEGAS
    )


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: decay rate ``gamma > 0``, mean reservoir occupancy
    ``m >= 0``, exchange coupling ``omega >= 0``, each a real number (see
    :func:`~qmemory.errors._real`) stored as a Python float."""

    gamma: float
    m: float
    omega: float

    def __post_init__(self) -> None:
        gamma = _real("gamma", self.gamma, MAX_PARAMETER, strict=True)
        if gamma < MIN_GAMMA:
            raise InvariantViolation(f"gamma = {gamma!r} is below the limit of {MIN_GAMMA:g}")
        m = _real("m", self.m, MAX_PARAMETER)
        omega = _real("omega", self.omega, MAX_PARAMETER)
        if gamma * (1.0 + 2.0 * m) > MAX_PARAMETER:
            raise InvariantViolation(f"gamma (1 + 2m) = {gamma * (1.0 + 2.0 * m)!r} "
                                     f"is above the limit of {MAX_PARAMETER:g}")
        if gamma is not self.gamma or m is not self.m or omega is not self.omega:  # converted
            object.__setattr__(self, "gamma", gamma)
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "omega", omega)

    @property
    def relaxation_rate(self) -> float:
        """Population relaxation rate ``gamma (1 + 2m)``; also the decay rate
        of the ``w`` and ``z`` coherences."""
        return self.gamma * (1.0 + 2.0 * self.m)

    @property
    def thermal_occupation(self) -> float:
        """Single-atom excited population ``q = m / (1 + 2m)`` in the thermal
        fixed point."""
        return self.m / (1.0 + 2.0 * self.m)


@dataclass(frozen=True, eq=False)
class ParamFamily:
    """Many parameter sets at once: ``gamma``, ``m`` and ``omega`` as
    read-only float arrays that broadcast against each other, one member per
    element of their broadcast :attr:`shape`.

    Every member must be a valid :class:`ModelParams`; the first one (in C
    order) that is not raises that class's own message.
    """

    gamma: np.ndarray
    m: np.ndarray
    omega: np.ndarray
    shape: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        values = []
        for name in ("gamma", "m", "omega"):
            v = np.array(_real_array(name, getattr(self, name)))
            v.setflags(write=False)
            object.__setattr__(self, name, v)
            values.append(v)
        shape = _broadcast("gamma, m and omega", *(v.shape for v in values))
        object.__setattr__(self, "shape", shape)
        g, m, omega = values
        with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf fail a bound
            ok = ((MIN_GAMMA <= g) & (g <= MAX_PARAMETER) & (0.0 <= m) & (m <= MAX_PARAMETER)
                  & (0.0 <= omega) & (omega <= MAX_PARAMETER)
                  & (self.relaxation_rate <= MAX_PARAMETER))
        if not ok.all():
            first = np.unravel_index(int(np.argmin(ok)), shape)
            ModelParams(*(float(np.broadcast_to(v, shape)[first]) for v in values))
            raise AssertionError("unreachable: ModelParams accepted a rejected member")

    @property
    def relaxation_rate(self) -> np.ndarray:
        """``gamma (1 + 2m)`` per member, as :attr:`ModelParams.relaxation_rate`."""
        return self.gamma * (1.0 + 2.0 * self.m)

    @property
    def thermal_occupation(self) -> np.ndarray:
        """``m / (1 + 2m)`` per member, as :attr:`ModelParams.thermal_occupation`."""
        return self.m / (1.0 + 2.0 * self.m)


# What the params rule (errors._params) accepts: one parameter set, or a
# family too where the function takes one.
ONE_SET = (ModelParams,)
ANY_SET = (ModelParams, ParamFamily)


def _grid(name: str, value) -> np.ndarray:
    """``value`` as a float array, once it is a nonempty 1-D array of finite
    times that starts at 0 and strictly increases: the rule of every time
    grid.  Raises :class:`InvalidGridError` naming ``name`` otherwise."""
    times = _real_array(name, value, error=InvalidGridError)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise InvalidGridError(f"{name} must be a nonempty 1-D array of finite times")
    if times[0] != 0.0:
        raise InvalidGridError(f"{name} must start at 0, got {float(times[0])!r}")
    if not np.all(np.diff(times) > 0):
        raise InvalidGridError(f"{name} must be strictly increasing")
    return times


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus the integrator samples: an ``(n, 4, 4)`` stack of
    density matrices, one per grid point.  The times pass the rule of
    :func:`integrate_master`'s ``t_grid``.

    The drift fields report the worst raw integrator sample before
    Hermitization/renormalization.  ``rk4_steps`` counts the RK4 steps taken
    over all spans and ``span_powers`` the step-matrix power lists built for
    them: one per run of consecutive spans of equal length, so one for a
    uniform grid.
    """

    times: np.ndarray
    samples: np.ndarray
    max_trace_drift: float = 0.0
    max_hermiticity_defect: float = 0.0
    rk4_steps: int = 0
    span_powers: int = 0

    def __post_init__(self) -> None:
        times = _grid("times", self.times)
        samples = _matrix("samples", self.samples, 4, stack=True)
        if samples.shape[:-2] != times.shape:
            raise InvariantViolation(
                f"samples must be one 4x4 state per time, got shape {samples.shape} "
                f"for {times.size} times")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "samples", samples)
        for name in ("max_trace_drift", "max_hermiticity_defect"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))


# --- Lindblad generator -----------------------------------------------------

def _lowering(atom: int) -> np.ndarray:
    op = np.zeros((4, 4))
    if atom == 1:
        op[2, 0] = op[3, 1] = 1.0  # |11> -> |01>, |10> -> |00>
    else:
        op[1, 0] = op[3, 2] = 1.0  # |11> -> |10>, |01> -> |00>
    return op


_SM = (_lowering(1), _lowering(2))
_SP = tuple(op.T.copy() for op in _SM)
_EXCHANGE = np.zeros((4, 4))
_EXCHANGE[1, 2] = _EXCHANGE[2, 1] = 1.0  # |10><01| + |01><10|


@lru_cache(maxsize=None)
def _generator_terms() -> tuple:
    """The (lowering, raising) dissipators ``D[L]`` of atom 1, then of atom
    2, and the exchange commutator, on row-major vectorized states, in the
    order the generator sums them.  Built on first use: ``np.kron`` at import
    would map in numpy code that a run without the generator never needs."""
    eye = np.eye(4)

    def dissipator(jump):
        number = jump.T @ jump
        return np.kron(jump, jump) - 0.5 * (np.kron(number, eye) + np.kron(eye, number))

    dissipators = tuple((dissipator(sm), dissipator(sp)) for sm, sp in zip(_SM, _SP))
    return dissipators, np.kron(_EXCHANGE, eye) - np.kron(eye, _EXCHANGE)


def _initial_states(rho0: np.ndarray, params: ModelParams | ParamFamily) -> np.ndarray:
    """One valid 4x4 state, or for a :class:`ParamFamily` one per member
    (shape ``params.shape + (4, 4)``), checked as one stack: the first
    invalid member raises what checking it alone would raise."""
    rho0 = _matrix("rho0", rho0, 4, stack=math.inf if isinstance(params, ParamFamily) else False)
    if rho0.ndim > 2 and rho0.shape != params.shape + (4, 4):
        raise DimensionMismatchError(
            f"rho0 must be one 4x4 state or one per member, shape {params.shape + (4, 4)}, "
            f"got shape {rho0.shape}")
    validate_density_matrix(rho0.reshape(-1, 4, 4), name="rho0")
    return rho0


def lindblad_rhs(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """Right-hand side of the master equation for a valid density matrix:
    :func:`superoperator` applied to the row-major vectorized state.

    The result is traceless and Hermitian to round-off (checked by tests, not
    re-checked here).
    """
    rho = validate_density_matrix(_matrix("rho", rho, 4))
    return (superoperator(params) @ rho.reshape(16)).reshape(4, 4)


def _generators(gamma, m, omega) -> np.ndarray:
    """The 16x16 generator of each parameter set: floats give one matrix,
    arrays of shape ``(..., 1, 1)`` a stack, each matrix bit for bit that of
    its floats."""
    dissipators, commutator = _generator_terms()
    liouv = np.zeros(np.broadcast_shapes(np.shape(gamma), (16, 16)), dtype=complex)
    for lowering, raising in dissipators:
        liouv += (m + 1.0) * gamma * lowering
        liouv += m * gamma * raising
    liouv += -1j * omega * commutator
    return liouv


def superoperator(params: ModelParams) -> np.ndarray:
    """16x16 matrix of the generator acting on row-major vectorized states.

    Row-major, ``vec(A rho B) = kron(A, B^T) vec(rho)``.  The jump operators
    are real and ``L^dag L`` and the exchange are symmetric, so ``D[L]`` is
    ``kron(L, L) - (kron(L^dag L, I) + kron(I, L^dag L)) / 2`` and the
    commutator ``kron(H, I) - kron(I, H)``.  Built anew on every call, as a
    writable array the caller owns.
    """
    params = _params(params, ONE_SET)
    return _generators(params.gamma, params.m, params.omega)


# --- RK4 integration ---------------------------------------------------------

def _rk4_increments(terms: np.ndarray, h: np.ndarray, n: np.ndarray) -> list:
    """The increments ``P^(2^j) - I``, ``j = 0 .. bit_length(max(n)) - 1``,
    of the classic RK4 step matrix ``P = I + E`` of size ``h``, for each
    member.

    For the linear, constant generator ``L`` one step is ``P = I + E`` with
    ``E = hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24``; row ``k - 1`` of a member's
    ``terms`` (``(P, 4, 256)``) is ``L^k / k!`` flattened, ``k = 1..4``.
    ``h`` and the step counts ``n`` (integers held as floats) have one entry
    per member.  Each power is squared on the increment (``P^2 = I + 2E +
    E^2``), so that the small entries of ``E`` are never rounded against the
    identity.  Entry ``j`` is ``(increments, rows)``: every member is squared
    as far as the largest ``n`` needs, and ``rows`` picks the members whose
    ``n`` has bit ``j`` set, the only ones that apply that power (all of
    them: ``slice(None)``; none: ``None``).
    """
    # the powers of h as Python floats, which numpy's power does not round alike
    coeffs = np.array([[x, x * x, x**3, x**4] for x in h.tolist()])
    inc = (coeffs[:, None, :] @ terms).reshape(-1, 16, 16)
    level = np.arange(int(np.frexp(n)[1].max()))[:, None]
    odd = np.floor(np.ldexp(n, -level)) % 2.0 == 1.0
    increments = []
    for j, bits in enumerate(odd):
        if j:
            inc = 2.0 * inc + inc @ inc
        rows = slice(None) if bits.all() else np.flatnonzero(bits) if bits.any() else None
        increments.append((inc, rows))
    return increments


def _rk4_steps(increments: list, y: np.ndarray) -> np.ndarray:
    """``n`` RK4 steps ``y -> P^n y`` per member (``y`` of shape ``(P, 16)``)
    by binary powering: ``y -> y + (P^(2^j) - I) y`` for every set bit ``j``
    of that member's ``n``, lowest first, with the increments of
    :func:`_rk4_increments`."""
    y = y.copy()
    for inc, rows in increments:
        if rows is not None:
            y[rows] += (inc[rows] @ y[rows, :, None])[..., 0]
    return y


def integrate_master(
    rho0: np.ndarray,
    params: ModelParams | ParamFamily,
    t_grid,
    *,
    max_step: float | None = None,
) -> Trajectory | tuple[Trajectory, ...]:
    """Integrate the master equation with classic fixed-step RK4.

    This is the independent numerical oracle that ``validate`` sets against
    the closed-form propagator.  The generator is linear and constant, so a
    span of ``n`` steps is advanced by the ``n``-th power of the RK4 step
    matrix, taken by repeated squaring: about ``log2(n)`` 16x16 products
    instead of ``4n`` matrix-vector products.  Spans of equal length share
    one step size and step count, so a run of consecutive equal spans builds
    one power list and the next length replaces it (a uniform grid such as
    ``linspace(0, 10, 21)`` builds one); the samples are those of building
    every span's powers anew.

    Parameters
    ----------
    rho0 : valid 4x4 density matrix at ``t_grid[0] = 0``; for a family, one
        state for every member or one per member (shape ``(P, 4, 4)``).
    params : a :class:`ModelParams`, which gives one :class:`Trajectory`, or
        a 1-D :class:`ParamFamily` of ``P`` members, which gives a tuple of
        ``P``.  A family advances all its members span by span with stacked
        16x16 products, each member with its own step; every member's
        trajectory equals, bit for bit, that member's own call, except that
        ``span_powers`` counts the power lists its block of members built.
        The first member (in order) whose own call would fail raises its
        failure.  A member whose rate ``max(gamma (1 + 2m), omega)`` is
        above :data:`MAX_RK4_RATE` raises :class:`InvariantViolation` naming
        it: its ``L^4 / 4!`` would overflow.
    t_grid : strictly increasing finite sample times starting at 0.
    max_step : override for the internal step bound, finite and positive; by
        default the step satisfies ``h <= min(grid spacing, 1e-3 / relaxation
        rate)`` and also resolves the exchange frequency to the same fraction.
        Either way a span may hold at most :data:`MAX_SPAN_STEPS` default
        steps and a finite number of steps.  A step beyond RK4's stability
        limit whose powers overflow raises :class:`InvariantViolation`.

    The spans advance without floating-point checks; then every sample is
    Hermitized by averaging with its adjoint and renormalized when the trace
    drift exceeds 1e-12 (drift magnitude logged), and the worst raw drift and
    Hermiticity defect are reported on the returned :class:`Trajectory`.  The
    samples are checked as one stack after the last span: a member's first
    failing sample is a non-finite one (its span overflowed), then one whose
    drift exceeds the tolerance, then one that :func:`validate_density_matrix`
    rejects.
    """
    trajectories = _integrate(rho0, params, t_grid, max_step)
    return trajectories if isinstance(params, ParamFamily) else trajectories[0]


def _integrate(rho0, params, t_grid, max_step) -> tuple[Trajectory, ...]:
    """:func:`integrate_master`, one trajectory per member (one for a
    :class:`ModelParams`)."""
    _params(params, ANY_SET)
    if isinstance(params, ParamFamily) and len(params.shape) != 1:
        raise DimensionMismatchError(
            f"integrate_master takes a 1-D family, got shape {params.shape}")
    starts = _initial_states(rho0, params)
    size = params.shape[0] if isinstance(params, ParamFamily) else 1
    times = _grid("t_grid", t_grid)
    spans = np.diff(times)
    if max_step is not None:
        max_step = _real("max_step", max_step, strict=True, error=InvalidGridError)

    gamma, m, omega = (np.broadcast_to(v, (size,)) for v in (params.gamma, params.m, params.omega))
    rate = np.maximum(gamma * (1.0 + 2.0 * m), omega)
    h_default = STEP_RESOLUTION / rate
    h_bound = h_default if max_step is None else np.full(size, max_step)
    # Members fail in member order: the members before the first rejected
    # one are still integrated and checked, and may fail first.
    longest = float(spans.max()) if spans.size else 0.0
    with np.errstate(over="ignore"):  # a subnormal max_step: infinitely many steps
        rejected = ~((rate <= MAX_RK4_RATE) & (longest / h_default <= MAX_SPAN_STEPS)
                     & np.isfinite(longest / h_bound))
    limit = int(np.argmax(rejected)) if rejected.any() else size
    trajectories = []
    for lo in range(0, limit, _BLOCK_MEMBERS):
        block = slice(lo, min(lo + _BLOCK_MEMBERS, limit))
        trajectories += _integrate_block(starts if starts.ndim == 2 else starts[block],
                                         gamma[block], m[block], omega[block], h_bound[block],
                                         times, max_step)
    if limit == size:
        return tuple(trajectories)
    if rate[limit] > MAX_RK4_RATE:
        raise InvariantViolation(f"max(gamma (1 + 2m), omega) = {float(rate[limit])!r} "
                                 f"is above the integrator's limit of {MAX_RK4_RATE:g}")
    hb, hd = float(h_bound[limit]), float(h_default[limit])
    raise InvalidGridError(
        f"a span of {longest!r} needs {longest / hb:.3g} steps of {hb!r}; the limit "
        f"is a finite step count and {MAX_SPAN_STEPS:g} steps of the default {hd!r}"
    )


def _integrate_block(starts, gamma, m, omega, h_bound, times, max_step) -> tuple[Trajectory, ...]:
    """The trajectories of one block of members, or the failure of its
    first failing member."""
    size, spans = len(gamma), np.diff(times)
    # row k - 1 of a member's terms is L^k / k!, flattened
    liouv = _generators(*(v[:, None, None] for v in (gamma, m, omega)))
    square = liouv @ liouv
    terms = np.empty((size, 4, 16, 16), dtype=complex)
    terms[:, 0] = liouv
    np.divide(square, 2.0, out=terms[:, 1])
    np.divide(square @ liouv, 6.0, out=terms[:, 2])
    np.divide(square @ square, 24.0, out=terms[:, 3])
    terms = terms.reshape(-1, 4, 256)
    counts = np.maximum(1.0, np.ceil(spans[:, None] / h_bound))
    steps = spans[:, None] / counts
    keys = [(h.tobytes(), n.tobytes()) for h, n in zip(steps, counts)]
    built = 0
    raw = np.empty((spans.size, size, 16), dtype=complex)
    y = np.broadcast_to(starts.reshape(-1, 16), (size, 16)).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a non-finite sample
        for i, key in enumerate(keys):
            if not i or key != keys[i - 1]:  # some member's (h, n) is not the last span's
                increments = _rk4_increments(terms, steps[i], counts[i])
                built += 1
            y = raw[i] = _rk4_steps(increments, y)
    return _checked_trajectories(starts, times, raw, steps, counts, built, max_step)


def _checked_trajectories(starts, times, raw, steps, counts, built, max_step):
    """The trajectories of the raw samples of :func:`_integrate_block`,
    checked as a loop over one member after another would check them: a
    non-finite sample (the overflow of its span), then a sample's trace
    drift, then its validity, then later samples."""
    n_spans, size = raw.shape[:2]
    raw = raw.transpose(1, 0, 2).reshape(size, n_spans, 4, 4)
    finite = np.isfinite(raw).all(axis=(-2, -1))
    if not finite.all():  # zeroed, so no warning below; a zero trace fails the drift check
        raw = np.where(finite[..., None, None], raw, 0.0)
    rho = 0.5 * (raw + raw.conj().swapaxes(-1, -2))
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    drift = np.abs(tr - 1.0)
    sample = np.arange(n_spans)
    checked = np.where(drift <= TRACE_TOL, n_spans, sample).min(axis=1, initial=n_spans)
    failed = np.flatnonzero(checked < n_spans)
    end = int(failed[0]) + 1 if failed.size else size
    ok = sample < checked[:end, None]
    for p, k in zip(*np.nonzero(ok & (drift[:end] > 1e-12))):
        logger.debug(
            "renormalizing integrator sample at t=%g: trace drift %.3e", times[k + 1], drift[p, k]
        )
        rho[p, k] /= tr[p, k]
    labels = [f"sample(t={t:g})" for t in times[1:]]
    validate_density_matrix(
        rho[:end][ok], dim=4, positivity_tol=SAMPLE_POSITIVITY_TOL,
        name=[labels[k] for k in np.nonzero(ok)[1].tolist()],
    )
    if failed.size:
        p = end - 1
        k = int(checked[p])
        if not finite[p, k]:
            raise InvariantViolation(
                f"RK4 steps of {float(steps[k, p])!r} overflow by t={times[k + 1]:g}: "
                f"max_step={max_step!r} is beyond RK4's stability limit for these rates"
            )
        raise InvariantViolation(
            f"integrator trace drift {drift[p, k]:.3e} at t={times[k + 1]:g} exceeds "
            f"{TRACE_TOL:.0e} before renormalization"
        )

    samples = np.concatenate(
        (np.broadcast_to(starts.reshape(-1, 1, 4, 4), (size, 1, 4, 4)), rho), axis=1)
    drifts = drift.max(axis=1, initial=0.0).tolist()
    defects = hermiticity_defect(raw.reshape(-1, 4, 4)).reshape(size, n_spans)
    defects = defects.max(axis=1, initial=0.0).tolist()
    steps = [sum(map(int, column)) for column in counts.T.tolist()]
    return tuple(
        Trajectory(times=times, samples=samples[p], max_trace_drift=drifts[p],
                   max_hermiticity_defect=defects[p], rk4_steps=steps[p], span_powers=built)
        for p in range(size)
    )


# --- closed-form propagator --------------------------------------------------

def coherence_root(params: ModelParams | ParamFamily):
    """``mu+ = sqrt(R^2/4 - omega^2 - i gamma omega)``, principal branch: the
    k = 1 rates are ``-R +- mu+`` and ``-R +- conj(mu+)``, ``0 < Re mu+ <= R/2``.

    The rates are scaled by ``s = max(R, omega)`` before they are squared, so
    tiny rates do not underflow to a vanishing root.  A :class:`ParamFamily`
    gives an array of its members' roots, each taken with ``cmath`` like one
    member's, whose rounding numpy's square root need not share.
    """
    if isinstance(params, ParamFamily):
        rates, gammas, omegas = (v.ravel().tolist() for v in np.broadcast_arrays(
            params.relaxation_rate, params.gamma, params.omega))
        return np.array(list(map(_root, rates, gammas, omegas)),
                        dtype=complex).reshape(params.shape)
    return _root(params.relaxation_rate, params.gamma, params.omega)


def _root(rate: float, gamma: float, omega: float) -> complex:
    scale = max(rate, omega)
    rate, gamma, omega = (v / scale for v in (rate, gamma, omega))
    return scale * cmath.sqrt(complex(0.25 * rate * rate - omega * omega, -gamma * omega))


def coherence_factors(params: ModelParams | ParamFamily, t):
    """``e^{-R t} cosh(mu+ t)`` and ``e^{-R t} sinh(mu+ t) / mu+`` (scalar or array ``t``).

    Taken as ``e^{(mu+ - R) t}`` times ``(1 + e^{-2 mu+ t}) / 2`` and ``(1 -
    e^{-2 mu+ t}) / (2 mu+)``: every exponential decays, and ``expm1`` keeps
    the second exact for small ``mu+ t``.  Conjugate them for ``mu-``.  For a
    :class:`ParamFamily`, ``t`` must broadcast against its members.
    """
    mu = coherence_root(params)
    tt = np.asarray(t, dtype=float)
    lead = 0.5 * np.exp((mu - params.relaxation_rate) * tt)
    fall = np.expm1(-2.0 * mu * tt)  # e^{-2 mu+ t} - 1
    return lead * (2.0 + fall), -lead * fall / mu


def checked_times(params: ModelParams | ParamFamily, t) -> np.ndarray:
    """``t`` (scalar or array of integer or float dtype) as a float array, once
    every time is finite and nonnegative and the phase ``2 omega t`` is finite
    at the latest of them.

    The closed forms accept exactly these times; raises
    :class:`InvariantViolation` naming ``params`` when it is neither a
    :class:`ModelParams` nor a :class:`ParamFamily`, then naming ``time``.
    For a :class:`ParamFamily` the times are broadcast against the members (a
    read-only view, one time per member); times that do not broadcast raise
    :class:`DimensionMismatchError` naming ``time``.  The first member (in C
    order; a :class:`ModelParams` is one member) with a failing time raises
    what that member's own call with all of its times raises: its first time
    that is not finite and nonnegative, else the overflow of its phase.
    """
    family = isinstance(_params(params, ANY_SET), ParamFamily)
    tt = _real_array("time", t)
    if family:
        tt = np.broadcast_to(tt, _broadcast("time and members", tt.shape, params.shape))
    if tt.ndim == 0:  # one float: no array reductions, which cost microseconds
        earliest = latest = float(tt)
    elif tt.size:
        earliest, latest = float(tt.min()), float(tt.max())
    else:
        return tt
    omega = float(params.omega.max()) if family else params.omega
    if earliest >= 0.0 and math.isfinite(2.0 * omega * latest):
        return tt
    times, omegas = tt.ravel(), np.broadcast_to(params.omega, tt.shape).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(np.isfinite(times) & (times >= 0.0) & np.isfinite(2.0 * omegas * times))
    if not bad.any():  # the largest coupling and time belong to different members
        return tt
    first = int(np.argmax(bad))
    shape = params.shape if family else ()  # a ModelParams is one member
    members = np.broadcast_to(np.arange(math.prod(shape)).reshape(shape), tt.shape).ravel()
    own = times[members == members[first]]
    bad = own[~(np.isfinite(own) & (own >= 0.0))]
    if bad.size:
        raise InvariantViolation(f"time must be finite and nonnegative, got {float(bad[0])!r}")
    raise InvariantViolation(
        f"phase 2 omega t overflows at t={float(own.max())!r}, omega={float(omegas[first])!r}")


def relaxation_envelope(params: ModelParams | ParamFamily, tt: np.ndarray) -> np.ndarray:
    """``e^{-R t}`` at checked times ``tt``, ``R = gamma (1 + 2m)``.

    Times beyond ``_DECAY_CUTOFF / R``, where the envelope rounds to 0, are
    clipped there first, so ``R t`` cannot overflow: the values are those of
    ``np.exp(-R * tt)``, without its overflow warning, and cheaper than
    suppressing the warning.
    """
    rate = params.relaxation_rate
    return np.exp(-rate * np.minimum(tt, _DECAY_CUTOFF / rate))


def propagate_exact(rho0: np.ndarray, params: ModelParams | ParamFamily, t) -> np.ndarray:
    """Closed-form propagation of any valid 4x4 state, sector by sector.

    Every sector follows its closed form in the module docstring.  In the
    single-atom map ``T``, ``T_xy`` is the probability that an atom in ``y``
    at time 0 is in ``x`` at ``t`` (``e`` excited, ``g`` ground).  A scalar
    ``t`` gives one state, an array a stack of its shape; every time must be
    finite and nonnegative, with a finite phase ``2 omega t``.  The flow is
    completely positive, so only ``rho0`` is validated.

    For a :class:`ParamFamily` the times broadcast against the members as in
    :func:`checked_times`, and ``rho0`` is one state for every member or one
    per member (shape ``params.shape + (4, 4)``); the result has the
    broadcast shape plus ``(4, 4)``.  Every member's states equal, bit for
    bit, that member's own call.  The states are checked first, as one
    stack, then the times: the first failing member raises its own message.
    """
    rho0 = _initial_states(rho0, params)
    tt = checked_times(params, t)
    shape = tt.shape
    tt = np.atleast_1d(tt)  # a time alone rounds as in an array: no numpy scalar arithmetic

    rate, gamma, omega = params.relaxation_rate, params.gamma, params.omega
    q = params.thermal_occupation
    with np.errstate(over="ignore"):  # R t beyond the float range: the decays are 0
        decay = np.exp(-rate * tt)
        rise = -np.expm1(-rate * tt)  # 1 - decay
        cosh, sinh = coherence_factors(params, tt)
    t_ee, t_eg = q + (1.0 - q) * decay, q * rise
    t_ge, t_gg = (1.0 - q) * rise, (1.0 - q) + q * decay
    a0, b0, c0, d0 = (rho0[..., k, k].real for k in range(4))
    s0, u0, y0 = b0 + c0, b0 - c0, rho0[..., 1, 2].imag
    a = t_ee * t_ee * a0 + t_ee * t_eg * s0 + t_eg * t_eg * d0
    s = 2.0 * t_ee * t_ge * a0 + (t_ee * t_gg + t_eg * t_ge) * s0 + 2.0 * t_eg * t_gg * d0
    d = t_ge * t_ge * a0 + t_ge * t_gg * s0 + t_gg * t_gg * d0
    phase = 2.0 * omega * tt
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    u = decay * (u0 * cos_p - 2.0 * y0 * sin_p)
    y = decay * (y0 * cos_p + 0.5 * u0 * sin_p)

    c1, c2 = rho0[..., 0, 2] + rho0[..., 1, 3], rho0[..., 0, 1] + rho0[..., 2, 3]
    e1, e2 = rho0[..., 0, 2] - rho0[..., 1, 3], rho0[..., 0, 1] - rho0[..., 2, 3]
    sectors = []
    for sign, ch, sh in ((1.0, cosh, sinh), (-1.0, np.conj(cosh), np.conj(sinh))):
        u_k, v_k = c1 + sign * c2, e2 + sign * e1
        sectors.append(((ch + 0.5 * rate * sh) * u_k + 1j * omega * sh * v_k,
                        (1j * omega - sign * gamma) * sh * u_k + (ch - 0.5 * rate * sh) * v_k))
    (u_p, v_p), (u_m, v_m) = sectors
    c1, c2 = 0.5 * (u_p + u_m), 0.5 * (u_p - u_m)
    e2, e1 = 0.5 * (v_p + v_m), 0.5 * (v_p - v_m)

    rho = np.empty(tt.shape + (4, 4), dtype=complex)
    for (i, j), value in (((0, 0), a), ((1, 1), 0.5 * (s + u)), ((2, 2), 0.5 * (s - u)),
                          ((3, 3), d), ((1, 2), decay * rho0[..., 1, 2].real + 1j * y),
                          ((0, 3), rho0[..., 0, 3] * decay),
                          ((0, 2), 0.5 * (c1 + e1)), ((1, 3), 0.5 * (c1 - e1)),
                          ((0, 1), 0.5 * (c2 + e2)), ((2, 3), 0.5 * (c2 - e2))):
        rho[..., i, j] = value
        rho[..., j, i] = np.conj(value)
    return rho.reshape(shape + (4, 4))


def propagate_xstate_exact(x0: XState, params: ModelParams, t: float) -> XState:
    """:func:`propagate_exact` for one X state at one time ``t`` (a real
    number, not an array); the flow keeps the X family closed.  Validates
    ``x0`` and returns a validated state.
    """
    rho0 = embed_xstate(x0)
    _params(params, ONE_SET)
    return extract_xstate(propagate_exact(rho0, params, _real("time", t))).validate()


def propagate_xstate_published(x0: XState, params: ModelParams, t: float) -> XState:
    """Verbatim evaluation of the previously published closed-form solution.

    Kept only so its transcription defects stay reproducible: the printed
    expressions break the ``t = 0`` identity (``b0 = 1`` alone gives
    ``b(0) = 1.5`` and ``c(0) = -0.5`` for every ``m``) and oscillate at
    ``omega t`` where the rate equations force ``2 omega t``.  The returned
    record is NOT validated and must not be fed to other operations.
    """
    x0.validate()
    _params(params, ONE_SET)
    t = _real("time", t)
    m = params.m
    a0, b0, c0, d0 = x0.a, x0.b, x0.c, x0.d
    norm = (2.0 * m + 1.0) ** 2
    big_x = math.exp(-params.gamma * (1.0 + 2.0 * m) * t)
    cos_w = math.cos(params.omega * t)
    quad = (2.0 * a0 + 2.0 * d0 - 1.0) * m**2 + (3.0 * a0 + d0 - 1.0) * m + a0

    a = (m**2 + (2.0 * (a0 - d0) * m**2 + (a0 - d0 + 1.0) * m) * big_x + quad * big_x**2) / norm
    b_lin = (
        2.0 * (a0 + 2.0 * c0 + d0 - 1.0 - (b0 - c0) * cos_w) * m**2
        + (a0 + 4.0 * c0 + 3.0 * d0 - 2.0 - 2.0 * (b0 - c0) * cos_w) * m
        + (c0 + d0 - 1.0 - 0.5 * (b0 - c0) * cos_w)
    )
    b = (m * (m + 1.0) - b_lin * big_x - quad * big_x**2) / norm
    c_lin = (
        2.0 * (a0 + 2.0 * c0 + d0 - 1.0 - (b0 - c0) * cos_w) * m**2
        + (3.0 * a0 + 4.0 * c0 + d0 - 2.0 - 2.0 * (b0 - c0) * cos_w) * m
        - 0.5 * (b0 - c0) * cos_w
    )
    c = (m * (m + 1.0) + c_lin * big_x - quad * big_x**2) / norm
    d = (
        (m + 1.0) ** 2
        - (m + 1.0) * (2.0 * (a0 - d0) * m + (a0 + d0 - 1.0)) * big_x
        + quad * big_x**2
    ) / norm
    z = (complex(x0.z) + 0.5j * (b0 - c0) * math.sin(params.omega * t)) * big_x
    w = complex(x0.w) * big_x
    return XState(a=a, b=b, c=c, d=d, z=z, w=w)


# --- reduced populations of the watched atom ---------------------------------

def population_from_excited(params: ModelParams | ParamFamily, t):
    """Excited population of atom 1 when the pair starts in ``|10>``.

    Accepts a scalar or array ``t`` and a :class:`ParamFamily` (see
    :func:`checked_times`).  Equals ``a(t) + b(t)`` of the propagated state;
    the closed form mixes the thermal background with an exchange
    oscillation at ``2 omega`` under the relaxation envelope.
    """
    tt = checked_times(params, t)
    m = params.m
    osc = 1.0 + (1.0 + 2.0 * m) * np.cos(2.0 * params.omega * tt)
    value = (2.0 * m + osc * relaxation_envelope(params, tt)) / (2.0 * (1.0 + 2.0 * m))
    return float(value) if tt.ndim == 0 else value


def population_from_ground(params: ModelParams | ParamFamily, t):
    """Excited population of atom 1 when the pair starts in ``|00>``.

    Monotone thermalization ``q (1 - e^{-rate t})``; independent of ``omega``.
    Accepts a scalar or array ``t`` and a :class:`ParamFamily` (see
    :func:`checked_times`).
    """
    tt = checked_times(params, t)
    value = params.thermal_occupation * (1.0 - relaxation_envelope(params, tt))
    return float(value) if tt.ndim == 0 else value


def thermal_xstate(params: ModelParams) -> XState:
    """Thermal fixed point: product of single-atom thermal states."""
    q = _params(params, ONE_SET).thermal_occupation
    return XState(a=q * q, b=q * (1.0 - q), c=q * (1.0 - q), d=(1.0 - q) ** 2)
