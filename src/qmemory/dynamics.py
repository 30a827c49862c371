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

:func:`propagate_exact` evaluates every sector over a whole array of times;
:func:`propagate_xstate_exact` is its view of one X state at one time.

Two quantities recur everywhere: the relaxation rate ``gamma (1 + 2m)`` and
the thermal occupation ``q = m / (1 + 2m)`` of a single atom.

A previously published closed-form solution of the same rate equations ships
verbatim as :func:`propagate_xstate_published`.  It is defective (it fails the
``t = 0`` identity and oscillates at half the correct frequency) and exists
solely so the defect is reproducible; see the ``validate`` CLI subcommand.
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
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
from .errors import DimensionMismatchError, InvalidGridError, InvariantViolation

logger = logging.getLogger(__name__)

# Integrator policy: internal step keeps both the relaxation rate and the
# exchange frequency resolved to 1e-3 of their time scales.
STEP_RESOLUTION = 1e-3
# Integrator samples get an extra slack decade on positivity compared to the
# 1e-10 used for hand-constructed states.
SAMPLE_POSITIVITY_TOL = 1e-9
# Longest integrator span, in steps of the default policy.  Up to 1e21 such
# steps every failure on the cross-check grid is a named trace-drift error;
# from 1e22 on the step-matrix powers overflow.  The round-off that grows
# with the powers scales with the span times the rates, not with the step
# count, so a finer ``max_step`` does not move this limit.
MAX_SPAN_STEPS = 1e21

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
    ``m >= 0``, exchange coupling ``omega >= 0``."""

    gamma: float
    m: float
    omega: float

    def __post_init__(self) -> None:
        for name in ("gamma", "m", "omega"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvariantViolation(f"{name} must be a finite number, got {v!r}")
        if self.gamma <= 0:
            raise InvariantViolation(f"gamma must be positive, got {self.gamma!r}")
        if self.gamma < MIN_GAMMA:
            raise InvariantViolation(
                f"gamma = {self.gamma!r} is below the limit of {MIN_GAMMA:g}")
        if self.m < 0:
            raise InvariantViolation(f"m must be nonnegative, got {self.m!r}")
        if self.omega < 0:
            raise InvariantViolation(f"omega must be nonnegative, got {self.omega!r}")
        for name, v in (("gamma", self.gamma), ("m", self.m), ("omega", self.omega),
                        ("gamma (1 + 2m)", self.relaxation_rate)):
            if v > MAX_PARAMETER:
                raise InvariantViolation(
                    f"{name} = {v!r} is above the limit of {MAX_PARAMETER:g}")

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


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus one integrator sample (a 4x4 density matrix) per grid
    point.

    The drift fields report the worst raw integrator sample before
    Hermitization/renormalization.
    """

    times: np.ndarray
    samples: tuple
    max_trace_drift: float = 0.0
    max_hermiticity_defect: float = 0.0

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise InvalidGridError("times must be a nonempty 1-D array")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise InvalidGridError("times must be strictly increasing")
        if len(self.samples) != times.size:
            raise InvariantViolation(
                f"{len(self.samples)} samples for {times.size} grid points"
            )
        object.__setattr__(self, "times", times)


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
_NUM_EXCITED = tuple(sp @ sm for sp, sm in zip(_SP, _SM))   # sigma^+ sigma^-
_NUM_GROUND = tuple(sm @ sp for sp, sm in zip(_SP, _SM))    # sigma^- sigma^+
_EXCHANGE = np.zeros((4, 4))
_EXCHANGE[1, 2] = _EXCHANGE[2, 1] = 1.0  # |10><01| + |01><10|


def _lindblad_apply(mat: np.ndarray, params: ModelParams) -> np.ndarray:
    """Apply the generator to an arbitrary 4x4 matrix (no validation)."""
    g, m, omega = params.gamma, params.m, params.omega
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        sm, sp = _SM[i], _SP[i]
        out += (m + 1.0) * g * (
            sm @ mat @ sp - 0.5 * (_NUM_EXCITED[i] @ mat + mat @ _NUM_EXCITED[i])
        )
        out += m * g * (
            sp @ mat @ sm - 0.5 * (_NUM_GROUND[i] @ mat + mat @ _NUM_GROUND[i])
        )
    if omega != 0.0:
        out += -1j * omega * (_EXCHANGE @ mat - mat @ _EXCHANGE)
    return out


def _one_state(rho: np.ndarray) -> np.ndarray:
    """``rho`` checked by :func:`validate_density_matrix` as one 4x4 state;
    a stack, which that function also accepts, is rejected."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2:
        raise DimensionMismatchError(f"rho must be square, got shape {rho.shape}")
    return validate_density_matrix(rho, dim=4)


def lindblad_rhs(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """Right-hand side of the master equation for a valid density matrix.

    The result is traceless and Hermitian to round-off (checked by tests, not
    re-checked here).
    """
    return _lindblad_apply(_one_state(rho), params)


@lru_cache(maxsize=64)
def superoperator(params: ModelParams) -> np.ndarray:
    """16x16 matrix of the generator acting on row-major vectorized states.

    Built by applying the generator to the 16 matrix units; cached per
    parameter set and returned read-only.
    """
    cols = []
    for k in range(16):
        unit = np.zeros((4, 4), dtype=complex)
        unit.flat[k] = 1.0
        cols.append(_lindblad_apply(unit, params).reshape(16))
    liouv = np.column_stack(cols)
    liouv.setflags(write=False)
    return liouv


# --- RK4 integration ---------------------------------------------------------

def _rk4_steps(terms: np.ndarray, y: np.ndarray, h: float, n: int) -> np.ndarray:
    """``n`` classic RK4 steps ``y -> P y`` of size ``h``.

    For the linear, constant generator ``L`` one step is ``P = I + E`` with
    ``E = hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24``; row ``k - 1`` of ``terms``
    is ``L^k / k!`` flattened, ``k = 1..4``.  ``P^n y`` is taken by binary
    powering on the increment (``P^2 = I + 2E + E^2``), so that the small
    entries of ``E`` are never rounded against the identity.
    """
    inc = (np.array([h, h * h, h**3, h**4]) @ terms).reshape(16, 16)
    while True:
        if n & 1:
            y = y + inc @ y
        n >>= 1
        if not n:
            return y
        inc = 2.0 * inc + inc @ inc


def integrate_master(
    rho0: np.ndarray,
    params: ModelParams,
    t_grid,
    *,
    max_step: float | None = None,
) -> Trajectory:
    """Integrate the master equation with classic fixed-step RK4.

    This is the independent numerical oracle that ``validate`` sets against
    the closed-form propagator.  The generator is linear and constant, so a
    span of ``n`` steps is advanced by the ``n``-th power of the RK4 step
    matrix, taken by repeated squaring: about ``log2(n)`` 16x16 products
    instead of ``4n`` matrix-vector products.

    Parameters
    ----------
    rho0 : valid 4x4 density matrix at ``t_grid[0] = 0``.
    t_grid : strictly increasing finite sample times starting at 0.
    max_step : override for the internal step bound, finite and positive; by
        default the step satisfies ``h <= min(grid spacing, 1e-3 / relaxation
        rate)`` and also resolves the exchange frequency to the same fraction.
        Either way a span may hold at most :data:`MAX_SPAN_STEPS` default
        steps and a finite number of steps.  A step beyond RK4's stability
        limit whose powers overflow raises :class:`InvariantViolation`.

    Every sample is Hermitized by averaging with its adjoint and renormalized
    when the trace drift exceeds 1e-12 (drift magnitude logged); the worst raw
    drift and Hermiticity defect are reported on the returned
    :class:`Trajectory`.  The samples are checked as one stack after the last
    span, with one :func:`validate_density_matrix` call.
    """
    rho0 = _one_state(rho0)
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise InvalidGridError("t_grid must be a nonempty 1-D array of finite times")
    if times[0] != 0.0:
        raise InvalidGridError(f"t_grid must start at 0, got {times[0]!r}")
    spans = np.diff(times)
    if not np.all(spans > 0):
        raise InvalidGridError("t_grid must be strictly increasing")

    h_default = STEP_RESOLUTION / max(params.relaxation_rate, params.omega)
    h_bound = h_default if max_step is None else float(max_step)
    if not (math.isfinite(h_bound) and h_bound > 0.0):
        raise InvalidGridError(f"max_step must be finite and positive, got {max_step!r}")
    longest = float(spans.max()) if spans.size else 0.0
    if not (longest / h_default <= MAX_SPAN_STEPS and math.isfinite(longest / h_bound)):
        raise InvalidGridError(
            f"a span of {longest!r} needs {longest / h_bound:.3g} steps of {h_bound!r}; the limit "
            f"is a finite step count and {MAX_SPAN_STEPS:g} steps of the default {h_default!r}"
        )

    liouv = superoperator(params)
    square = liouv @ liouv
    terms = np.stack(
        [liouv, square / 2.0, square @ liouv / 6.0, square @ square / 24.0]
    ).reshape(4, 256)
    y = rho0.reshape(16).astype(complex)
    states = []
    overflow = None
    for left, right in zip(times[:-1], times[1:]):
        span = float(right - left)
        n = max(1, math.ceil(span / h_bound))
        try:
            with np.errstate(over="raise", invalid="raise"):
                y = _rk4_steps(terms, y, span / n, n)
        except FloatingPointError:
            overflow = InvariantViolation(
                f"RK4 steps of {span / n!r} overflow by t={right:g}: max_step={max_step!r} "
                f"is beyond RK4's stability limit for these rates"
            )
            break
        states.append(y)

    # Every sample is checked at once, in the order a per-sample loop would
    # fail: a sample's trace drift, then its validity, then later samples, and
    # a span that overflowed only after the samples before it.
    raw = np.array(states, dtype=complex).reshape(-1, 4, 4)
    rho = 0.5 * (raw + raw.conj().swapaxes(1, 2))
    tr = np.trace(rho, axis1=1, axis2=2).real
    drift = np.abs(tr - 1.0)
    bad = np.flatnonzero(~(drift <= TRACE_TOL))  # NaN too
    checked = int(bad[0]) if bad.size else len(rho)
    for k in np.flatnonzero(drift[:checked] > 1e-12):
        logger.debug(
            "renormalizing integrator sample at t=%g: trace drift %.3e", times[k + 1], drift[k]
        )
        rho[k] /= tr[k]
    validate_density_matrix(
        rho[:checked], dim=4, positivity_tol=SAMPLE_POSITIVITY_TOL,
        name=[f"sample(t={t:g})" for t in times[1:checked + 1]],
    )
    if checked < len(rho):
        raise InvariantViolation(
            f"integrator trace drift {drift[checked]:.3e} at t={times[checked + 1]:g} exceeds "
            f"{TRACE_TOL:.0e} before renormalization"
        )
    if overflow is not None:
        raise overflow

    return Trajectory(
        times=times,
        samples=(rho0.copy(), *rho),
        max_trace_drift=float(drift.max(initial=0.0)),
        max_hermiticity_defect=float(hermiticity_defect(raw).max(initial=0.0)),
    )


# --- closed-form propagator --------------------------------------------------

def coherence_root(params: ModelParams) -> complex:
    """``mu+ = sqrt(R^2/4 - omega^2 - i gamma omega)``, principal branch: the
    k = 1 rates are ``-R +- mu+`` and ``-R +- conj(mu+)``, ``0 < Re mu+ <= R/2``.

    The rates are scaled by ``s = max(R, omega)`` before they are squared, so
    tiny rates do not underflow to a vanishing root.
    """
    scale = max(params.relaxation_rate, params.omega)
    rate, gamma, omega = (v / scale for v in (params.relaxation_rate, params.gamma, params.omega))
    return scale * cmath.sqrt(complex(0.25 * rate * rate - omega * omega, -gamma * omega))


def coherence_combinations(mat: np.ndarray) -> tuple:
    """``(c1, c2, e1, e2)`` of the k = +1 elements of ``mat`` (shape 4 x 4 x ...):
    atom 1's coherence ``c1``, atom 2's ``c2``, and their partners ``e1``, ``e2``."""
    return (mat[0, 2] + mat[1, 3], mat[0, 1] + mat[2, 3],
            mat[0, 2] - mat[1, 3], mat[0, 1] - mat[2, 3])


def coherence_factors(params: ModelParams, t):
    """``e^{-R t} cosh(mu+ t)`` and ``e^{-R t} sinh(mu+ t) / mu+`` (scalar or array ``t``).

    Taken as ``e^{(mu+ - R) t}`` times ``(1 + e^{-2 mu+ t}) / 2`` and ``(1 -
    e^{-2 mu+ t}) / (2 mu+)``: every exponential decays, and ``expm1`` keeps
    the second exact for small ``mu+ t``.  Conjugate them for ``mu-``.
    """
    mu = coherence_root(params)
    tt = np.asarray(t, dtype=float)
    lead = 0.5 * np.exp((mu - params.relaxation_rate) * tt)
    fall = np.expm1(-2.0 * mu * tt)  # e^{-2 mu+ t} - 1
    return lead * (2.0 + fall), -lead * fall / mu


def propagate_exact(rho0: np.ndarray, params: ModelParams, t) -> np.ndarray:
    """Closed-form propagation of any valid 4x4 state, sector by sector.

    Every sector follows its closed form in the module docstring.  In the
    single-atom map ``T``, ``T_xy`` is the probability that an atom in ``y``
    at time 0 is in ``x`` at ``t`` (``e`` excited, ``g`` ground).  A scalar
    ``t`` gives one state, a 1-D array a stack; every time must be finite and
    nonnegative, with a finite phase ``2 omega t``.  The flow is completely
    positive, so only ``rho0`` is validated.
    """
    rho0 = _one_state(rho0)
    tt = np.asarray(t, dtype=float)
    bad = tt[~(np.isfinite(tt) & (tt >= 0.0))]
    if bad.size:
        raise InvariantViolation(f"time must be finite and nonnegative, got {float(bad[0])!r}")
    latest = float(tt.max()) if tt.size else 0.0
    if not math.isfinite(2.0 * params.omega * latest):
        raise InvariantViolation(
            f"phase 2 omega t overflows at t={latest!r}, omega={params.omega!r}")

    rate, gamma, omega = params.relaxation_rate, params.gamma, params.omega
    q = params.thermal_occupation
    with np.errstate(over="ignore"):  # R t beyond the float range: the decays are 0
        decay = np.exp(-rate * tt)
        rise = -np.expm1(-rate * tt)  # 1 - decay
        cosh, sinh = coherence_factors(params, tt)
    t_ee, t_eg = q + (1.0 - q) * decay, q * rise
    t_ge, t_gg = (1.0 - q) * rise, (1.0 - q) + q * decay
    a0, b0, c0, d0 = np.diag(rho0).real.tolist()
    s0, u0, y0 = b0 + c0, b0 - c0, rho0[1, 2].imag
    a = t_ee * t_ee * a0 + t_ee * t_eg * s0 + t_eg * t_eg * d0
    s = 2.0 * t_ee * t_ge * a0 + (t_ee * t_gg + t_eg * t_ge) * s0 + 2.0 * t_eg * t_gg * d0
    d = t_ge * t_ge * a0 + t_ge * t_gg * s0 + t_gg * t_gg * d0
    phase = 2.0 * omega * tt
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    u = decay * (u0 * cos_p - 2.0 * y0 * sin_p)
    y = decay * (y0 * cos_p + 0.5 * u0 * sin_p)

    c1, c2, e1, e2 = coherence_combinations(rho0)
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
                          ((3, 3), d), ((1, 2), decay * rho0[1, 2].real + 1j * y),
                          ((0, 3), rho0[0, 3] * decay),
                          ((0, 2), 0.5 * (c1 + e1)), ((1, 3), 0.5 * (c1 - e1)),
                          ((0, 1), 0.5 * (c2 + e2)), ((2, 3), 0.5 * (c2 - e2))):
        rho[..., i, j] = value
        rho[..., j, i] = np.conj(value)
    return rho


def propagate_xstate_exact(x0: XState, params: ModelParams, t: float) -> XState:
    """:func:`propagate_exact` for one X state at one time ``t`` (a Python
    ``int`` or ``float``); the flow keeps the X family closed.  Validates
    ``x0`` and returns a validated state.
    """
    rho0 = embed_xstate(x0)
    if not isinstance(t, (int, float)):
        raise InvariantViolation(f"time must be a Python int or float, got {t!r}")
    return extract_xstate(propagate_exact(rho0, params, t)).validate()


def propagate_xstate_published(x0: XState, params: ModelParams, t: float) -> XState:
    """Verbatim evaluation of the previously published closed-form solution.

    Kept only so its transcription defects stay reproducible: the printed
    expressions break the ``t = 0`` identity (``b0 = 1`` alone gives
    ``b(0) = 1.5`` and ``c(0) = -0.5`` for every ``m``) and oscillate at
    ``omega t`` where the rate equations force ``2 omega t``.  The returned
    record is NOT validated and must not be fed to other operations.
    """
    x0.validate()
    if not (isinstance(t, (int, float)) and math.isfinite(t)) or t < 0:
        raise InvariantViolation(f"time must be finite and nonnegative, got {t!r}")
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

def population_from_excited(params: ModelParams, t):
    """Excited population of atom 1 when the pair starts in ``|10>``.

    Accepts a scalar or array ``t``.  Equals ``a(t) + b(t)`` of the propagated
    state; the closed form mixes the thermal background with an exchange
    oscillation at ``2 omega`` under the relaxation envelope.
    """
    m = params.m
    tt = np.asarray(t, dtype=float)
    decay = np.exp(-params.relaxation_rate * tt)
    osc = 1.0 + (1.0 + 2.0 * m) * np.cos(2.0 * params.omega * tt)
    value = (2.0 * m + osc * decay) / (2.0 * (1.0 + 2.0 * m))
    return float(value) if tt.ndim == 0 else value


def population_from_ground(params: ModelParams, t):
    """Excited population of atom 1 when the pair starts in ``|00>``.

    Monotone thermalization ``q (1 - e^{-rate t})``; independent of ``omega``.
    """
    tt = np.asarray(t, dtype=float)
    value = params.thermal_occupation * (1.0 - np.exp(-params.relaxation_rate * tt))
    return float(value) if tt.ndim == 0 else value


def thermal_xstate(params: ModelParams) -> XState:
    """Thermal fixed point: product of single-atom thermal states."""
    q = params.thermal_occupation
    return XState(a=q * q, b=q * (1.0 - q), c=q * (1.0 - q), d=(1.0 - q) ** 2)
