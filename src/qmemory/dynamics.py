"""Master-equation dynamics of two coupled atoms in local thermal reservoirs.

The model: two identical two-level atoms, each damped by its own structured
bath of finite mean occupancy ``m`` at rate ``gamma``, coherently coupled by an
excitation-exchange interaction of strength ``omega``.  In the excited-first
product basis ``|11>, |10>, |01>, |00>`` the generator is

    d(rho)/dt =   (m+1) gamma sum_i D[sigma_i^-](rho)
                +  m    gamma sum_i D[sigma_i^+](rho)
                -  i omega [ sigma_1^+ sigma_2^- + sigma_1^- sigma_2^+ , rho ]

with ``D[L](rho) = L rho L^dag - (L^dag L rho + rho L^dag L)/2``.

The X-state family is closed under this flow.  The component rate equations
decouple into blocks, which is what the trusted propagator exploits:

* ``w`` and ``Re z`` decay at ``gamma (1 + 2m)``;
* ``u = b - c`` and ``y = Im z`` perform a damped rotation at angular
  frequency ``2 omega``;
* the population sums ``(a, b + c, d)`` never see ``omega``: each atom
  relaxes under its own single-atom map, so they evolve under the product of
  two such maps, in closed form.

Two quantities recur everywhere: the relaxation rate ``gamma (1 + 2m)`` and
the thermal occupation ``q = m / (1 + 2m)`` of a single atom.

A previously published closed-form solution of the same rate equations ships
verbatim as :func:`propagate_xstate_published`.  It is defective (it fails the
``t = 0`` identity and oscillates at half the correct frequency) and exists
solely so the defect is reproducible; see the ``validate`` CLI subcommand.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .densmat import (
    TRACE_TOL,
    XState,
    hermiticity_defect,
    validate_density_matrix,
)
from .errors import InvalidGridError, InvariantViolation

logger = logging.getLogger(__name__)

# Integrator policy: internal step keeps both the relaxation rate and the
# exchange frequency resolved to 1e-3 of their time scales.
STEP_RESOLUTION = 1e-3
# Integrator samples get an extra slack decade on positivity compared to the
# 1e-10 used for hand-constructed states.
SAMPLE_POSITIVITY_TOL = 1e-9

# Canonical initial states of the watched pair: atom 1 excited / both ground.
XSTATE_10 = XState(0.0, 1.0, 0.0, 0.0)
XSTATE_00 = XState(0.0, 0.0, 0.0, 1.0)

# Cross-check grid shared by the validation suite and the test oracle: decay
# rates, occupations, and exchange couplings spanning the regimes of interest
# (zero temperature, zero coupling, strong backflow).
GRID_GAMMAS = (0.1, 0.2, 0.5)
GRID_OCCUPATIONS = (0.0, 0.5, 2.0)
GRID_OMEGAS = (0.0, 0.3, 0.8)


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
        if self.m < 0:
            raise InvariantViolation(f"m must be nonnegative, got {self.m!r}")
        if self.omega < 0:
            raise InvariantViolation(f"omega must be nonnegative, got {self.omega!r}")

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


@dataclass(frozen=True)
class XStateDeriv:
    """Component-wise time derivative of an X state (populations sum to 0)."""

    da: float
    db: float
    dc: float
    dd: float
    dz: complex
    dw: complex


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


def lindblad_rhs(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """Right-hand side of the master equation for a valid density matrix.

    The result is traceless and Hermitian to round-off (checked by tests, not
    re-checked here).
    """
    rho = validate_density_matrix(rho, dim=4)
    return _lindblad_apply(rho, params)


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

    Every sample is Hermitized by averaging with its adjoint and renormalized
    when the trace drift exceeds 1e-12 (drift magnitude logged); the worst raw
    drift and Hermiticity defect are reported on the returned
    :class:`Trajectory`.
    """
    rho0 = validate_density_matrix(rho0, dim=4)
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise InvalidGridError("t_grid must be a nonempty 1-D array of finite times")
    if times[0] != 0.0:
        raise InvalidGridError(f"t_grid must start at 0, got {times[0]!r}")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise InvalidGridError("t_grid must be strictly increasing")

    if max_step is None:
        h_bound = STEP_RESOLUTION / params.relaxation_rate
        if params.omega > 0.0:
            h_bound = min(h_bound, STEP_RESOLUTION / params.omega)
    else:
        h_bound = float(max_step)
        if not (math.isfinite(h_bound) and h_bound > 0.0):
            raise InvalidGridError(f"max_step must be finite and positive, got {max_step!r}")
        if not math.isfinite(float(times[-1]) / h_bound):
            raise InvalidGridError(
                f"t_grid[-1] / max_step is not a finite step count for max_step={max_step!r}"
            )

    liouv = superoperator(params)
    terms = np.stack(
        [np.linalg.matrix_power(liouv, k) / math.factorial(k) for k in range(1, 5)]
    ).reshape(4, 256)
    y = rho0.reshape(16).astype(complex)
    samples = [rho0.copy()]
    worst_drift = 0.0
    worst_defect = 0.0

    for left, right in zip(times[:-1], times[1:]):
        span = float(right - left)
        n = max(1, math.ceil(span / h_bound))
        y = _rk4_steps(terms, y, span / n, n)

        raw = y.reshape(4, 4)
        defect = hermiticity_defect(raw)
        rho = 0.5 * (raw + raw.conj().T)
        tr = float(np.trace(rho).real)
        drift = abs(tr - 1.0)
        worst_defect = max(worst_defect, defect)
        worst_drift = max(worst_drift, drift)
        if drift > TRACE_TOL:
            raise InvariantViolation(
                f"integrator trace drift {drift:.3e} at t={right:g} exceeds "
                f"{TRACE_TOL:.0e} before renormalization"
            )
        if drift > 1e-12:
            logger.debug(
                "renormalizing integrator sample at t=%g: trace drift %.3e", right, drift
            )
            rho = rho / tr
        validate_density_matrix(
            rho, dim=4, positivity_tol=SAMPLE_POSITIVITY_TOL, name=f"sample(t={right:g})"
        )
        samples.append(rho)

    return Trajectory(
        times=times,
        samples=tuple(samples),
        max_trace_drift=worst_drift,
        max_hermiticity_defect=worst_defect,
    )


# --- X-state rate equations and trusted propagator ---------------------------

def xstate_rhs(x: XState, params: ModelParams) -> XStateDeriv:
    """Component-wise rate equations on the X-state family.

    Matches embedding the state, applying :func:`lindblad_rhs`, and reading
    the X components back (tested to 1e-13).  The population derivatives sum
    to zero exactly in exact arithmetic.
    """
    x.validate()
    g, m, omega = params.gamma, params.m, params.omega
    exchange = (1j * omega * (x.z - np.conj(x.z))).real  # i omega (z - z*) = -2 omega Im z
    da = g * (-2.0 * (m + 1.0) * x.a + m * x.b + m * x.c)
    db = g * ((m + 1.0) * x.a - (2.0 * m + 1.0) * x.b + m * x.d) + exchange
    dc = g * ((m + 1.0) * x.a - (2.0 * m + 1.0) * x.c + m * x.d) - exchange
    dd = g * ((m + 1.0) * x.b + (m + 1.0) * x.c - 2.0 * m * x.d)
    dz = -g * (2.0 * m + 1.0) * x.z + 1j * omega * (x.b - x.c)
    dw = -g * (2.0 * m + 1.0) * x.w
    return XStateDeriv(da=da, db=db, dc=dc, dd=dd, dz=dz, dw=dw)


def propagate_xstate_exact(x0: XState, params: ModelParams, t: float) -> XState:
    """Closed-form propagation of an X state, re-derived from the rate equations.

    Block solution: ``w`` and ``Re z`` decay at the relaxation rate;
    ``(b - c, Im z)`` rotate at ``2 omega`` under the same damping; the
    population sums ``(a, s = b + c, d)`` evolve under the product of two
    single-atom relaxation maps ``T``, where ``T_xy`` is the probability that
    an atom in ``y`` at time 0 is in ``x`` at ``t`` (``e`` excited, ``g``
    ground).  Satisfies the semigroup property to ~1e-14 and returns a
    validated state.
    """
    x0.validate()
    if not (isinstance(t, (int, float)) and math.isfinite(t)) or t < 0:
        raise InvariantViolation(f"time must be finite and nonnegative, got {t!r}")
    rate = params.relaxation_rate
    decay = math.exp(-rate * t)
    phase = 2.0 * params.omega * t
    cos_p, sin_p = math.cos(phase), math.sin(phase)

    u0 = x0.b - x0.c
    y0 = complex(x0.z).imag
    u = decay * (u0 * cos_p - 2.0 * y0 * sin_p)
    y = decay * (y0 * cos_p + 0.5 * u0 * sin_p)

    q = params.thermal_occupation
    rise = -math.expm1(-rate * t)  # 1 - decay
    t_ee, t_eg = q + (1.0 - q) * decay, q * rise
    t_ge, t_gg = (1.0 - q) * rise, (1.0 - q) + q * decay
    a0, s0, d0 = x0.a, x0.b + x0.c, x0.d
    a = t_ee * t_ee * a0 + t_ee * t_eg * s0 + t_eg * t_eg * d0
    s = 2.0 * t_ee * t_ge * a0 + (t_ee * t_gg + t_eg * t_ge) * s0 + 2.0 * t_eg * t_gg * d0
    d = t_ge * t_ge * a0 + t_ge * t_gg * s0 + t_gg * t_gg * d0

    return XState(
        a=a,
        b=0.5 * (s + u),
        c=0.5 * (s - u),
        d=d,
        z=complex(decay * complex(x0.z).real, y),
        w=complex(x0.w) * decay,
    ).validate()


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
