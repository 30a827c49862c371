"""Shared factories and frozen oracle values for the test suite.

Every constant in ``FROZEN`` was computed by an independent oracle (closed-form
geometric series, high-resolution Riemann sums, bisection localization of
extrema, direct evaluation of the published expressions) before being asserted
against the library; the tests check that the library reproduces them, not the
other way around.
"""
from __future__ import annotations

import math

import numpy as np

from qmemory import ModelParams, XState, classify_dynamics, superoperator
from qmemory.pairs import _GAIN_FLOOR

# --- frozen oracle values ----------------------------------------------------

# Canonical parameter point used throughout: gamma=0.2, m=0.5, omega=0.8.
CANONICAL = ModelParams(gamma=0.2, m=0.5, omega=0.8)
N_CANONICAL = 0.2791824499586081          # interval-sum memory measure
N_CANONICAL_INTERVALS = 19
FIRST_GAIN = 0.2211461205366689           # first increase interval's gain
FIRST_GAIN_END = 3.620767488078661        # ... and the time it ends
N_OMEGA_01 = 5.845752310230492e-05        # omega = 0.1 (below 1e-3 threshold)
N_OMEGA_05 = 0.10302155415122126          # omega = 0.5
T_STAR = 1.9634954084936207               # pi / (2 omega): first distance zero
P_STAR = 0.13601546805850095              # both populations at t*, = (1 - e^{-pi/4})/4
E_PUBLISHED_T_STAR = 0.7829478427763598   # -2 p* log2 p*
E_SUBSYSTEM_T_STAR = 0.57370779479475     # binary entropy of p*
P_PLUS_T1 = 0.40779349894230055           # excited-start population at t = 1
P_MINUS_T1 = 0.08241998849109017          # ground-start population at t = 1
D_T1 = 0.3253735104512103                 # distance at t = 1
STEADY_PUBLISHED_M05 = 1.0                # -2 q log2 q at q = 1/4
STEADY_SUBSYSTEM_M05 = 0.8112781244591328  # binary entropy of 1/4
STEADY_SUBSYSTEM_M2 = 0.9709505944546686   # binary entropy of 0.4

# Maximization over product pairs at the canonical point: the winner is
# |10> vs |01>, whose distance curve is e^{-rate t} |cos 2 omega t|; the value
# is the truncated analytic series of its increase-interval gains.
N_MAXIMIZED_CANONICAL = 0.8643534521850287
MAXIMIZED_LABEL = "theta(0.0000,3.1416)/theta(3.1416,0.0000)"
MAXIMIZED_FIRST_START = math.pi / 3.2                     # pi / (4 omega)
MAXIMIZED_FIRST_END = (math.pi - math.atan(0.25)) / 1.6   # first peak after it
MAXIMIZED_FIRST_GAIN = 0.47026175746776266

# Maximization over product pairs at 20 seeded draws (gamma in [0.01, 3.2],
# m in [0, 3], omega / R in [0.03, 30], log-uniform but for m), each at grid
# 3 and 5: (gamma, m, omega, grid_size, winner label, N), frozen from the
# 16-entry density-matrix construction of the candidates.  The label is None
# where that construction's best two candidates, all refined, lie within 1e-12
# (physical ties such as mirror-image pairs, which rounding decides).
MAXIMIZED_GOLDEN = (
    (0.5437835094747737, 2.4474513340081723, 1.0381119732862694, 3, None, 0.07145915298998728),
    (0.5437835094747737, 2.4474513340081723, 1.0381119732862694, 5, None, 0.07145915298998728),
    (0.012951687431431023, 1.714791771101193, 0.004726577537079946, 3, None, 0.018457541104665534),
    (0.012951687431431023, 1.714791771101193, 0.004726577537079946, 5, None, 0.018457541104665534),
    (0.6318734377704133, 1.0360695122275192, 1.3684257751897533, 3, None, 0.17395265661622072),
    (0.6318734377704133, 1.0360695122275192, 1.3684257751897533, 5, None, 0.17930740534251371),
    (2.785292292888407, 2.344398083316092, 161.5781163647844, 3, MAXIMIZED_LABEL,
     6.0119463232926815),
    (2.785292292888407, 2.344398083316092, 161.5781163647844, 5, MAXIMIZED_LABEL,
     6.0119463232926815),
    (0.24583560734503906, 2.824864087757679, 0.05566053711059984, 3, None, 0.007239502679851109),
    (0.24583560734503906, 2.824864087757679, 0.05566053711059984, 5, None, 0.007239502679851109),
    (1.6886476601184766, 1.1692754500497409, 0.8383757017796938, 3, None, 0.03512455964209863),
    (1.6886476601184766, 1.1692754500497409, 0.8383757017796938, 5, None, 0.03512455964209863),
    (0.2181411944484727, 2.83407083595827, 0.4293966899046715, 3, None, 0.0641266722040483),
    (0.2181411944484727, 2.83407083595827, 0.4293966899046715, 5, None, 0.0641266722040483),
    (1.8890016275430268, 1.4019948375152569, 171.97139360687495, 3, MAXIMIZED_LABEL,
     14.744465696038695),
    (1.8890016275430268, 1.4019948375152569, 171.97139360687495, 5, MAXIMIZED_LABEL,
     14.744465696038695),
    (0.8213026249952551, 2.350061542991622, 1.70644049294641, 3, None, 0.08108660399789487),
    (0.8213026249952551, 2.350061542991622, 1.70644049294641, 5, None, 0.08108660399789487),
    (0.29682267244583793, 0.7456474784775959, 5.577754876719088, 3, MAXIMIZED_LABEL,
     4.328781236056403),
    (0.29682267244583793, 0.7456474784775959, 5.577754876719088, 5, MAXIMIZED_LABEL,
     4.328781236056403),
    (0.044427097182314135, 2.017829099049038, 0.01129436297056322, 3, None, 0.011092473639928971),
    (0.044427097182314135, 2.017829099049038, 0.01129436297056322, 5, None, 0.011092473639928971),
    (0.04153802620428015, 1.0743613122873086, 0.012878578044104902, 3, None, 0.023485645371477133),
    (0.04153802620428015, 1.0743613122873086, 0.012878578044104902, 5, None, 0.023485645371477133),
    (0.04488269222110504, 0.6054097486301584, 0.003917820474893998, 3, None, 0.010301955673450687),
    (0.04488269222110504, 0.6054097486301584, 0.003917820474893998, 5, None, 0.010301955673450687),
    (0.07226670670196973, 1.404749045661192, 0.1475623560706199, 3, None, 0.12661191926811083),
    (0.07226670670196973, 1.404749045661192, 0.1475623560706199, 5, None, 0.12661191926811083),
    (1.7924303925136749, 0.2666231000628462, 6.138657940090111, 3, MAXIMIZED_LABEL,
     1.004784536826224),
    (1.7924303925136749, 0.2666231000628462, 6.138657940090111, 5, MAXIMIZED_LABEL,
     1.004784536826224),
    (0.07475459960808088, 0.07790327833678412, 0.54030605540797, 3, MAXIMIZED_LABEL,
     3.513153718099465),
    (0.07475459960808088, 0.07790327833678412, 0.54030605540797, 5, MAXIMIZED_LABEL,
     3.513153718099465),
    (0.11407985898450855, 2.9286071237059206, 4.9434514270441445, 3, MAXIMIZED_LABEL,
     3.5548248574132963),
    (0.11407985898450855, 2.9286071237059206, 4.9434514270441445, 5, MAXIMIZED_LABEL,
     3.5548248574132963),
    (1.5013581456075704, 1.6979799456026323, 2.0663417116033447, 3, None, 0.07151382866204073),
    (1.5013581456075704, 1.6979799456026323, 2.0663417116033447, 5, None, 0.07151382866204073),
    (1.3815619081734327, 1.2394828129051332, 59.278440417768365, 3, MAXIMIZED_LABEL,
     7.368229797960413),
    (1.3815619081734327, 1.2394828129051332, 59.278440417768365, 5, MAXIMIZED_LABEL,
     7.368229797960413),
    (1.9397465810523413, 1.062396025476452, 27.247940592675, 3, MAXIMIZED_LABEL,
     2.405719288922632),
    (1.9397465810523413, 1.062396025476452, 27.247940592675, 5, MAXIMIZED_LABEL,
     2.405719288922632),
)

# Published-solution probes (initial |10>, canonical parameters).
PUBLISHED_B0 = 1.5                        # printed formula at t = 0 (true: 1)
PUBLISHED_C0 = -0.5                       # printed formula at t = 0 (true: 0)
# Printed d(0) for b0=1, d0=0 is (2m+2)/(2m+1)^2 instead of 0:
PUBLISHED_D0 = {0.0: 2.0, 0.5: 0.75, 2.0: 0.24}
# At t = pi/omega the derived u = b - c completes one full 2*omega oscillation
# (value e^{-rate pi / omega}) while the printed formula, oscillating at
# omega, lands exactly on zero:
EXACT_U_AT_PI_OVER_OMEGA = 0.20787957635076193
PUBLISHED_U_AT_PI_OVER_OMEGA = 0.0


# --- independent oracles -----------------------------------------------------

def blp_geometric_series(params: ModelParams) -> float:
    """Untruncated memory measure of the canonical pair, summed in closed form.

    Interval k rises from a zero of D to the peak at
    ``s_k = s_0 + k pi / omega``, gaining ``4 omega^2 / (4 omega^2 + R^2)
    e^{-R s_k}``; the gains form a geometric series of ratio ``e^{-R pi / omega}``.
    """
    rate, omega = params.relaxation_rate, params.omega
    s_0 = (math.pi - math.atan(rate / (2.0 * omega))) / omega
    weight = 4.0 * omega**2 / (4.0 * omega**2 + rate**2)
    return weight * math.exp(-rate * s_0) / -math.expm1(-rate * math.pi / omega)


def threshold_ratio(eps: float) -> float:
    """The smallest double ``x = omega / R`` with ``N > eps`` at ``R = 1``
    (gamma = 1, m = 0), by bisection on ``classify_dynamics``: 0.376175... at
    ``eps = 1e-3``."""
    lo, hi = 0.0, 10.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if classify_dynamics(ModelParams(1.0, 0.0, mid), eps).n_value > eps:
            hi = mid
        else:
            lo = mid


def canonical_interval_columns(params: ModelParams, t_max: float) -> tuple:
    """``(starts, ends, gains)`` of the canonical pair's increase intervals on
    ``[0, t_max]``, built one array each and filtered by value.

    The construction ``blp_measure`` used before the interval count had a
    closed form, kept as the reference for it: ``ceil(omega t_max / pi - 1/2)``
    candidate zeros, those below ``t_max`` kept, each rise cut at ``t_max``.
    """
    from qmemory.nonmarkov import trace_distance_closed_form

    omega = params.omega
    k = np.arange(math.ceil(omega * t_max / math.pi - 0.5), dtype=float)
    starts = (0.5 * math.pi + k * math.pi) / omega
    starts = starts[starts < t_max]
    peak_phase = math.pi - math.atan2(params.relaxation_rate, 2.0 * omega)
    ends = np.minimum((peak_phase + k[: starts.size] * math.pi) / omega, t_max)
    gains = np.maximum(
        trace_distance_closed_form(params, ends) - trace_distance_closed_form(params, starts),
        0.0,
    )
    return tuple(starts.tolist()), tuple(ends.tolist()), tuple(gains.tolist())


def swap_geometric_series(params: ModelParams) -> float:
    """Untruncated memory measure of the ``|10>/|01>`` pair, in closed form.

    Its distance ``e^{-R t} |cos 2 omega t|`` rises from each zero to the peak
    at ``s_k = s_0 + k pi / (2 omega)``, gaining ``2 omega / sqrt(4 omega^2 +
    R^2) e^{-R s_k}``; the gains form a geometric series of ratio
    ``e^{-R pi / (2 omega)}``.
    """
    rate, omega = params.relaxation_rate, params.omega
    s_0 = (math.pi - math.atan(rate / (2.0 * omega))) / (2.0 * omega)
    weight = 2.0 * omega / math.sqrt(4.0 * omega**2 + rate**2)
    return weight * math.exp(-rate * s_0) / -math.expm1(-rate * math.pi / (2.0 * omega))


def rk4_sequential(liouv: np.ndarray, y: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """``n_steps`` classic RK4 steps of ``dy/dt = L y``, one stage at a time.

    The plain four-stage loop, kept as the reference for the integrator's
    folded step-matrix power.
    """
    for _ in range(n_steps):
        k1 = liouv @ y
        k2 = liouv @ (y + 0.5 * h * k1)
        k3 = liouv @ (y + 0.5 * h * k2)
        k4 = liouv @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def rk4_increments(terms: np.ndarray, h: float, n: int) -> list:
    """The increments ``P^(2^j) - I``, ``j = 0 .. bit_length(n) - 1``, of one
    parameter set's RK4 step matrix ``P = I + E`` of size ``h``.

    The one-member construction the integrator used before it advanced
    families, kept as the reference for its stacked one: row ``k - 1`` of
    ``terms`` (4 x 256) is ``L^k / k!`` flattened, and each power is squared
    on the increment, ``P^2 - I = 2E + E^2``.
    """
    inc = (np.array([h, h * h, h**3, h**4]) @ terms).reshape(16, 16)
    increments = [inc]
    for _ in range(n.bit_length() - 1):
        inc = 2.0 * inc + inc @ inc
        increments.append(inc)
    return increments


def rk4_powered_steps(increments: list, y: np.ndarray, n: int) -> np.ndarray:
    """``n`` RK4 steps of one 16-entry state by binary powering with the
    increments of :func:`rk4_increments`, lowest set bit first."""
    for j, inc in enumerate(increments):
        if n >> j & 1:
            y = y + inc @ y
    return y


def integrate_per_sample(rho0: np.ndarray, params: ModelParams, times, max_step=None):
    """``integrate_master`` checked one sample at a time, as each span ends.

    The per-sample loop, kept as the reference for the integrator's single
    pass over the stack of samples: each span is advanced by
    :func:`rk4_powered_steps` with step-matrix powers built anew for that span
    (the library reuses them across consecutive spans of equal length, and
    stacks them over a family's members), then the sample is Hermitized, drift-checked,
    renormalized and validated before the next span is advanced.  Returns the
    samples; raises what the first failing span or sample raises.
    """
    from qmemory.densmat import TRACE_TOL, validate_density_matrix
    from qmemory.dynamics import SAMPLE_POSITIVITY_TOL, STEP_RESOLUTION
    from qmemory.errors import InvariantViolation

    times = np.asarray(times, dtype=float)
    h = STEP_RESOLUTION / max(params.relaxation_rate, params.omega)
    h = h if max_step is None else max_step
    liouv = superoperator(params)
    square = liouv @ liouv
    terms = np.stack(
        [liouv, square / 2.0, square @ liouv / 6.0, square @ square / 24.0]
    ).reshape(4, 256)
    y = rho0.reshape(16).astype(complex)
    samples = [rho0.copy()]
    for left, right in zip(times[:-1], times[1:]):
        span = float(right - left)
        n = max(1, math.ceil(span / h))
        try:
            with np.errstate(over="raise", invalid="raise"):
                y = rk4_powered_steps(rk4_increments(terms, span / n, n), y, n)
        except FloatingPointError:
            raise InvariantViolation(
                f"RK4 steps of {span / n!r} overflow by t={right:g}: max_step={max_step!r} "
                f"is beyond RK4's stability limit for these rates"
            ) from None
        raw = y.reshape(4, 4)
        rho = 0.5 * (raw + raw.conj().T)
        tr = float(np.trace(rho).real)
        drift = abs(tr - 1.0)
        if not drift <= TRACE_TOL:
            raise InvariantViolation(
                f"integrator trace drift {drift:.3e} at t={right:g} exceeds "
                f"{TRACE_TOL:.0e} before renormalization"
            )
        if drift > 1e-12:
            rho = rho / tr
        validate_density_matrix(
            rho, dim=4, positivity_tol=SAMPLE_POSITIVITY_TOL, name=f"sample(t={right:g})"
        )
        samples.append(rho)
    return samples


# --- the validation checks' member loops -------------------------------------
#
# The exact, populations, semigroup, stationarity and steady-state checks as
# they ran before they took families: one call per grid member.  The distance-rate
# check as it ran before it took arrays: one scalar call per time.  Each
# returns ``(passed, detail, table)`` as the library's check does, and raises
# what its first failing call raises.

def exact_check_loop(max_step):
    from qmemory.dynamics import integrate_master, parameter_grid, propagate_exact
    from qmemory.validate import _CHECK_TIMES, _generic_state

    tol = 1e-8
    worst = 0.0
    for params in parameter_grid():
        traj = integrate_master(_generic_state(), params, _CHECK_TIMES, max_step=max_step)
        exact = propagate_exact(_generic_state(), params, traj.times)
        worst = max(worst, float(np.max(np.abs(traj.samples - exact))))
    return worst <= tol, f"worst |rho_rk4 - rho_exact| = {worst:.3e} (tol {tol:.0e})", ()


def populations_check_loop(max_step):
    from qmemory.densmat import embed_xstate, partial_trace_qubit2
    from qmemory.dynamics import (
        XSTATE_00, XSTATE_10, integrate_master, parameter_grid, population_from_excited,
        population_from_ground)
    from qmemory.validate import _CHECK_TIMES

    tol = 1e-8
    worst = 0.0
    for params in parameter_grid():
        for x0, formula in (
            (XSTATE_10, population_from_excited),
            (XSTATE_00, population_from_ground),
        ):
            traj = integrate_master(embed_xstate(x0), params, _CHECK_TIMES, max_step=max_step)
            numeric = partial_trace_qubit2(traj.samples)[:, 0, 0].real
            worst = max(worst, float(np.max(np.abs(numeric - formula(params, traj.times)))))
    return worst <= tol, f"worst |p_traced - p_formula| = {worst:.3e} (tol {tol:.0e})", ()


def distance_rate_check_loop():
    from qmemory.nonmarkov import trace_distance_closed_form, trace_distance_rate

    tol = 1e-8
    h = 1e-6
    worst = 0.0
    for params in (CANONICAL, ModelParams(0.5, 2.0, 0.3), ModelParams(0.1, 0.0, 1.2)):
        for t in np.linspace(h, 10.0, 50):
            fd = (
                trace_distance_closed_form(params, t + h)
                - trace_distance_closed_form(params, t - h)
            ) / (2.0 * h)
            worst = max(worst, abs(fd - trace_distance_rate(params, float(t))))
    return worst <= tol, f"worst |sigma_fd - sigma| = {worst:.3e} (tol {tol:.0e})", ()


def semigroup_check_loop():
    from qmemory.dynamics import parameter_grid, propagate_exact
    from qmemory.validate import RNG_SEED, _generic_state

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


def stationarity_check_loop():
    from qmemory.densmat import embed_xstate
    from qmemory.dynamics import lindblad_rhs, parameter_grid, thermal_xstate

    tol = 1e-12
    worst = 0.0
    for params in parameter_grid():
        rho_th = embed_xstate(thermal_xstate(params))
        worst = max(worst, float(np.max(np.abs(lindblad_rhs(rho_th, params)))))
    return worst <= tol, f"worst |L(rho_thermal)| = {worst:.3e} (tol {tol:.0e})", ()


def steady_check_loop(max_step):
    from qmemory.densmat import embed_xstate
    from qmemory.dynamics import (
        XSTATE_10, integrate_master, parameter_grid, propagate_exact, thermal_xstate)
    from qmemory.nonmarkov import default_truncation_time
    from qmemory.validate import GENERIC_XSTATE

    tol = 1e-10
    worst = 0.0
    rho0 = embed_xstate(GENERIC_XSTATE)
    for params in parameter_grid():
        t_end = default_truncation_time(params)
        final = propagate_exact(rho0, params, t_end)
        worst = max(worst, float(np.max(np.abs(final - embed_xstate(thermal_xstate(params))))))
    params = CANONICAL
    t_end = default_truncation_time(params)
    traj = integrate_master(
        embed_xstate(XSTATE_10), params, np.array([0.0, t_end]), max_step=max_step
    )
    rho_th = embed_xstate(thermal_xstate(params))
    worst = max(worst, float(np.max(np.abs(traj.samples[-1] - rho_th))))
    return worst <= tol, f"worst |steady - thermal| = {worst:.3e} (tol {tol:.0e})", ()


def trapezoid(y, x) -> float:
    """The trapezoid rule: ``np.trapezoid`` from numpy 2.0 on, ``np.trapz``
    (its name before) on the older versions that ``pyproject.toml`` accepts."""
    rule = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    return float(rule(y, x))


def von_neumann_entropy_loop(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, one eigenvalue at a time with ``math.log2``.

    The loop the library used before it shared the entanglement readings'
    ``-p log2 p``, kept as the reference for it: raises what the library
    raises for the first eigenvalue (in descending order) below the slack.
    """
    from qmemory.densmat import POSITIVITY_TOL, hermitian_eigenvalues
    from qmemory.errors import NegativeEigenvalueError

    total = 0.0
    for lam in hermitian_eigenvalues(np.asarray(rho, dtype=complex)):
        if lam < -POSITIVITY_TOL:
            raise NegativeEigenvalueError(
                f"eigenvalue {lam:.3e} below 0 beyond slack {POSITIVITY_TOL:.0e}"
            )
        if lam > 0.0:
            total -= lam * math.log2(lam)
    return total


def _generator_operators():
    """Lowering operators of atoms 1 and 2 and the exchange coupling in the
    excited-first basis ``|11>, |10>, |01>, |00>``."""
    lower_1, lower_2, exchange = np.zeros((3, 4, 4))
    lower_1[2, 0] = lower_1[3, 1] = 1.0  # |11> -> |01>, |10> -> |00>
    lower_2[1, 0] = lower_2[3, 2] = 1.0  # |11> -> |10>, |01> -> |00>
    exchange[1, 2] = exchange[2, 1] = 1.0
    return (lower_1, lower_2), exchange


def lindblad_apply(mat: np.ndarray, params: ModelParams) -> np.ndarray:
    """The generator applied to a 4x4 matrix or a stack of them, term by term
    as matrix products: the reference for the library's Kronecker-built
    superoperator."""
    lowering, exchange = _generator_operators()
    g, m, omega = params.gamma, params.m, params.omega
    out = np.zeros(np.shape(mat), dtype=complex)
    for sm in lowering:
        sp = sm.T
        for rate, jump, adj in (((m + 1.0) * g, sm, sp), (m * g, sp, sm)):
            number = adj @ jump
            out += rate * (jump @ mat @ adj - 0.5 * (number @ mat + mat @ number))
    if omega != 0.0:
        out += -1j * omega * (exchange @ mat - mat @ exchange)
    return out


def probed_superoperator(params: ModelParams) -> np.ndarray:
    """16x16 generator on row-major vectorized states: column k is
    :func:`lindblad_apply` of the k-th matrix unit."""
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    return lindblad_apply(units, params).reshape(16, 16).T


def generator_modes(params: ModelParams):
    """Eigenvalues, eigenvectors and inverse eigenvector matrix of the 16x16
    generator: the numerical oracle for the library's sector closed forms."""
    lam, vec = np.linalg.eig(superoperator(params))
    return lam, vec, np.linalg.inv(vec)


def partial_trace_map() -> np.ndarray:
    """4x16 matrix taking vec(rho4) row-major to vec(reduced rho2) of atom 1."""
    pmap = np.zeros((4, 16))
    for i in range(2):
        for j in range(2):
            for s in range(2):
                pmap[2 * i + j, 4 * (2 * i + s) + (2 * j + s)] = 1.0
    return pmap


def reduced_distance(red: np.ndarray) -> np.ndarray:
    """Trace distances from vectorized 2x2 reduced differences (4 x T), in full.

    Keeps the mean term ``(red[0] + red[3]) / 2`` that vanishes for pair
    differences.
    """
    mean = 0.5 * (red[0] + red[3]).real
    half_gap = 0.5 * (red[0] - red[3]).real
    radius = np.sqrt(half_gap**2 + np.abs(red[1]) ** 2)
    return 0.5 * (np.abs(mean + radius) + np.abs(mean - radius))


def discrete_intervals(dvals: np.ndarray) -> list:
    """Index ranges (i, j) of the maximal strictly increasing runs of a curve."""
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


def product_state(theta1: float, theta2: float) -> np.ndarray:
    """The 4x4 pure product state ``|s(theta1)> x |s(theta2)>``, ``|s(theta)> =
    cos(theta/2) |1> + sin(theta/2) |0>``, built with ``np.kron``."""
    amp1, amp2 = ([math.cos(0.5 * th), math.sin(0.5 * th)] for th in (theta1, theta2))
    psi = np.kron(amp1, amp2).astype(complex)
    return np.outer(psi, psi.conj())


def product_pair_differences(grid_size: int):
    """Labels and 16 x P matrix of vectorized (row-major) differences of the
    maximizer's candidate pairs, built from :func:`product_state`.

    The oracle for the maximizer's 6 x P table: the unordered pairs of the
    ``grid_size``-point polar product grid, first angle outer, minus the
    canonical ``|10>/|00>`` pair, in the maximizer's order and labels.
    """
    thetas = np.linspace(0.0, math.pi, grid_size).tolist()
    angles = [(th1, th2) for th1 in thetas for th2 in thetas]
    states = [product_state(*pair).reshape(16) for pair in angles]
    labels, columns = [], []
    for i in range(len(angles)):
        for j in range(i + 1, len(angles)):
            if angles[i] == (0.0, math.pi) and angles[j] == (math.pi, math.pi):
                continue  # |10> vs |00>, which the maximizer evaluates analytically
            labels.append("theta({:.4f},{:.4f})/theta({:.4f},{:.4f})".format(
                *angles[i], *angles[j]))
            columns.append(states[i] - states[j])
    return labels, np.array(columns).T


def per_pair_estimates(params: ModelParams, grid_size: int, grid: np.ndarray) -> np.ndarray:
    """Sampled memory-measure estimate of each candidate pair, one pair at a time.

    The reference for the maximizer's batched pass: each pair difference of
    :func:`product_pair_differences` is evolved in full through the
    generator's modes, reduced to atom 1 by the partial trace, and its sampled
    rises above the noise floor are summed.
    """
    lam, vec, vec_inv = generator_modes(params)
    ptrace = partial_trace_map()
    mode_factors = np.exp(np.outer(lam, grid))
    estimates = []
    for delta in product_pair_differences(grid_size)[1].T:
        coeff = vec_inv @ delta
        dvals = reduced_distance(ptrace @ (vec @ (mode_factors * coeff[:, None])))
        gains = [float(dvals[j] - dvals[i]) for i, j in discrete_intervals(dvals)]
        estimates.append(math.fsum(g for g in gains if g > _GAIN_FLOOR))
    return np.array(estimates)


# --- deterministic random factories ------------------------------------------

def random_params(rng: np.random.Generator) -> ModelParams:
    """A random parameter set across the physically interesting ranges."""
    return ModelParams(
        gamma=float(rng.uniform(0.05, 1.0)),
        m=float(rng.uniform(0.0, 3.0)),
        omega=float(rng.uniform(0.0, 1.5)),
    )


def random_valid_xstate(rng: np.random.Generator, coherence_scale: float = 0.5) -> XState:
    """A random X state strictly inside the positivity region."""
    raw = rng.uniform(0.05, 1.0, 4)
    a, b, c, d = (raw / raw.sum()).tolist()
    z = complex(*rng.uniform(-1.0, 1.0, 2)) * coherence_scale * math.sqrt(b * c)
    w = complex(*rng.uniform(-1.0, 1.0, 2)) * coherence_scale * math.sqrt(a * d)
    return XState(a=a, b=b, c=c, d=d, z=z, w=w).validate()


def random_qubit_density(rng: np.random.Generator) -> np.ndarray:
    """A random single-qubit density matrix (mixed, full rank a.s.)."""
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random full-rank density matrix of the given dimension."""
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """A random Hermitian matrix with continuous spectrum (distinct a.s.)."""
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (mat + mat.conj().T)
