"""Independent references for the output of every benchmark operation.

The references are closed forms derived from the model, written here without
calling the library, so an optimisation that changes a result is caught as a
failed operation.  Every ``check_*`` function returns ``None`` when the output
is correct and otherwise a one-line reason.

For the canonical pair ``|10>/|00>`` the trace distance is
``D(t) = e^{-Rt} cos^2(Omega t)`` with ``R = gamma (1 + 2m)``.  It rises from
each zero ``t_k = (pi/2 + k pi)/Omega`` to the peak
``s_k = (pi - atan(R / 2 Omega) + k pi)/Omega`` and gains
``4 Omega^2 / (4 Omega^2 + R^2) e^{-R s_k}`` there, so the memory measure is a
geometric series.  The pair ``|10>/|01>`` has ``D = e^{-Rt} |cos(2 Omega t)|``
and an analogous series.
"""
from __future__ import annotations

import math

import numpy as np

# Absolute agreement demanded of the memory measure against its series.
SERIES_TOL = 1e-9
# CSV cells carry 9 significant digits; values that cancel to round-off near
# a zero of the curve are compared against this absolute floor instead.
CELL_RTOL = 1e-8
CELL_ATOL = 1e-14
# Interval endpoints are located by bisection to 1e-10 in t.
TIME_ATOL = 1e-9

VALIDATE_CHECKS = 10
# Checks that compare against the Runge-Kutta integrator; a coarse step must
# make exactly these fail.
INTEGRATOR_CHECKS = frozenset({
    "exact-propagator-vs-integrator",
    "populations-vs-integrator",
    "entanglement-consistency",
})

# The CLI's defaults for the classification threshold and the time window.
EPS = 1e-3
T_MAX = 20.0


def relaxation_rate(gamma: float, m: float) -> float:
    return gamma * (1.0 + 2.0 * m)


def canonical_series(gamma: float, m: float, omega: float) -> float:
    """Memory measure of the ``|10>/|00>`` pair, summed over all intervals."""
    if omega == 0.0:
        return 0.0
    rate = relaxation_rate(gamma, m)
    s0 = (math.pi - math.atan(rate / (2.0 * omega))) / omega
    weight = 4.0 * omega**2 / (4.0 * omega**2 + rate**2)
    return weight * math.exp(-rate * s0) / (1.0 - math.exp(-rate * math.pi / omega))


def swap_series(gamma: float, m: float, omega: float) -> float:
    """Memory measure of the ``|10>/|01>`` pair (oscillation at ``2 Omega``)."""
    if omega == 0.0:
        return 0.0
    rate = relaxation_rate(gamma, m)
    w = 2.0 * omega
    s0 = (math.pi - math.atan(rate / w)) / w
    weight = w / math.sqrt(w**2 + rate**2)
    return weight * math.exp(-rate * s0) / (1.0 - math.exp(-rate * math.pi / w))


def distance(gamma, m, omega, t):
    return np.exp(-relaxation_rate(gamma, m) * t) * np.cos(omega * t) ** 2


def canonical_intervals(gamma: float, m: float, omega: float, t_max: float):
    """``(t_start, t_end, gain)`` of every increase interval that starts before
    ``t_max``; the last one is cut at ``t_max`` when its peak lies beyond."""
    if omega == 0.0:
        return []
    rate = relaxation_rate(gamma, m)
    weight = 4.0 * omega**2 / (4.0 * omega**2 + rate**2)
    peak_phase = math.pi - math.atan(rate / (2.0 * omega))
    out = []
    k = 0
    while True:
        start = (0.5 * math.pi + k * math.pi) / omega
        if start >= t_max:
            return out
        end = (peak_phase + k * math.pi) / omega
        if end <= t_max:
            out.append((start, end, weight * math.exp(-rate * end)))
        else:
            out.append((start, t_max, float(distance(gamma, m, omega, t_max))))
        k += 1


def rate(gamma, m, omega, t):
    r = relaxation_rate(gamma, m)
    return -np.exp(-r * t) * (r * np.cos(omega * t) ** 2 + omega * np.sin(2.0 * omega * t))


def _neg_p_log2_p(p):
    p = np.clip(p, 0.0, 1.0)
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, -safe * np.log2(safe), 0.0)


def entanglement(gamma, m, omega, t, variant: str):
    """Entanglement entropy in bits from the two reduced populations."""
    decay = np.exp(-relaxation_rate(gamma, m) * t)
    p_plus = (2.0 * m + (1.0 + (1.0 + 2.0 * m) * np.cos(2.0 * omega * t)) * decay) / (
        2.0 * (1.0 + 2.0 * m)
    )
    if variant == "eq13":
        p_minus = m / (1.0 + 2.0 * m) * (1.0 - decay)
        return _neg_p_log2_p(p_plus) + _neg_p_log2_p(p_minus)
    return _neg_p_log2_p(p_plus) + _neg_p_log2_p(1.0 - p_plus)


# --- library results ----------------------------------------------------------

def check_blp(gamma, m, omega, eps, verdict) -> str | None:
    """``classify_dynamics`` result: N against the series, and the verdict."""
    series = canonical_series(gamma, m, omega)
    err = abs(verdict.n_value - series)
    if not err <= SERIES_TOL:
        return f"blp N={verdict.n_value!r} vs series {series!r} (|diff| {err:.2e})"
    expected = "NonMarkovian" if series > eps else "Markovian"
    if abs(series - eps) > SERIES_TOL and verdict.regime != expected:
        return f"blp verdict {verdict.regime} but series {series!r} vs eps {eps!r}"
    return None


def check_maximize(gamma, m, omega, result) -> str | None:
    """The maximum over product pairs is at least both analytic pairs."""
    floor = max(canonical_series(gamma, m, omega), swap_series(gamma, m, omega))
    if not result.n_value >= floor - SERIES_TOL:
        return f"maximize N={result.n_value!r} below analytic pair {floor!r}"
    return None


def check_validate(returncode: int, stdout: str) -> str | None:
    """``qmemory validate``: every check passes and the exit code is 0."""
    lines = stdout.splitlines()
    passed = sum(1 for line in lines if line.startswith("[PASS] "))
    failed = sum(1 for line in lines if line.startswith("[FAIL] "))
    summary = f"{VALIDATE_CHECKS}/{VALIDATE_CHECKS} checks passed"
    if returncode != 0 or passed != VALIDATE_CHECKS or failed or summary not in lines:
        return f"validate exit {returncode}, {passed} PASS, {failed} FAIL"
    return None


def check_control(results) -> str | None:
    """Coarse-step validation: exactly the integrator-backed checks fail."""
    failing = {r.name for r in results if not r.passed}
    if len(results) != VALIDATE_CHECKS or failing != INTEGRATOR_CHECKS:
        return f"control failed {sorted(failing)} of {len(results)} checks"
    return None


# --- command-line output --------------------------------------------------------

def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= CELL_RTOL * np.abs(want) + CELL_ATOL)
    )


def _split_csv(text: str, version: str, command: str):
    """Metadata dict, header tuple and data lines of a qmemory CSV document."""
    if not text.endswith("\n"):
        raise ValueError("missing final newline")
    lines = text[:-1].split("\n")
    if len(lines) < 3 or lines[0] != f"# qmemory {version}" or lines[1] != f"# command: {command}":
        raise ValueError("missing version or command metadata line")
    echo = {}
    i = 2
    while i < len(lines) and lines[i].startswith("# "):
        key, sep, value = lines[i][2:].partition(" = ")
        if not sep:
            raise ValueError(f"bad metadata line {lines[i]!r}")
        echo[key] = value
        i += 1
    if i == len(lines):
        raise ValueError("missing header row")
    return echo, tuple(lines[i].split(",")), lines[i + 1:]


def _expected_echo(spec: dict) -> dict:
    echo = {
        "gamma": repr(float(spec["gamma"])),
        "m": repr(float(spec["m"])),
        "omega": repr(float(spec["omega"])),
        "t_max": repr(T_MAX),
        "eps": repr(EPS),
        "steps": str(spec.get("steps", 201)),
        "variant": spec.get("variant", "eq13"),
    }
    if spec["command"] == "sweep":
        del echo[spec["param"]]
        echo.update({"param": spec["param"], "from": repr(float(spec["lo"])),
                     "to": repr(float(spec["hi"])), "points": str(spec["points"])})
    if spec.get("gammas"):
        del echo["gamma"]
        echo["gammas"] = ",".join(repr(g) for g in sorted(spec["gammas"]))
    return echo


def _columns(rows: list[str], width: int) -> np.ndarray:
    cells = [row.split(",") for row in rows]
    if any(len(c) != width for c in cells):
        raise ValueError("ragged row")
    return np.array(cells, dtype=object).reshape(len(rows), width)


def check_cli(spec: dict, version: str, returncode: int, stdout: str, out_text: str | None
              ) -> str | None:
    """Output of one ``qmemory`` invocation against the closed forms."""
    if returncode != 0:
        return f"{spec['command']} exit {returncode}"
    try:
        if spec["command"] == "blp":
            return _check_blp_cli(spec, version, stdout, out_text)
        text = stdout if out_text is None else out_text
        if out_text is not None and stdout:
            return "output written to --out also went to stdout"
        echo, header, rows = _split_csv(text, version, spec["command"])
        if echo != _expected_echo(spec):
            return f"metadata {echo} != {_expected_echo(spec)}"
        return _check_curves(spec, header, rows)
    except ValueError as exc:
        return f"{spec['command']}: unparsable output ({exc})"


def _check_curves(spec: dict, header: tuple, rows: list[str]) -> str | None:
    g, m, om = spec["gamma"], spec["m"], spec["omega"]
    steps = spec["steps"]
    t = np.linspace(0.0, T_MAX, steps)
    command = spec["command"]
    # One (N_flag, {column: reference}) entry per block of ``steps`` rows.
    if command == "trace-distance":
        want_header = ("t", "D", "sigma")
        members = [(None, {"t": t, "D": distance(g, m, om, t), "sigma": rate(g, m, om, t)})]
    elif command == "entanglement" and not spec.get("gammas"):
        want_header = ("t", "E", "D")
        members = [(None, {"t": t, "E": entanglement(g, m, om, t, spec["variant"]),
                           "D": distance(g, m, om, t)})]
    elif command == "entanglement":
        want_header = ("gamma", "t", "E")
        members = [(None, {"gamma": np.full(steps, gi), "t": t,
                           "E": entanglement(gi, m, om, t, spec["variant"])})
                   for gi in sorted(spec["gammas"])]
    else:
        want_header = ("sweep_param", "sweep_value", "t", "D", "N_flag")
        members = []
        for value in np.linspace(spec["lo"], spec["hi"], spec["points"]).tolist():
            p = {"gamma": g, "m": m, "omega": om, spec["param"]: value}
            series = canonical_series(p["gamma"], p["m"], p["omega"])
            near_threshold = abs(series - EPS) <= SERIES_TOL
            flag = None if near_threshold else float(series > EPS)
            members.append((flag, {"sweep_value": np.full(steps, value), "t": t,
                                   "D": distance(p["gamma"], p["m"], p["omega"], t)}))
    if header != want_header:
        return f"header {header} != {want_header}"
    if len(rows) != steps * len(members):
        return f"{len(rows)} rows, expected {steps * len(members)}"
    table = _columns(rows, len(header))
    for k, (flag, want) in enumerate(members):
        block = table[k * steps:(k + 1) * steps]
        if command == "sweep":
            if np.any(block[:, 0] != spec["param"]):
                return f"sweep_param column of member {k} is not {spec['param']}"
            flags = block[:, 4].astype(float)
            if flag is not None and np.any(flags != flag):
                return f"N_flag of member {k} differs from the series verdict"
        for name, ref in want.items():
            got = block[:, header.index(name)].astype(float)
            if not _close(got, np.asarray(ref, dtype=float)):
                return f"column {name} of member {k} differs from the closed form"
    return None


def _check_blp_cli(spec: dict, version: str, stdout: str, out_text: str | None) -> str | None:
    g, m, om = spec["gamma"], spec["m"], spec["omega"]
    t_max = 30.0 / relaxation_rate(g, m)
    series = canonical_series(g, m, om)
    intervals = canonical_intervals(g, m, om, t_max)
    fields = dict(part.split("=", 1) for part in stdout.split())
    if set(fields) != {"N", "class", "intervals", "tail<"}:
        return f"blp summary unparsable: {stdout!r}"
    if abs(float(fields["N"]) - series) > 5e-7 + SERIES_TOL:
        return f"blp N={fields['N']} vs series {series!r}"
    if fields["class"] != ("NonMarkovian" if series > EPS else "Markovian"):
        return f"blp class {fields['class']} vs series {series!r}"
    if int(fields["intervals"]) != len(intervals):
        return f"blp intervals={fields['intervals']}, expected {len(intervals)}"
    if abs(float(fields["tail<"]) - math.exp(-30.0)) > 1e-3 * math.exp(-30.0):
        return f"blp tail bound {fields['tail<']}"
    if out_text is None:
        return None
    echo, header, rows = _split_csv(out_text, version, "blp")
    if echo != _expected_echo(spec):
        return f"blp metadata {echo} != {_expected_echo(spec)}"
    if header != ("t_start", "t_end", "gain") or len(rows) != len(intervals):
        return f"blp interval CSV has header {header} and {len(rows)} rows"
    got = _columns(rows, 3).astype(float)
    want = np.array(intervals, dtype=float).reshape(len(intervals), 3)
    if not np.all(np.abs(got[:, :2] - want[:, :2]) <= CELL_RTOL * want[:, :2] + TIME_ATOL):
        return "blp interval endpoints differ from the closed form"
    if not _close(got[:, 2], want[:, 2]):
        return "blp interval gains differ from the closed form"
    return None
