"""Command-line front end: deterministic CSV curves, reports, and validation.

Subcommands
-----------
``trace-distance``  distance and its rate on a uniform time grid (CSV).
``sweep``           distance curves across a parameter family, with a
                    memory-classification flag per family member (CSV).
``blp``             one-line memory-measure report, optional interval CSV.
``entanglement``    entanglement curve, either overlaid with the distance or
                    as a decay-rate family (CSV).
``validate``        run every internal cross-check; exit 0 only if all pass.

All numeric CSV cells use 9-significant-digit scientific notation and ``\\n``
line endings, so identical invocations are byte-identical.  ``#`` metadata
lines (tool version, resolved parameters) precede the header row.

Exit codes: 0 success, 1 invalid arguments, 2 validation failure, 3 I/O error.
"""
from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .dynamics import MAX_PARAMETER, ModelParams
from .entangle import EntanglementVariant, entanglement_entropy
from .errors import InvalidGridError, InvariantViolation, QmemoryError
from .nonmarkov import (
    MAX_INTERVALS,
    NON_MARKOVIAN,
    classify_dynamics,
    trace_distance_closed_form,
    trace_distance_rate,
)
from .validate import run_validation

# Largest number of CSV data rows one invocation may emit.
MAX_ROWS = 10**6
# CSV lines per write: few system calls even when stdout is unbuffered.
_WRITE_BLOCK = 4096

# Run settings of every data subcommand, from a flag or a config file:
# key -> (parse, default, help).
_SETTINGS = {
    "gamma": (float, 0.2, "single-atom decay rate (> 0)"),
    "m": (float, 0.5, "reservoir mean occupation (>= 0)"),
    "omega": (float, 0.8, "exchange coupling strength (>= 0)"),
    "t_max": (float, 20.0, "end of the sampled time window"),
    "steps": (int, 201, "number of uniform samples on [0, t-max]"),
    "eps": (float, 1e-3, "memory-classification threshold"),
    "variant": (str, "eq13", "entanglement formula: published two-population form "
                             "(eq13) or reduced-state entropy (entropy)"),
    "out": (str, None, "output file path (default: stdout)"),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters: defaults, then config file, then flags."""

    params: ModelParams
    t_max: float
    steps: int
    eps: float
    variant: EntanglementVariant
    out_path: str | None

    def __post_init__(self) -> None:
        if not (isinstance(self.steps, int) and self.steps >= 2):
            raise InvariantViolation(f"steps must be an integer >= 2, got {self.steps!r}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise InvariantViolation(f"t_max must be positive and finite, got {self.t_max!r}")
        if self.t_max > MAX_PARAMETER:
            raise InvariantViolation(
                f"t_max = {self.t_max!r} is above the limit of {MAX_PARAMETER:g}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise InvariantViolation(f"eps must be nonnegative and finite, got {self.eps!r}")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for validation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmemory",
        description=(
            "Dissipative two-atom dynamics: trace-distance memory effects "
            "and entanglement entropy, as deterministic CSV data."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command",
                                parser_class=_Parser)

    def add_common(p: argparse.ArgumentParser) -> None:
        for key, (parse, _, text) in _SETTINGS.items():
            choices = [v.value for v in EntanglementVariant] if key == "variant" else None
            p.add_argument("--" + key.replace("_", "-"), type=parse, choices=choices, help=text)
        p.add_argument("--config", help="key = value config file; flags override it")

    p = sub.add_parser("trace-distance",
                       help="distance between the two canonical preparations vs time")
    add_common(p)

    p = sub.add_parser("sweep", help="distance curves across a parameter family")
    add_common(p)
    p.add_argument("--param", choices=("gamma", "m", "omega"), required=True,
                   help="which parameter the family varies")
    p.add_argument("--from", dest="sweep_from", type=float, required=True,
                   help="first family value")
    p.add_argument("--to", dest="sweep_to", type=float, required=True,
                   help="last family value")
    p.add_argument("--points", type=int, required=True, help="family size (>= 1)")

    p = sub.add_parser("blp", help="accumulated information-backflow measure")
    add_common(p)

    p = sub.add_parser("entanglement", help="entanglement entropy vs time")
    add_common(p)
    p.add_argument("--gammas",
                   help="comma-separated decay rates; switches to the "
                        "gamma-family output (columns gamma,t,E)")

    sub.add_parser("validate", help="run all internal cross-checks")
    return parser


# --- config resolution -------------------------------------------------------

def load_config_file(path: str) -> dict:
    """Parse a ``key = value`` file; ``#`` starts a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    settings: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvariantViolation(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise InvariantViolation(
                f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(sorted(_SETTINGS))})"
            )
        try:
            settings[key] = _SETTINGS[key][0](value)
        except ValueError as exc:
            raise InvariantViolation(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return settings


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = {key: default for key, (_, default, _) in _SETTINGS.items()}
    if getattr(args, "config", None):
        merged.update(load_config_file(args.config))
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    try:
        variant = EntanglementVariant(merged["variant"])
    except ValueError:
        tokens = ", ".join(repr(v.value) for v in EntanglementVariant)
        raise InvariantViolation(
            f"variant must be one of {tokens}, got {merged['variant']!r}"
        ) from None
    params = ModelParams(gamma=merged["gamma"], m=merged["m"], omega=merged["omega"])
    return RunConfig(
        params=params,
        t_max=float(merged["t_max"]),
        steps=merged["steps"],
        eps=float(merged["eps"]),
        variant=variant,
        out_path=merged["out"],
    )


# --- deterministic CSV -------------------------------------------------------

def _echo_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(out_path: str | None, command: str, echo: dict, header: tuple,
               template: str, rows) -> None:
    """Write the ``#`` lines, the header and the rows, each row a tuple formatted
    by the printf ``template``, in blocks of :data:`_WRITE_BLOCK` lines; every
    check that can fail has run before the first byte."""
    head = [f"# qmemory {__version__}\n", f"# command: {command}\n",
            *(f"# {key} = {_echo_value(echo[key])}\n" for key in sorted(echo)),
            ",".join(header) + "\n"]
    lines = itertools.chain(head, map(template.__mod__, rows))
    blocks = iter(lambda: "".join(itertools.islice(lines, _WRITE_BLOCK)), "")
    if out_path is None:
        sys.stdout.writelines(blocks)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(blocks)


def _common_echo(cfg: RunConfig) -> dict:
    return {**vars(cfg.params), "t_max": cfg.t_max, "steps": cfg.steps, "eps": cfg.eps,
            "variant": cfg.variant.value}


def _time_grid(cfg: RunConfig, curves: int = 1) -> np.ndarray:
    """The shared sample times, once ``curves`` curves of them fit in
    :data:`MAX_ROWS` rows; checked before anything is allocated."""
    rows = curves * cfg.steps
    if rows > MAX_ROWS:
        raise InvariantViolation(
            f"{curves} x {cfg.steps} steps = {rows} CSV rows, "
            f"above the limit of {MAX_ROWS} rows"
        )
    return np.linspace(0.0, cfg.t_max, cfg.steps)


# --- subcommands -------------------------------------------------------------

def cmd_trace_distance(cfg: RunConfig) -> int:
    t = _time_grid(cfg)
    d = trace_distance_closed_form(cfg.params, t)
    sigma = trace_distance_rate(cfg.params, t)
    _write_csv(cfg.out_path, "trace-distance", _common_echo(cfg), ("t", "D", "sigma"),
               "%.8e,%.8e,%.8e\n", zip(t, d, sigma))
    return 0


def cmd_sweep(cfg: RunConfig, param: str, lo: float, hi: float, points: int) -> int:
    if points < 1:
        raise InvariantViolation(f"--points must be >= 1, got {points!r}")
    if not (lo <= hi):
        raise InvariantViolation(f"--from must not exceed --to, got {lo!r} > {hi!r}")
    for end in (lo, hi):  # every parameter limit is an interval, so the family is valid
        replace(cfg.params, **{param: end})
    t = _time_grid(cfg, points)
    values = np.linspace(lo, hi, points)

    members = []
    intervals = 0
    for value in values.tolist():
        p = replace(cfg.params, **{param: value})
        verdict = classify_dynamics(p, cfg.eps)
        intervals += len(verdict.result.gains)
        if intervals > MAX_INTERVALS:
            raise InvalidGridError(
                f"the family's memory measures hold more than {MAX_INTERVALS} increase "
                f"intervals in all, above the limit of {MAX_INTERVALS} intervals"
            )
        members.append((value, trace_distance_closed_form(p, t),
                        1 if verdict.regime == NON_MARKOVIAN else 0))
    echo = _common_echo(cfg)
    del echo[param]  # the swept parameter lives in the sweep_value column
    echo.update({"param": param, "from": float(lo), "to": float(hi), "points": points})
    rows = ((param, value, ti, di, flag) for value, d, flag in members for ti, di in zip(t, d))
    _write_csv(cfg.out_path, "sweep", echo, ("sweep_param", "sweep_value", "t", "D", "N_flag"),
               "%s,%.8e,%.8e,%.8e,%d\n", rows)
    return 0


def cmd_blp(cfg: RunConfig) -> int:
    verdict = classify_dynamics(cfg.params, cfg.eps)
    result = verdict.result
    print(
        f"N={result.n_value:.6f} class={verdict.regime} "
        f"intervals={len(result.gains)} tail<={result.tail_bound:.3e}"
    )
    if cfg.out_path is not None:
        _write_csv(cfg.out_path, "blp", _common_echo(cfg), ("t_start", "t_end", "gain"),
                   "%.8e,%.8e,%.8e\n", zip(result.starts, result.ends, result.gains))
    return 0


def parse_gammas(raw: str | None) -> list[float] | None:
    if raw is None:
        return None
    try:
        values = [float(piece) for piece in raw.split(",") if piece.strip() != ""]
    except ValueError as exc:
        raise InvariantViolation(f"--gammas must be comma-separated numbers, got {raw!r}") from exc
    if not values:
        raise InvariantViolation("--gammas must contain at least one value")
    return sorted(values)


def cmd_entanglement(cfg: RunConfig, gammas: list[float] | None) -> int:
    t = _time_grid(cfg, 1 if gammas is None else len(gammas))
    echo = _common_echo(cfg)
    if gammas is None:
        e = entanglement_entropy(cfg.params, t, cfg.variant)
        d = trace_distance_closed_form(cfg.params, t)
        _write_csv(cfg.out_path, "entanglement", echo, ("t", "E", "D"), "%.8e,%.8e,%.8e\n",
                   zip(t, e, d))
        return 0
    family = [(gamma, entanglement_entropy(replace(cfg.params, gamma=gamma), t, cfg.variant))
              for gamma in gammas]
    del echo["gamma"]  # per-row column instead
    echo["gammas"] = ",".join(repr(g) for g in gammas)
    rows = ((gamma, ti, ei) for gamma, e in family for ti, ei in zip(t, e))
    _write_csv(cfg.out_path, "entanglement", echo, ("gamma", "t", "E"), "%.8e,%.8e,%.8e\n", rows)
    return 0


def cmd_validate() -> int:
    results = run_validation()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
        for row in result.table:
            print(f"    {row}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate()
        cfg = resolve_config(args)
        if args.command == "trace-distance":
            return cmd_trace_distance(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.param, args.sweep_from, args.sweep_to, args.points)
        if args.command == "blp":
            return cmd_blp(cfg)
        if args.command == "entanglement":
            return cmd_entanglement(cfg, parse_gammas(args.gammas))
        raise InvariantViolation(f"unknown command {args.command!r}")  # pragma: no cover
    except (QmemoryError, ValueError) as exc:
        print(f"qmemory: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qmemory: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
