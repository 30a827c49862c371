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
import importlib.util
import itertools
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .dynamics import MAX_PARAMETER, ModelParams, ParamFamily
from .entangle import EntanglementVariant, entanglement_entropy
from .errors import InvariantViolation, QmemoryError, _real
from .nonmarkov import (
    canonical_measures,
    classify_dynamics,
    trace_distance_closed_form,
    trace_distance_rate,
)

# Largest number of CSV data rows one invocation may emit.
MAX_ROWS = 10**6
# Largest --config file, in bytes, that one invocation reads.
MAX_CONFIG_BYTES = 2**16
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
        object.__setattr__(self, "t_max",
                           _real("t_max", self.t_max, MAX_PARAMETER, strict=True))
        object.__setattr__(self, "eps", _real("eps", self.eps))


# Subcommands, in the order of the help listing: name -> help line.
_COMMANDS = {
    "trace-distance": "distance between the two canonical preparations vs time",
    "sweep": "distance curves across a parameter family",
    "blp": "accumulated information-backflow measure",
    "entanglement": "entanglement entropy vs time",
    "validate": "run all internal cross-checks",
}


def _register_lazily(name: str) -> None:
    """Put the submodule ``name`` in ``sys.modules``, unless it is there,
    through :class:`importlib.util.LazyLoader`: the module runs when one of
    its attributes is first read, so a command that never reads one never
    pays for its import."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, module)


# The cross-check suite: only ``cmd_validate`` reads it.
_register_lazily(__package__ + ".validate")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for validation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    """The flags of subcommand ``command``."""
    if command == "validate":
        return
    for key, (parse, _, text) in _SETTINGS.items():
        choices = [v.value for v in EntanglementVariant] if key == "variant" else None
        p.add_argument("--" + key.replace("_", "-"), type=parse, choices=choices, help=text)
    p.add_argument("--config", help="key = value config file; flags override it")
    if command == "sweep":
        p.add_argument("--param", choices=("gamma", "m", "omega"), required=True,
                       help="which parameter the family varies")
        p.add_argument("--from", dest="sweep_from", type=float, required=True,
                       help="first family value")
        p.add_argument("--to", dest="sweep_to", type=float, required=True,
                       help="last family value")
        p.add_argument("--points", type=int, required=True, help="family size (>= 1)")
    elif command == "entanglement":
        p.add_argument("--gammas",
                       help="comma-separated decay rates; switches to the "
                            "gamma-family output (columns gamma,t,E)")


def build_parser(commands=tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The parser of every subcommand, each listed with its help line; only
    those named in ``commands`` get their flags."""
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
    for name, text in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        if name in commands:
            _add_arguments(command, name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the flags of the named
    subcommand alone.  The top level's flags take no value, so the first
    argument that names a subcommand is the subcommand argparse runs, if it
    runs one."""
    return build_parser([arg for arg in argv if arg in _COMMANDS][:1]).parse_args(argv)


# --- config resolution -------------------------------------------------------

def load_config_file(path: str) -> dict:
    """Parse a ``key = value`` file of at most :data:`MAX_CONFIG_BYTES` bytes;
    ``#`` starts a comment."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise InvariantViolation(
            f"{path}: config file is longer than the limit of {MAX_CONFIG_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise InvariantViolation(
            f"{path}:{lineno}: not UTF-8 text: byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None
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
    variant = EntanglementVariant(merged["variant"])
    params = ModelParams(gamma=merged["gamma"], m=merged["m"], omega=merged["omega"])
    return RunConfig(
        params=params,
        t_max=merged["t_max"],
        steps=merged["steps"],
        eps=merged["eps"],
        variant=variant,
        out_path=merged["out"],
    )


# --- deterministic CSV -------------------------------------------------------

def _echo_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(out_path: str | None, command: str, echo: dict, header: tuple,
               blocks) -> None:
    """Write the ``#`` lines, the header and the row ``blocks`` (strings of
    formatted rows, see :func:`_column_blocks` and :func:`_family_blocks`);
    every check that can fail has run before the first byte."""
    head = "".join([f"# qmemory {__version__}\n", f"# command: {command}\n",
                    *(f"# {key} = {_echo_value(echo[key])}\n" for key in sorted(echo)),
                    ",".join(header) + "\n"])
    if out_path is None:
        sys.stdout.writelines(itertools.chain([head], blocks))
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(itertools.chain([head], blocks))


def _column_blocks(template: str, rows: int, columns):
    """Rows ``template % (c0[i], c1[i], ...)``, :data:`_WRITE_BLOCK` rows per
    ``%`` call, where ``columns(block)`` gives the column slices ``block``:
    only one block's cells exist at a time, as numbers or as text."""
    for start in range(0, rows, _WRITE_BLOCK):
        block = np.column_stack(columns(slice(start, start + _WRITE_BLOCK)))
        yield (template * len(block)) % tuple(block.ravel().tolist())


def _family_blocks(t: np.ndarray, members: int, member_rows):
    """Rows ``lead + "%.8e" % t[j] + "," + "%.8e" % curve[j] + tail`` of
    ``members`` curves over the shared times ``t``, member after member.

    ``member_rows(block)`` gives the ``(leads, tails, curves)`` of a slice of
    members, at most :data:`_WRITE_BLOCK` rows' worth (one member where a
    curve is longer).  The times are formatted once (once per block of
    :data:`_WRITE_BLOCK` times where a curve is longer), and each member's
    constant cells are baked into its row template, so the one ``%`` call per
    block formats only the curve values.
    """
    def time_cells(start):
        times = t[start:start + _WRITE_BLOCK]
        return (("%.8e\n" * len(times)) % tuple(times.tolist())).splitlines()

    shared = time_cells(0) if t.size <= _WRITE_BLOCK else None
    per_block = max(1, _WRITE_BLOCK // t.size)
    for first in range(0, members, per_block):
        leads, tails, curves = member_rows(slice(first, first + per_block))
        for start in range(0, t.size, _WRITE_BLOCK):
            cells = shared or time_cells(start)
            template = "".join([lead + (",%.8e" + tail + lead).join(cells) + ",%.8e" + tail
                                for lead, tail in zip(leads, tails)])
            yield template % tuple(curves[:, start:start + _WRITE_BLOCK].ravel().tolist())


def _common_echo(cfg: RunConfig) -> dict:
    return {**vars(cfg.params), "t_max": cfg.t_max, "steps": cfg.steps, "eps": cfg.eps,
            "variant": cfg.variant.value}


def _time_grid(cfg: RunConfig, curves: int = 1) -> np.ndarray:
    """The shared sample times, once ``curves`` curves of them fit in
    :data:`MAX_ROWS` rows; checked before anything is allocated.

    Every closed form accepts these times (finite and nonnegative, with
    ``2 omega t`` at most 2e200), so rows computed block by block while
    others are written cannot fail.
    """
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

    def columns(block: slice):
        return (t[block], trace_distance_closed_form(cfg.params, t[block]),
                trace_distance_rate(cfg.params, t[block]))

    _write_csv(cfg.out_path, "trace-distance", _common_echo(cfg), ("t", "D", "sigma"),
               _column_blocks("%.8e,%.8e,%.8e\n", t.size, columns))
    return 0


def cmd_sweep(cfg: RunConfig, param: str, lo: float, hi: float, points: int) -> int:
    if points < 1:
        raise InvariantViolation(f"--points must be >= 1, got {points!r}")
    for end in (lo, hi):  # every parameter limit is an interval, so the family is valid
        replace(cfg.params, **{param: end})
    if lo > hi:
        raise InvariantViolation(f"--from must not exceed --to, got {lo!r} > {hi!r}")
    t = _time_grid(cfg, points)
    values = np.linspace(lo, hi, points)

    def family(swept: np.ndarray) -> ParamFamily:
        return ParamFamily(**{**vars(cfg.params), param: swept})

    # every member's interval limit is checked before the first byte
    flags = np.concatenate([canonical_measures(family(values[first:first + _WRITE_BLOCK]))
                            > cfg.eps for first in range(0, points, _WRITE_BLOCK)])
    lead = param + ",%.8e,"

    def member_rows(block: slice):
        swept = values[block]
        curves = trace_distance_closed_form(family(swept[:, None]), t)
        return ([lead % value for value in swept.tolist()],
                [",1\n" if flag else ",0\n" for flag in flags[block].tolist()], curves)

    echo = _common_echo(cfg)
    del echo[param]  # the swept parameter lives in the sweep_value column
    echo.update({"param": param, "from": float(lo), "to": float(hi), "points": points})
    _write_csv(cfg.out_path, "sweep", echo, ("sweep_param", "sweep_value", "t", "D", "N_flag"),
               _family_blocks(t, points, member_rows))
    return 0


def cmd_blp(cfg: RunConfig) -> int:
    verdict = classify_dynamics(cfg.params, cfg.eps)
    print(
        f"N={verdict.n_value:.6f} class={verdict.regime} "
        f"intervals={verdict.interval_count} tail<={verdict.tail_bound:.3e}"
    )
    if cfg.out_path is not None:
        result = verdict.result
        _write_csv(cfg.out_path, "blp", _common_echo(cfg), ("t_start", "t_end", "gain"),
                   _column_blocks("%.8e,%.8e,%.8e\n", len(result.gains),
                                  lambda block: (result.starts[block], result.ends[block],
                                                 result.gains[block])))
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
        def columns(block: slice):
            return (t[block], entanglement_entropy(cfg.params, t[block], cfg.variant),
                    trace_distance_closed_form(cfg.params, t[block]))

        _write_csv(cfg.out_path, "entanglement", echo, ("t", "E", "D"),
                   _column_blocks("%.8e,%.8e,%.8e\n", t.size, columns))
        return 0
    # every decay rate is checked before the first byte
    family = ParamFamily(**{**vars(cfg.params), "gamma": np.array(gammas)[:, None]})
    del echo["gamma"]  # per-row column instead
    echo["gammas"] = ",".join(repr(g) for g in gammas)

    def member_rows(block: slice):
        leads = ["%.8e," % gamma for gamma in gammas[block]]
        members = ParamFamily(family.gamma[block], family.m, family.omega)
        return leads, ["\n"] * len(leads), entanglement_entropy(members, t, cfg.variant)

    _write_csv(cfg.out_path, "entanglement", echo, ("gamma", "t", "E"),
               _family_blocks(t, len(gammas), member_rows))
    return 0


def cmd_validate() -> int:
    from .validate import run_validation

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
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
