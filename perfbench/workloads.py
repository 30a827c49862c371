"""The benchmark's workloads: seeded rounds of operations, and how each runs.

Every workload is a closed loop with one client: an operation starts only
after the previous one has finished and been checked.  A run repeats whole
rounds.  A round has a fixed composition; the seed draws its parameters
within fixed strata and shuffles its order.  Two seeds therefore give
different inputs with the same cost profile, which keeps medians steady.

Each operation carries tags: ``main`` and ``side`` select the latency metrics
it feeds (see ``README.md`` for the mapping to named metrics per workload).
"""
from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import oracles

PAPER = {"gamma": 0.2, "m": 0.5, "omega": 0.8}
SUBPROCESS_TIMEOUT_S = 150


@dataclass
class Op:
    kind: str  # cli | blp | maximize | validate | control
    spec: dict
    tags: frozenset


@dataclass
class Sample:
    op: Op
    latency: float
    error: str | None


# --- rounds -------------------------------------------------------------------

def _near_paper(rng: random.Random) -> dict:
    """A parameter point within about 20% of the paper's."""
    return {k: round(v * rng.uniform(0.8, 1.25), 6) for k, v in PAPER.items()}


def cli_round(rng: random.Random) -> list[Op]:
    """One ``qmemory`` invocation per subcommand shape, plus one repeat.

    ``--steps`` and ``--points`` are seeded permutations of fixed multisets,
    so every round formats about the same number of rows.  The three sweeps
    are the costliest ops of a round; over a run they hold the tail.
    """
    curve_steps = rng.sample([201, 2001, 2001, 20001, 20001], 5)
    family_steps = rng.sample([201, 2001], 2)
    sweep_points = rng.sample([rng.randint(9, 10), rng.randint(12, 13), rng.randint(15, 16)], 3)

    def gammas():
        return [round(g * rng.uniform(0.9, 1.1), 6) for g in (0.3, 0.1, 0.2)]

    specs = [
        {"command": "trace-distance", **PAPER, "defaults": True, "steps": curve_steps[0]},
        {"command": "trace-distance", **_near_paper(rng), "steps": curve_steps[1], "out": True},
        {"command": "trace-distance", **_near_paper(rng), "steps": curve_steps[2]},
        {"command": "entanglement", **PAPER, "defaults": True, "variant": "eq13",
         "steps": curve_steps[3]},
        {"command": "entanglement", **_near_paper(rng), "variant": "entropy",
         "steps": curve_steps[4], "out": True},
        {"command": "entanglement", **_near_paper(rng), "variant": "eq13", "gammas": gammas(),
         "steps": family_steps[0]},
        {"command": "entanglement", **_near_paper(rng), "variant": "entropy",
         "gammas": gammas(), "steps": family_steps[1], "out": True},
        {"command": "blp", **PAPER, "defaults": True},
        {"command": "blp", **_near_paper(rng), "out": True},
    ]
    # The repeat is one of the light ops, so that it does not shift the tail.
    repeat = dict(rng.choice([s for s in specs if s.get("steps", 0) < 20001]))
    for (param, lo, hi), points in zip(
        (("omega", 0.3, 1.2), ("gamma", 0.1, 0.4), ("m", 0.0, 1.5)), sweep_points
    ):
        specs.append({"command": "sweep", **_near_paper(rng), "param": param,
                      "lo": round(lo * rng.uniform(0.9, 1.1), 6),
                      "hi": round(hi * rng.uniform(0.9, 1.1), 6),
                      "points": points, "steps": 2001, "out": param == "gamma"})
    specs.append(repeat)
    for slot, spec in enumerate(specs):
        if spec.get("out") is True:
            spec["out"] = os.path.join(".perfbench_out", f"cli-{slot}.csv")
    rng.shuffle(specs)
    return [Op("cli", spec, frozenset({"main", "side"} if spec["command"] == "sweep"
                                      else {"main"})) for spec in specs]


STRESS = {"gamma": 0.01, "m": 0.0, "omega": 3.0}  # Omega/R = 300
# Omega/R strata of one round's blp draws.  The cost of a blp op grows with
# Omega/R.  Sorted by cost, a round is 4 cheap Markovian draws, 2 strata, 3
# draws near 20, 1 stratum, 4 draws near 60 and the stress point.  The median
# always falls among the draws near 20, and with 3 or more rounds the
# 11th-largest latency falls among the draws near 60.  Both stay put when a
# slower or faster machine runs a round more or fewer, and both are spread
# over the whole run, so a slow spell of a shared machine moves them less.
BLP_STRATA = (((0.1, 0.2),) * 4 + ((5, 9), (9, 16)) + ((18, 22),) * 3 + ((35, 45),)
              + ((57, 63),) * 4)


def _blp_draw(rng: random.Random, lo: float, hi: float) -> dict:
    """gamma in [0.01, 0.05], m in [0, 1] and Omega/R in [lo, hi); Omega in
    [0.5, 3] except for the small-Omega (Markovian) strata."""
    while True:
        ratio = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        gamma, m = rng.uniform(0.01, 0.05), rng.uniform(0.0, 1.0)
        omega = ratio * oracles.relaxation_rate(gamma, m)
        if lo < 1.0 or 0.5 <= omega <= 3.0:
            return {"gamma": gamma, "m": m, "omega": omega}


def _maximize_draw(rng: random.Random) -> dict:
    """Moderate coupling with Omega/R near 2, so each op costs alike."""
    while True:
        gamma, m = rng.uniform(0.1, 0.5), rng.uniform(0.0, 2.0)
        omega = rng.uniform(1.8, 2.2) * oracles.relaxation_rate(gamma, m)
        if 0.3 <= omega <= 1.5:
            return {"gamma": gamma, "m": m, "omega": omega, "grid_size": 5}


def memory_round(rng: random.Random) -> list[Op]:
    """Fifteen blp ops (see ``BLP_STRATA``) and two product-pair maximizations."""
    ops = [Op("blp", _blp_draw(rng, lo, hi), frozenset({"main"})) for lo, hi in BLP_STRATA]
    ops.append(Op("blp", dict(STRESS), frozenset({"main"})))
    ops += [Op("maximize", _maximize_draw(rng), frozenset({"side"})) for _ in range(2)]
    rng.shuffle(ops)
    return ops


CONTROLS_PER_ROUND = 20


def validate_round(rng: random.Random) -> list[Op]:
    """One ``qmemory validate`` subprocess among coarse-step control runs."""
    ops = [Op("control", {"max_step": 0.5}, frozenset({"main"}))
           for _ in range(CONTROLS_PER_ROUND)]
    ops.insert(rng.randrange(len(ops) + 1), Op("validate", {}, frozenset({"side"})))
    return ops


@dataclass(frozen=True)
class Workload:
    make_round: object
    # Named metrics for the ``main`` and ``side`` latency groups.
    main_name: str
    side_name: str
    # Untimed blp warm-up ops, at parameter points outside the timed set.
    warmup: tuple = ()
    # Whose peak resident memory counts: the harness, its children, or both.
    rss_of: tuple = ("children",)


WORKLOADS = {
    "cli-paper": Workload(cli_round, "cli", "sweep"),
    "memory-measure": Workload(
        memory_round, "blp", "maximize",
        warmup=(Op("blp", dict(PAPER), frozenset()),),
        rss_of=("self",)),
    "validate": Workload(validate_round, "control", "validate",
                         rss_of=("self", "children")),
}


def warmup_code(workload: Workload) -> str:
    """Python source that imports qmemory and runs the workload's warm-up."""
    lines = ["import qmemory"]
    lines += [f"qmemory.classify_dynamics(qmemory.ModelParams(**{op.spec!r}), {oracles.EPS!r})"
              for op in workload.warmup]
    return "\n".join(lines)


# --- running one op -----------------------------------------------------------

def cli_argv(spec: dict) -> list[str]:
    argv = [spec["command"]]
    if not spec.get("defaults"):
        params = dict(spec)
        if spec["command"] == "sweep":
            del params[spec["param"]]
        if spec.get("gammas"):
            del params["gamma"]
        argv += [arg for key in ("gamma", "m", "omega") if key in params
                 for arg in (f"--{key}", repr(float(params[key])))]
        if "variant" in spec:
            argv += ["--variant", spec["variant"]]
    if spec["command"] == "sweep":
        argv += ["--param", spec["param"], "--from", repr(float(spec["lo"])),
                 "--to", repr(float(spec["hi"])), "--points", str(spec["points"])]
    if spec.get("gammas"):
        argv += ["--gammas", ",".join(repr(g) for g in spec["gammas"])]
    if "steps" in spec:
        argv += ["--steps", str(spec["steps"])]
    if spec.get("out"):
        argv += ["--out", spec["out"]]
    return argv


@dataclass
class Runner:
    """Executes ops against the checkout's ``src/qmemory``; optionally traced."""

    root: str
    qmemory: object
    tracer: object = None
    digests: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.out_dir = os.path.join(self.root, ".perfbench_out")
        os.makedirs(self.out_dir, exist_ok=True)

    def run(self, op: Op) -> Sample:
        span = self.tracer.begin(self.tracer.name_id(f"op.{op.kind}")) if self.tracer else None
        if op.kind in ("cli", "validate"):
            return self._subprocess(op, span)
        return self._in_process(op, span)

    def _stop(self, start: float, span) -> float:
        """Latency since ``start``; closes the op's span when tracing."""
        latency = time.perf_counter() - start
        if span is not None:
            self.tracer.finish(span)
        return latency

    def _in_process(self, op: Op, span) -> Sample:
        q = self.qmemory
        s = op.spec
        start = time.perf_counter()
        try:
            if op.kind == "control":
                result = q.validate.run_validation(max_step=s["max_step"])
            else:
                params = q.dynamics.ModelParams(gamma=s["gamma"], m=s["m"], omega=s["omega"])
                if op.kind == "blp":
                    result = q.nonmarkov.classify_dynamics(params, oracles.EPS)
                else:
                    result = q.nonmarkov.blp_measure_maximized(params, grid_size=s["grid_size"])
        except Exception as exc:  # a failed op is counted, the run goes on
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            return Sample(op, self._stop(start, span), f"{op.kind} raised {detail}")
        latency = self._stop(start, span)
        if op.kind == "control":
            error = oracles.check_control(result)
        elif op.kind == "blp":
            error = oracles.check_blp(s["gamma"], s["m"], s["omega"], oracles.EPS, result)
        else:
            error = oracles.check_maximize(s["gamma"], s["m"], s["omega"], result)
        return Sample(op, latency, error)

    def _subprocess(self, op: Op, span) -> Sample:
        argv = cli_argv(op.spec) if op.kind == "cli" else ["validate"]
        span_file = os.path.join(self.out_dir, "child-spans.npz")
        if self.tracer:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "traced_cli.py"),
                   span_file, *argv]
        else:
            cmd = [sys.executable, "-m", "qmemory", *argv]
        out_path = os.path.join(self.root, op.spec["out"]) if op.spec.get("out") else None
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Sample(op, self._stop(start, span),
                          f"{op.kind} timed out after {SUBPROCESS_TIMEOUT_S} s")
        latency = self._stop(start, span)
        if span is not None and os.path.exists(span_file):
            self.tracer.adopt(span_file, span)
            os.remove(span_file)
        if op.kind == "validate":
            return Sample(op, latency, oracles.check_validate(proc.returncode, proc.stdout))

        out_text = None
        if out_path is not None and os.path.exists(out_path):
            with open(out_path, encoding="utf-8", newline="") as fh:
                out_text = fh.read()
            os.remove(out_path)
        error = oracles.check_cli(op.spec, self.qmemory.__version__, proc.returncode,
                                  proc.stdout, out_text)
        if out_path is not None and out_text is None and error is None:
            error = f"{op.spec['command']} wrote no --out file"
        digest = hashlib.sha256(f"{proc.stdout}\0{out_text}".encode()).hexdigest()
        if self.digests.setdefault(tuple(argv), digest) != digest and error is None:
            error = f"output of {' '.join(argv)} differs between identical invocations"
        csv = out_text if out_text is not None else proc.stdout
        if span is not None and csv.startswith("# qmemory"):  # not a blp summary line
            rows = sum(1 for line in csv.splitlines() if not line.startswith("#")) - 1
            self.tracer.set_counts(span, len(csv.encode()), rows)
        return Sample(op, latency, error)
