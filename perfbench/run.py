"""qmemory benchmark: end-to-end metrics per workload, or per-layer spans.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, taken from a separate traced
pass.  The lines before it name every metric with its unit and sample count.
A full report with provenance is written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7
IMPORTTIME_REPEATS = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_qmemory():
    """Import qmemory from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qmemory", "__init__.py")):
        _fail(f"no qmemory sources under {SRC}; run from the root of a qmemory checkout")
    sys.path.insert(0, SRC)
    import qmemory
    import qmemory.cli
    import qmemory.validate

    if not os.path.abspath(qmemory.__file__).startswith(SRC + os.sep):
        _fail(f"imported qmemory from {qmemory.__file__}, not from {SRC}")
    return qmemory


def provenance(args, qmemory) -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qmemory")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "qmemory": qmemory.__version__, "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _python(code_args: list[str], env: dict, stderr=False) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *code_args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{code_args!r} exited {proc.returncode}: {proc.stderr[-500:]}")
    return wall, proc.stderr if stderr else ""


def setup_probe(workload, env: dict) -> float:
    """Wall time of a fresh interpreter importing qmemory and running the
    workload's warm-up."""
    import workloads

    return _python(["-c", workloads.warmup_code(workload)], env)[0]


def measure_import_layers(env: dict) -> dict:
    """Interpreter start, numpy import and qmemory's own import time."""
    interp = statistics.median(_python(["-c", "pass"], env)[0]
                               for _ in range(IMPORTTIME_REPEATS))
    numpy_s, own_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        _, err = _python(["-X", "importtime", "-c", "import qmemory"], env, stderr=True)
        rows = [m.groups() for m in re.finditer(
            r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", err, re.M)]
        numpy_s.append(sum(int(cum) for _, cum, _, name in rows if name == "numpy") / 1e6)
        own_s.append(sum(int(own) for own, _, _, name in rows
                         if name == "qmemory" or name.startswith("qmemory.")) / 1e6)
    return {"setup.interpreter_s": interp, "setup.import_numpy_s": statistics.median(numpy_s),
            "setup.import_qmemory_self_s": statistics.median(own_s)}


def run_rounds(workload, rng: random.Random, runner, seconds: float = math.inf,
               rounds: int | None = None, probes: int = 0) -> tuple[list, int, list]:
    """Whole rounds: ``rounds`` of them, or else as many as should end within
    ``seconds`` (at least one).

    ``probes`` set-up probes are spread evenly over the run, so that a slow
    spell of a shared machine cannot set all of them.
    """
    samples, setup = [], []
    start = time.perf_counter()
    done = 0
    while done != rounds:
        elapsed = time.perf_counter() - start
        if rounds is None and done and elapsed * (done + 1) / done > seconds:
            break
        for op in workload.make_round(rng):
            if len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
                setup.append(setup_probe(workload, runner.env))
            samples.append(runner.run(op))
        done += 1
    setup += [setup_probe(workload, runner.env) for _ in range(probes - len(setup))]
    return samples, done, setup


def latency_stats(samples, tag: str) -> dict:
    """Mean, median, and the highest percentile with at least ten samples above it."""
    values = sorted(s.latency for s in samples if tag in s.op.tags)
    n = len(values)
    if n == 0:
        return {"n": 0, "mean": None, "p50": None, "tail": None, "tail_percentile": None}
    tail_index = max(n - 11, 0)
    return {"n": n, "mean": statistics.fmean(values), "p50": statistics.median(values),
            "tail": values[tail_index], "tail_percentile": round(100.0 * (tail_index + 1) / n, 1)}


def peak_rss_mb(workload) -> float:
    """Peak resident set (ru_maxrss, KiB on Linux) of the processes doing the work."""
    who = {"self": resource.RUSAGE_SELF, "children": resource.RUSAGE_CHILDREN}
    return max(resource.getrusage(who[w]).ru_maxrss for w in workload.rss_of) / 1024.0


def end_to_end(workload, samples, setup_s: float) -> tuple[dict, dict]:
    """Generic metrics for the result line, and the same under workload names."""
    main, side = latency_stats(samples, "main"), latency_stats(samples, "side")
    busy = sum(s.latency for s in samples)
    failed = sum(1 for s in samples if s.error)
    generic = {
        "setup_s": setup_s,
        "main_mean_s": main["mean"],
        "main_tail_s": main["tail"],
        "side_p50_s": side["p50"],
        "ops_per_s": len(samples) / busy,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    m, s = workload.main_name, workload.side_name
    named = {
        "setup_s": {"value": setup_s, "unit": "s", "n": SETUP_PROBES},
        f"{m}_p50_s": {"value": main["p50"], "unit": "s", "n": main["n"]},
        f"{m}_mean_s": {"value": main["mean"], "unit": "s", "n": main["n"]},
        f"{m}_tail_s": {"value": main["tail"], "unit": "s", "n": main["n"],
                        "percentile": main["tail_percentile"]},
        f"{s}_p50_s": {"value": side["p50"], "unit": "s", "n": side["n"]},
        "ops_per_s": {"value": generic["ops_per_s"], "unit": "1/s", "n": len(samples)},
        "error_rate": {"value": failed / len(samples), "unit": "ratio", "n": len(samples)},
        "peak_rss_mb": {"value": generic["peak_rss_mb"], "unit": "MB", "n": 1},
    }
    return generic, named


def layer_metrics(cols: dict, base: list, traced: list, import_layers: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json, from the traced pass's spans."""
    import numpy as np

    import tracer

    totals = tracer.layer_totals(cols)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "a": 0, "b": 0}

    def t(name):
        return totals.get(name, empty)

    out = dict(import_layers)
    procs = [t("op.cli"), t("op.validate")]
    out["subprocess.calls"] = sum(p["calls"] for p in procs)
    out["subprocess.wall_s"] = sum(p["busy_s"] for p in procs)
    out["subprocess.import_s"] = t("subprocess.import")["busy_s"]
    out["subprocess.startup_s"] = sum(p["self_s"] for p in procs)
    for mod, funcs in tracer.TRACED.items():
        for func in funcs:
            entry = t(f"{mod}.{func}")
            for key in ("calls", "busy_s", "self_s"):
                out[f"{mod}.{func}.{key}"] = entry[key]
    out["cli.csv_bytes"] = t("op.cli")["a"]
    out["cli.csv_rows"] = t("op.cli")["b"]
    rate = t("nonmarkov.trace_distance_rate")
    out["nonmarkov.trace_distance_rate.scalar_calls"] = rate["a"]
    out["nonmarkov.trace_distance_rate.array_points"] = rate["b"]
    out["nonmarkov.scan_points"] = t("nonmarkov.blp_measure")["a"]
    out["nonmarkov.intervals"] = t("nonmarkov.blp_measure")["b"]
    maxi = t("nonmarkov.blp_measure_maximized")
    out["nonmarkov.maximize.candidates"] = maxi["a"]
    out["nonmarkov.maximize.curve_points"] = maxi["b"]
    out["nonmarkov.maximize.flops"] = maxi["b"] * tracer.FLOPS_PER_CURVE_POINT
    sup = t("dynamics.superoperator")
    out["dynamics.superoperator.cache_hits"] = sup["a"]
    out["dynamics.superoperator.cache_misses"] = sup["b"]
    out["dynamics.rk4_steps"] = t("dynamics.integrate_master")["a"]
    out["dynamics.rk4_flops"] = out["dynamics.rk4_steps"] * tracer.RK4_FLOPS_PER_STEP
    out["entangle.points"] = t("entangle.entanglement_entropy")["a"]
    names = cols["names"].tolist()
    if "validate.run_validation" in names:
        sel = cols["name"] == names.index("validate.run_validation")
        for flag, label in ((0, "validate"), (1, "control")):
            runs = sel & (cols["b"] == flag)
            out[f"validate.checks_failed.{label}"] = (
                float(cols["a"][runs].sum()) / int(runs.sum()) if runs.any() else 0.0)
    else:
        out["validate.checks_failed.validate"] = out["validate.checks_failed.control"] = 0.0
    out["trace.spans"] = int(np.size(cols["name"]))
    for tag, key in (("main", "mean"), ("main", "tail"), ("side", "p50")):
        b, tr = latency_stats(base, tag)[key], latency_stats(traced, tag)[key]
        out[f"trace.overhead.{tag}_{key}_s"] = (tr - b) if b is not None else 0.0
    out["trace.overhead.ops_per_s"] = (len(traced) / sum(s.latency for s in traced)
                                       - len(base) / sum(s.latency for s in base))
    return out


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, args, qmemory) -> dict:
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    runner = workloads.Runner(ROOT, qmemory)
    spec = load_benchmark_spec()
    warm = [runner.run(op) for op in workload.warmup]
    rng = random.Random(f"{name}:{args.seed}")
    report = {"provenance": provenance(args, qmemory)}

    if not args.trace:
        samples, _, setup = run_rounds(workload, rng, runner, seconds=args.seconds,
                                       probes=SETUP_PROBES)
        generic, named = end_to_end(workload, samples, statistics.median(setup))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in generic.items()}
        report["named_metrics"] = named
        for key, entry in named.items():
            extra = f" at p{entry['percentile']}" if "percentile" in entry else ""
            print(f"{name}  {key} = {entry['value']:.6g} {entry['unit']}{extra}  (n={entry['n']})")
    else:
        import_layers = measure_import_layers(runner.env)
        # The traced pass draws fresh rounds, as many as the untraced pass ran:
        # replaying the same inputs would find the library's caches warm.
        base, rounds, _ = run_rounds(workload, rng, runner, seconds=args.seconds / 2.0)
        runner.tracer = Tracer()
        runner.tracer.install()
        try:
            traced, _, _ = run_rounds(workload, rng, runner, rounds=rounds)
        finally:
            runner.tracer.uninstall()
        cols = runner.tracer.columns()
        span_path = os.path.join(OUT_DIR, f"spans-{name}-seed{args.seed}.npz")
        runner.tracer.save(span_path)
        values = layer_metrics(cols, base, traced, import_layers)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        samples = base + traced
        report["span_file"] = os.path.relpath(span_path, ROOT)
        for key, entry in metrics.items():
            print(f"{name}  {key} = {entry['value']:.6g} {entry['unit']}")

    samples = warm + samples
    errors = [s.error for s in samples if s.error]
    for error in errors[:20]:
        print(f"perfbench: failed op: {error}", file=sys.stderr)
    result = {"correct": not errors, "attempted": len(samples), "failed": len(errors),
              "metrics": metrics}
    report.update(result)
    report["errors"] = errors[:100]
    report["latencies"] = [[s.op.kind, s.latency] for s in samples]
    path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"{name}  report: {os.path.relpath(path, ROOT)}")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-paper", "memory-measure", "validate", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        _fail(f"no BENCHMARK.json in {ROOT}")
    qmemory = load_qmemory()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, qmemory)))
        return
    # One process per workload, so that peak memory is not carried over.
    results = {}
    for name in ("cli-paper", "memory-measure", "validate"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


if __name__ == "__main__":
    main()
