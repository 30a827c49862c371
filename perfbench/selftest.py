"""Show that the benchmark's output checks bite.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``.

Each check is fed one correct output, which must pass, and one corrupted
output, which must count as failed.  The analytic series must also reproduce
the frozen oracle values of ``tests/helpers.py`` within 1e-12.  Exits 0 only
if every expectation holds.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import os
import subprocess
import sys
import types

import oracles
import run
import workloads

FROZEN_TOL = 1e-12


def _frozen_values() -> list[tuple[str, float, float]]:
    spec = importlib.util.spec_from_file_location(
        "frozen_helpers", os.path.join(run.ROOT, "tests", "helpers.py"))
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    p = helpers.CANONICAL
    return [
        ("canonical series vs N_CANONICAL",
         oracles.canonical_series(p.gamma, p.m, p.omega), helpers.N_CANONICAL),
        ("|10>/|01> series vs N_MAXIMIZED_CANONICAL",
         oracles.swap_series(p.gamma, p.m, p.omega), helpers.N_MAXIMIZED_CANONICAL),
    ]


def _corrupt_cell(text: str) -> str:
    """Change one digit in the middle data row's last column."""
    lines = text.split("\n")
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    i = data[len(data) // 2]
    head, _, cell = lines[i].rpartition(",")
    digit = cell[1] if cell[0] == "-" else cell[0]
    lines[i] = f"{head},{cell.replace(digit, '9' if digit != '9' else '8', 1)}"
    return "\n".join(lines)


def main() -> int:
    q = run.load_qmemory()
    runner = workloads.Runner(run.ROOT, q)
    outcomes = []

    def expect(name: str, error, should_fail: bool) -> None:
        ok = (error is not None) == should_fail
        outcomes.append(ok)
        verdict = "counted as failed" if error else "passed"
        print(f"[{'ok' if ok else 'WRONG'}] {name}: {verdict}" + (f" ({error})" if error else ""))

    for name, got, frozen in _frozen_values():
        diff = abs(got - frozen)
        outcomes.append(diff <= FROZEN_TOL)
        print(f"[{'ok' if diff <= FROZEN_TOL else 'WRONG'}] {name}: |diff| = {diff:.1e}")

    # Library results, corrupted in the value each check reads.
    blp_params = {"gamma": 0.02, "m": 0.3, "omega": 0.7}
    verdict = q.nonmarkov.classify_dynamics(q.dynamics.ModelParams(**blp_params), oracles.EPS)
    expect("blp", oracles.check_blp(**blp_params, eps=oracles.EPS, verdict=verdict), False)
    bad = dataclasses.replace(verdict, n_value=verdict.n_value + 1e-6)
    expect("blp, N off by 1e-6", oracles.check_blp(**blp_params, eps=oracles.EPS,
                                                    verdict=bad), True)
    bad = dataclasses.replace(verdict, regime=q.nonmarkov.MARKOVIAN)
    expect("blp, verdict flipped", oracles.check_blp(**blp_params, eps=oracles.EPS,
                                                      verdict=bad), True)

    max_params = {"gamma": 0.3, "m": 0.5, "omega": 1.0}
    result = q.nonmarkov.blp_measure_maximized(q.dynamics.ModelParams(**max_params), grid_size=3)
    expect("maximize", oracles.check_maximize(**max_params, result=result), False)
    bad = types.SimpleNamespace(n_value=oracles.swap_series(**max_params) - 1e-6)
    expect("maximize, N below the |10>/|01> series", oracles.check_maximize(
        **max_params, result=bad), True)

    results = q.validate.run_validation(max_step=0.5)
    expect("control", oracles.check_control(results), False)
    bad = [dataclasses.replace(r, passed=True) if r.name == "entanglement-consistency" else r
           for r in results]
    expect("control, an integrator check passing", oracles.check_control(bad), True)

    names = [r.name for r in results]
    good = "".join(f"[PASS] {n}: ok\n" for n in names) + f"{len(names)}/{len(names)} checks passed\n"
    expect("validate", oracles.check_validate(0, good), False)
    expect("validate, one [FAIL]", oracles.check_validate(
        0, good.replace("[PASS]", "[FAIL]", 1)), True)
    expect("validate, exit 2", oracles.check_validate(2, good), True)

    # Real invocations; each corruption hits one property the check covers.
    version = q.__version__
    specs = [
        {"command": "trace-distance", "gamma": 0.21, "m": 0.45, "omega": 0.83, "steps": 201},
        {"command": "entanglement", "gamma": 0.2, "m": 0.5, "omega": 0.8, "variant": "entropy",
         "gammas": [0.3, 0.1], "steps": 201},
        {"command": "sweep", "gamma": 0.2, "m": 0.5, "omega": 0.8, "param": "omega",
         "lo": 0.05, "hi": 1.2, "points": 9, "steps": 201},
        {"command": "blp", "gamma": 0.19, "m": 0.55, "omega": 0.9,
         "out": os.path.join(".perfbench_out", "selftest-blp.csv")},
    ]
    for spec in specs:
        sample = runner.run(workloads.Op("cli", spec, frozenset()))
        expect(spec["command"], sample.error, False)
        argv = workloads.cli_argv(spec)
        proc = subprocess.run([sys.executable, "-m", "qmemory", *argv], cwd=run.ROOT,
                              env=runner.env, capture_output=True, text=True, timeout=120)
        out_path = os.path.join(run.ROOT, spec["out"]) if spec.get("out") else None
        if out_path:
            with open(out_path, encoding="utf-8", newline="") as fh:
                out_text = fh.read()
            os.remove(out_path)
            stdout = proc.stdout
            expect("blp, N in the summary changed", oracles.check_cli(
                spec, version, 0, stdout.replace("N=0.", "N=1.", 1), out_text), True)
            expect("blp, one interval gain changed", oracles.check_cli(
                spec, version, 0, stdout, _corrupt_cell(out_text)), True)
            expect("blp, one interval dropped", oracles.check_cli(
                spec, version, 0, stdout, out_text.rstrip("\n").rsplit("\n", 1)[0] + "\n"), True)
            continue
        text = proc.stdout
        expect(f"{spec['command']}, one cell changed", oracles.check_cli(
            spec, version, 0, _corrupt_cell(text), None), True)
        expect(f"{spec['command']}, last row dropped", oracles.check_cli(
            spec, version, 0, text.rstrip("\n").rsplit("\n", 1)[0] + "\n", None), True)
        expect(f"{spec['command']}, a metadata line dropped", oracles.check_cli(
            spec, version, 0, "\n".join(text.split("\n")[:2] + text.split("\n")[3:]), None),
            True)
        expect(f"{spec['command']}, exit 1", oracles.check_cli(spec, version, 1, text, None), True)

    # The same argv twice must give byte-identical output.
    spec = dict(specs[0])
    runner.run(workloads.Op("cli", spec, frozenset()))
    key = tuple(workloads.cli_argv(spec))
    runner.digests[key] = "a different digest"
    expect("repeated argv, differing bytes", runner.run(
        workloads.Op("cli", spec, frozenset())).error, True)

    print(f"{sum(outcomes)}/{len(outcomes)} expectations hold")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
