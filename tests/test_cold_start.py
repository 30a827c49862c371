"""Cold start: ``import qmemory`` loads nothing until a name is read, and a
subcommand loads and builds only what it runs, with the same texts.

``cli_usage_goldens.json`` holds the stdout, stderr and exit code of each
usage invocation as the parser that built every subcommand printed them.
"""
import contextlib
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmemory

TESTS = Path(__file__).resolve().parent
GOLDENS = json.loads((TESTS / "cli_usage_goldens.json").read_text(encoding="utf-8"))
TRACER_PATH = TESTS.parent / "perfbench" / "tracer.py"


def _python(*args, env=None):
    """A fresh interpreter with every warning raised as an error; help texts
    wrap at 80 columns whatever the terminal."""
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                          text=True, env={**os.environ, "COLUMNS": "80", **(env or {})})


def test_every_export_resolves_and_is_listed():
    listed = dir(qmemory)
    for name in qmemory.__all__:
        assert getattr(qmemory, name) is not None, name
        assert name in listed, name
    assert len(set(qmemory.__all__)) == len(qmemory.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qmemory.no_such_name


def test_import_loads_no_submodule_and_no_numpy():
    proc = _python("-c", "import sys, qmemory; print(sorted(m for m in sys.modules "
                         "if m == 'numpy' or m.startswith('qmemory.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_defining_modules_resolve_as_attributes():
    # as when the package imported them all: qmemory.dynamics.ModelParams works
    modules = ("densmat", "dynamics", "entangle", "errors", "nonmarkov", "validate")
    code = (f"import qmemory; print([getattr(qmemory, m).__name__ for m in {modules}], "
            f"{modules} == tuple(m for m in {modules} if m in dir(qmemory)))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[f'qmemory.{m}' for m in modules]} True\n"


def _imported(argv):
    """Modules ``python -X importtime -m qmemory argv`` reports importing."""
    proc = _python("-X", "importtime", "-m", "qmemory", *argv,
                   env={"PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_blp_imports_neither_validate_nor_the_pair_module():
    imported = _imported(["blp"])
    assert "qmemory.nonmarkov" in imported
    assert not imported & {"qmemory.validate", "qmemory.pairs"}


def test_blp_leaves_validate_unexecuted():
    # a lazily registered module runs outside the import statement, so
    # importtime cannot see it run: its namespace shows whether it did
    code = ("import sys; from qmemory import cli; cli.main(['blp']); "
            "module = sys.modules['qmemory.validate']; "
            "print('run_validation' in object.__getattribute__(module, '__dict__'), "
            "'qmemory.pairs' in sys.modules)")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"


def test_validate_and_the_maximizer_load_when_used():
    code = ("import sys, qmemory; from qmemory import cli; cli.cmd_validate(); "
            "qmemory.blp_measure_maximized(qmemory.ModelParams(0.2, 0.5, 0.8), 2, 0.05, 2.0); "
            "print(type(sys.modules['qmemory.validate']).__name__, "
            "'qmemory.pairs' in sys.modules)")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "module True"


def test_cli_import_registers_the_traced_modules():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = sorted(f"qmemory.{mod}" for mod in tracer.TRACED)
    proc = _python("-c", f"import sys, qmemory.cli; print([m in sys.modules for m in {modules}])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[True] * len(modules)}\n"


def test_maximizer_keeps_its_name_and_parameters():
    from qmemory import nonmarkov, pairs

    assert nonmarkov.blp_measure_maximized is qmemory.blp_measure_maximized
    assert str(inspect.signature(nonmarkov.blp_measure_maximized)) == (
        "(params: 'ModelParams', grid_size: 'int' = 5, dt: 'float | None' = None, "
        "t_max: 'float | None' = None) -> 'BlpResult'")
    assert pairs.BlpResult is nonmarkov.BlpResult


@pytest.mark.parametrize("case", GOLDENS, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_usage_texts_are_byte_identical(case):
    proc = _python("-m", "qmemory", *case["argv"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        case["exit"], case["stdout"], case["stderr"])


def _outcome(parse, argv):
    """The namespace or exit code of ``parse(argv)``, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["trace-distance", "--steps", "7"],
    ["sweep", "--param", "m", "--from", "0", "--to", "1", "--points", "3"],
    ["blp", "--gamma", "0.3", "--config=c.txt"],
    ["entanglement", "--gammas", "0.1,0.2", "--gamma", "0.3"],
    ["validate"],
    # abbreviations, a separator, top-level flags after the command, junk
    ["blp", "--gam", "0.3", "--t-m=5"], ["blp", "--", "x"], ["blp", "--ver"],
    ["blp", "-h", "--version"], ["validate", "--help", "x"], ["sweep", "--param", "q"],
    ["entanglement", "--variant", "eq12"], ["trace-distance", "--steps"], ["blp", "x", "y"],
    *(case["argv"] for case in GOLDENS),
], ids=" ".join)
def test_one_subcommand_parses_as_the_full_parser(argv):
    from qmemory import cli

    assert _outcome(cli.parse_args, argv) == _outcome(cli.build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", [
    [], ["--foo", "blp", "--gamma", "0.3"], ["--", "blp", "--gamma", "0.3"], ["x", "blp"],
    ["--version", "sweep"], ["-h", "entanglement"], ["--fo", "validate", "x"],
    ["blp", "--out", "sweep", "--gamma", "0.3"], ["--", "--", "blp"],
], ids=lambda argv: " ".join(argv) or "(none)")
def test_arguments_before_the_subcommand_parse_as_the_full_parser(argv):
    from qmemory import cli

    assert _outcome(cli.parse_args, argv) == _outcome(cli.build_parser().parse_args, argv)


def test_only_the_named_subcommands_get_flags():
    import argparse

    from qmemory import cli

    (sub,) = (a for a in cli.build_parser(["sweep"])._actions
              if isinstance(a, argparse._SubParsersAction))
    flags = {name: [o for a in p._actions for o in a.option_strings]
             for name, p in sub.choices.items()}
    assert list(flags) == list(cli._COMMANDS)
    assert "--param" in flags["sweep"] and "--gamma" in flags["sweep"]
    assert all(flags[name] == ["-h", "--help"] for name in flags if name != "sweep")
