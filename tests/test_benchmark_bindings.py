"""The library names that the benchmark's tracer binds must exist.

``perfbench/tracer.py`` wraps the functions in ``TRACED`` by name and its
``COUNTS`` functions read call arguments by parameter name, so deleting or
renaming one of them breaks only the traced benchmark run.  These tests make
that a Tier-1 failure.  The tracer module imports only the standard library
at load time, so it is loaded here by path.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _library_function(qualname):
    mod, func = qualname.split(".")
    return getattr(importlib.import_module(f"qmemory.{mod}"), func, None)


def _names_read(counts_fn):
    """Parameter names a counts function reads as ``a["name"]`` (bound
    arguments) or ``kwargs["name"]`` (a keyword that is else positional)."""
    read = {"a": set(), "kwargs": set()}
    for node in ast.walk(ast.parse(inspect.getsource(counts_fn))):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in read and isinstance(node.slice, ast.Constant)):
            read[node.value.id].add(node.slice.value)
    return read["a"], read["kwargs"]


TRACED_NAMES = [f"{mod}.{func}" for mod, funcs in tracer.TRACED.items() for func in funcs]


@pytest.mark.parametrize("qualname", TRACED_NAMES)
def test_traced_function_exists(qualname):
    assert callable(_library_function(qualname)), qualname


def test_counts_read_the_expected_names():
    # pins the parser below: a counts function that reads its arguments some
    # other way would otherwise go unchecked
    read = {name: set().union(*_names_read(fn)) for name, fn in tracer.COUNTS.items()}
    assert read == {
        "nonmarkov.trace_distance_rate": {"t"},
        "nonmarkov.blp_measure": {"params", "dt", "t_max"},
        "nonmarkov.blp_measure_maximized": {"params", "grid_size", "dt", "t_max"},
        "dynamics.integrate_master": {"params", "max_step"},
        "entangle.entanglement_entropy": {"t"},
        "validate.run_validation": {"max_step"},
    }


@pytest.mark.parametrize("qualname", sorted(tracer.COUNTS))
def test_counted_parameters_exist(qualname):
    assert qualname in TRACED_NAMES
    parameters = list(inspect.signature(_library_function(qualname)).parameters)
    bound, keywords = _names_read(tracer.COUNTS[qualname])
    assert bound <= set(parameters), (qualname, bound - set(parameters))
    # kwargs["t"] is the fallback for args[1]: the second positional parameter
    for name in keywords:
        assert parameters[1] == name, (qualname, parameters)
