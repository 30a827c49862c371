"""One argument rule at the library boundary.

Every numeric argument of the public API passes one of three rules: a real
scalar (Python or numpy int or float, never a bool), an array of integer or
float dtype, or a square matrix (or stack of them) of integer, float or
complex dtype.  Anything else, and any value out of range, is rejected with
a :class:`QmemoryError` whose message names the argument.
"""
import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qmemory
from qmemory import (
    XSTATE_10,
    XState,
    ModelParams,
    ParamFamily,
    QmemoryError,
    binary_entropy,
    blp_measure,
    blp_measure_maximized,
    classify_dynamics,
    embed_xstate,
    entanglement_entropy,
    extract_xstate,
    hermitian_eigenvalues,
    hermiticity_defect,
    integrate_master,
    lindblad_rhs,
    partial_trace_qubit2,
    population_from_excited,
    population_from_ground,
    propagate_exact,
    propagate_xstate_exact,
    propagate_xstate_published,
    run_validation,
    steady_entanglement,
    trace_distance,
    trace_distance_closed_form,
    trace_distance_pair,
    trace_distance_rate,
    validate_density_matrix,
    von_neumann_entropy,
)
from qmemory.errors import DimensionMismatchError, InvalidGridError, InvariantViolation

from helpers import CANONICAL

RHO = embed_xstate(XSTATE_10)

# Public callables that take a real scalar or a time: one valid call (every
# argument by keyword) and the names of its numeric parameters.
TABLE = {
    "ModelParams": (ModelParams, dict(gamma=0.2, m=0.5, omega=0.8), ("gamma", "m", "omega")),
    "ParamFamily": (ParamFamily, dict(gamma=0.2, m=0.5, omega=0.8), ("gamma", "m", "omega")),
    "validate_density_matrix": (validate_density_matrix, dict(rho=RHO, positivity_tol=1e-10),
                                ("positivity_tol",)),
    "integrate_master": (integrate_master,
                         dict(rho0=RHO, params=CANONICAL, t_grid=[0.0, 1.0], max_step=0.1),
                         ("max_step",)),
    "population_from_excited": (population_from_excited, dict(params=CANONICAL, t=1.0), ("t",)),
    "population_from_ground": (population_from_ground, dict(params=CANONICAL, t=1.0), ("t",)),
    "propagate_exact": (propagate_exact, dict(rho0=RHO, params=CANONICAL, t=1.0), ("t",)),
    "propagate_xstate_exact": (propagate_xstate_exact,
                               dict(x0=XSTATE_10, params=CANONICAL, t=1.0), ("t",)),
    "propagate_xstate_published": (propagate_xstate_published,
                                   dict(x0=XSTATE_10, params=CANONICAL, t=1.0), ("t",)),
    "binary_entropy": (binary_entropy, dict(p=0.3), ("p",)),
    "entanglement_entropy": (entanglement_entropy, dict(params=CANONICAL, t=1.0), ("t",)),
    "steady_entanglement": (steady_entanglement, dict(m=0.5), ("m",)),
    "blp_measure": (blp_measure, dict(params=CANONICAL, dt=0.01, t_max=20.0), ("dt", "t_max")),
    "blp_measure_maximized": (blp_measure_maximized,
                              dict(params=CANONICAL, grid_size=2, dt=0.05, t_max=10.0),
                              ("dt", "t_max")),
    "classify_dynamics": (classify_dynamics, dict(params=CANONICAL, eps=1e-3, t_max=20.0),
                          ("eps", "t_max")),
    "trace_distance_closed_form": (trace_distance_closed_form, dict(params=CANONICAL, t=1.0),
                                   ("t",)),
    "trace_distance_pair": (trace_distance_pair, dict(params=CANONICAL, t=1.0), ("t",)),
    "trace_distance_rate": (trace_distance_rate, dict(params=CANONICAL, t=1.0), ("t",)),
    "run_validation": (run_validation, dict(max_step=None), ("max_step",)),
}

# Public callables that take a matrix or an X state: one valid call (every
# argument by keyword) and the names of those parameters.
MATRICES = {
    "embed_xstate": (embed_xstate, dict(x=XSTATE_10), ("x",)),
    "extract_xstate": (extract_xstate, dict(rho=RHO), ("rho",)),
    "hermitian_eigenvalues": (hermitian_eigenvalues, dict(h=RHO), ("h",)),
    "hermiticity_defect": (hermiticity_defect, dict(mat=RHO), ("mat",)),
    "partial_trace_qubit2": (partial_trace_qubit2, dict(rho=RHO), ("rho",)),
    "trace_distance": (trace_distance, dict(rho=RHO, tau=RHO), ("rho", "tau")),
    "validate_density_matrix": (validate_density_matrix, dict(rho=RHO), ("rho",)),
    "von_neumann_entropy": (von_neumann_entropy, dict(rho=RHO), ("rho",)),
    "integrate_master": (integrate_master, dict(rho0=RHO, params=CANONICAL, t_grid=[0.0, 1.0]),
                         ("rho0",)),
    "lindblad_rhs": (lindblad_rhs, dict(rho=RHO, params=CANONICAL), ("rho",)),
    "propagate_exact": (propagate_exact, dict(rho0=RHO, params=CANONICAL, t=1.0), ("rho0",)),
    "propagate_xstate_exact": (propagate_xstate_exact,
                               dict(x0=XSTATE_10, params=CANONICAL, t=1.0), ("x0",)),
    "propagate_xstate_published": (propagate_xstate_published,
                                   dict(x0=XSTATE_10, params=CANONICAL, t=1.0), ("x0",)),
}

# Records whose float fields the library fills in, and the X state, whose
# fields are a matrix's entries: their constructors are not argument checks.
RECORDS = {"XState", "Trajectory", "BlpResult", "Classification", "IncreaseInterval"}

# The word a message uses for a parameter, where it is not the name itself.
MESSAGE_WORDS = {"t": "time", "p": "probability", "x": "X state", "x0": "X state"}

JUNK = st.one_of(
    st.text(max_size=3),
    st.sampled_from([True, False, np.True_, np.False_, None, math.nan, math.inf, -math.inf,
                     1e308, -1e308, -0.0, 10**400, -10**400]),
    st.complex_numbers(),
    st.sampled_from([math.nan, math.inf, 1e308, -0.0, 0.5, True, "1", 1j]).map(np.array),
)

# Junk for a matrix, or for one field of an X state: strings, None, bool and
# object arrays, ragged lists, 0-d, 1-d and 4-d arrays, wrong sizes and a
# stack; a field also gets non-finite numbers.
MATRIX_JUNK = st.one_of(
    st.text(max_size=3),
    st.sampled_from([
        None, True, 0.25, math.nan, complex(math.inf, 0.0), np.array(0.25), np.array(True),
        np.eye(4, dtype=bool), np.eye(4).astype(object) / 4, np.full((4, 4), None),
        [[1, 0], [0]], [[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25], [0, 0, 0, 0.25]],
        [0.25, [0.25]], np.full(4, 0.25), np.eye(4).reshape(1, 1, 4, 4) / 4, np.zeros((0, 0)),
        np.eye(2) / 2, np.eye(3) / 3, np.zeros((4, 3)),
        np.array([np.eye(4) / 4] * 2), np.eye(4, dtype=np.float32) / 4,
    ]),
)
XSTATE_FIELDS = tuple(f.name for f in dataclasses.fields(XState))


def _names(message: str, param: str) -> bool:
    word = MESSAGE_WORDS.get(param, param)
    return re.search(rf"(?<![\w]){re.escape(word)}(?![\w])", message) is not None


def _public_parameters():
    """``(name, parameters)`` of each public callable other than the records."""
    for name in qmemory.__all__:
        obj = getattr(qmemory, name)
        if not callable(obj) or name in RECORDS:
            continue
        try:
            yield name, inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue


def _returned_or_named(fn, kwargs, param):
    """Call ``fn`` under warnings as errors: it returns, or raises a
    :class:`QmemoryError` that names ``param``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(**kwargs)
        except QmemoryError as exc:
            assert _names(str(exc), param), (param, kwargs[param], str(exc))


def test_table_covers_every_float_parameter():
    for name, parameters in _public_parameters():
        floats = {p for p, v in parameters.items() if "float" in str(v.annotation)}
        if floats:
            assert name in TABLE, f"{name} takes {sorted(floats)} but has no row"
            assert floats <= set(TABLE[name][2]), (name, floats)
    for name, (fn, valid, numeric) in TABLE.items():
        assert set(valid) <= set(inspect.signature(fn).parameters), name
        assert set(numeric) <= set(valid), name


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_row_call(name):
    fn, valid, _ = TABLE[name]
    fn(**valid)


@pytest.mark.parametrize("name", sorted(TABLE))
@settings(max_examples=40, derandomize=True)
@given(data=st.data())
def test_junk_is_returned_or_rejected_by_name(name, data):
    fn, valid, numeric = TABLE[name]
    param = data.draw(st.sampled_from(numeric), label="param")
    value = data.draw(JUNK, label="value")
    _returned_or_named(fn, {**valid, param: value}, param)


def test_matrices_cover_every_matrix_parameter():
    for name, parameters in _public_parameters():
        arrays = {p for p, v in parameters.items()
                  if "np.ndarray" in str(v.annotation) or "XState" in str(v.annotation)}
        covered = {p for table in (MATRICES, TABLE) if name in table for p in table[name][2]}
        assert arrays <= covered, f"{name} takes {sorted(arrays - covered)} but has no row"
    for name, (fn, valid, matrices) in MATRICES.items():
        assert set(valid) <= set(inspect.signature(fn).parameters), name
        assert set(matrices) <= set(valid), name


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_valid_matrix_row_call(name):
    fn, valid, _ = MATRICES[name]
    fn(**valid)


@pytest.mark.parametrize("name", sorted(MATRICES))
@settings(max_examples=40, derandomize=True)
@given(data=st.data())
def test_junk_matrix_is_returned_or_rejected_by_name(name, data):
    fn, valid, matrices = MATRICES[name]
    param = data.draw(st.sampled_from(matrices), label="param")
    value = data.draw(MATRIX_JUNK, label="value")
    if isinstance(valid[param], XState):
        field = data.draw(st.sampled_from(XSTATE_FIELDS), label="field")
        value = dataclasses.replace(valid[param], **{field: value})
    _returned_or_named(fn, {**valid, param: value}, param)


# Inputs that raised a bare TypeError or ValueError, or were taken as numbers:
# each a call, its error class and a pattern of its message.
PROBES = {
    'steady_entanglement("0.5")': (lambda: steady_entanglement("0.5"), InvariantViolation,
                                   "m must be a real number"),
    'blp_measure(t_max="x")': (lambda: blp_measure(CANONICAL, t_max="x"), InvalidGridError,
                               "t_max must be a real number"),
    'blp_measure(dt="x")': (lambda: blp_measure(CANONICAL, dt="x"), InvalidGridError,
                            "dt must be a real number"),
    'classify_dynamics(eps="x")': (lambda: classify_dynamics(CANONICAL, eps="x"),
                                   InvariantViolation, "eps must be a real number"),
    'blp_measure_maximized(dt="x")': (lambda: blp_measure_maximized(CANONICAL, dt="x"),
                                      InvalidGridError, "dt must be a real number"),
    "trace_distance_closed_form(1j)": (lambda: trace_distance_closed_form(CANONICAL, 1j),
                                       InvariantViolation,
                                       "time must be an array of numbers, got dtype complex128"),
    'integrate_master(max_step="x")': (
        lambda: integrate_master(RHO, CANONICAL, [0.0, 1.0], max_step="x"), InvalidGridError,
        "max_step must be a real number"),
    'binary_entropy("x")': (lambda: binary_entropy("x"), InvariantViolation,
                            "probability must be an array of numbers, got dtype <U1"),
    "ModelParams(True, 0, 0)": (lambda: ModelParams(True, 0, 0), InvariantViolation,
                                "gamma must be a real number, got True"),
    "ParamFamily(True, 0, 0)": (lambda: ParamFamily(True, 0, 0), InvariantViolation,
                                "gamma must be an array of numbers, got dtype bool"),
    "ParamFamily(m=bool array)": (lambda: ParamFamily([0.2, 0.3], [False, True], 0),
                                  InvariantViolation,
                                  "m must be an array of numbers, got dtype bool"),
    "steady_entanglement(True)": (lambda: steady_entanglement(True), InvariantViolation,
                                  "m must be a real number, got True"),
    "binary_entropy(True)": (lambda: binary_entropy(True), InvariantViolation,
                             "probability must be an array of numbers, got dtype bool"),
    "classify_dynamics(eps=True)": (lambda: classify_dynamics(CANONICAL, eps=True),
                                    InvariantViolation, "eps must be a real number, got True"),
    "integrate_master(max_step=True)": (
        lambda: integrate_master(RHO, CANONICAL, [0.0, 1.0], max_step=True), InvalidGridError,
        "max_step must be a real number, got True"),
    "ModelParams(np.int64(-1), 0, 0)": (lambda: ModelParams(np.int64(-1), 0, 0),
                                        InvariantViolation,
                                        "gamma must be finite and positive, got "
                                        + re.escape(repr(np.int64(-1)))),
    "propagate_xstate_exact(None)": (lambda: propagate_xstate_exact(XSTATE_10, CANONICAL, None),
                                     InvariantViolation, "time must be a real number, got None"),
    "population_from_excited(None)": (lambda: population_from_excited(CANONICAL, None),
                                      InvariantViolation,
                                      "time must be an array of numbers, got dtype object"),
    "ModelParams(m=10**400)": (lambda: ModelParams(0.2, 10**400, 0), InvariantViolation,
                               r"m = 10{400} is above the limit of 1e\+100"),
}
PROBES.update({
    f"{f.__name__}(\"x\")": (lambda f=f: f("x"), InvariantViolation,
                             f"{word} must be an array of numbers, got dtype <U1")
    for f, word in ((extract_xstate, "rho"), (hermitian_eigenvalues, "h"),
                    (hermiticity_defect, "mat"), (partial_trace_qubit2, "rho"),
                    (validate_density_matrix, "rho"), (von_neumann_entropy, "rho"))})
PROBES.update({
    'propagate_exact("x")': (lambda: propagate_exact("x", CANONICAL, 1.0), InvariantViolation,
                             "rho0 must be an array of numbers, got dtype <U1"),
    'integrate_master("x")': (lambda: integrate_master("x", CANONICAL, [0.0, 1.0]),
                              InvariantViolation, "rho0 must be an array of numbers"),
    'trace_distance("x", "y")': (lambda: trace_distance("x", "y"), InvariantViolation,
                                 "rho must be an array of numbers"),
    'lindblad_rhs("x")': (lambda: lindblad_rhs("x", CANONICAL), InvariantViolation,
                          "rho must be an array of numbers"),
    'XState("x", 0, 0, 0).validate()': (lambda: XState("x", 0, 0, 0).validate(),
                                        InvariantViolation,
                                        "X state must be an array of numbers, got dtype <U"),
    "propagate_exact(ragged)": (lambda: propagate_exact([[1, 0], [0]], CANONICAL, 1.0),
                                InvariantViolation,
                                "rho0 must be an array of numbers, got a ragged sequence"),
    "ParamFamily(m=ragged)": (lambda: ParamFamily(0.2, [[0.1], [0.2, 0.3]], 0.8),
                              InvariantViolation,
                              "m must be an array of numbers, got a ragged sequence"),
    "integrate_master(t_grid=ragged)": (
        lambda: integrate_master(RHO, CANONICAL, [[0.0], [1.0, 2.0]]), InvalidGridError,
        "t_grid must be an array of numbers, got a ragged sequence"),
    "trace_distance_closed_form(ragged)": (
        lambda: trace_distance_closed_form(CANONICAL, [[1.0], [1.0, 2.0]]), InvariantViolation,
        "time must be an array of numbers, got a ragged sequence"),
    "hermiticity_defect(1.0)": (lambda: hermiticity_defect(1.0), DimensionMismatchError,
                                re.escape("mat must be square, got shape ()")),
    "validate_density_matrix(bool 4x4)": (
        lambda: validate_density_matrix(np.eye(4, dtype=bool)), InvariantViolation,
        "rho must be an array of numbers, got dtype bool"),
})
for f in (trace_distance_closed_form, population_from_excited, entanglement_entropy,
          propagate_exact):
    for t in ("1", True):
        args = (RHO, CANONICAL, t) if f is propagate_exact else (CANONICAL, t)
        PROBES[f"{f.__name__}({t!r})"] = (lambda f=f, args=args: f(*args), InvariantViolation,
                                          "time must be an array of numbers")


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_named_rejection(probe):
    call, error, message = PROBES[probe]
    with pytest.raises(error, match=message):
        call()


def test_run_validation_reports_a_bad_max_step():
    # as for any max_step the integrator rejects: each integrator check aborts
    aborted = [r.name for r in run_validation(max_step="x")
               if r.detail == "aborted: max_step must be a real number, got 'x'"]
    assert aborted == ["exact-propagator-vs-integrator", "populations-vs-integrator",
                       "steady-state-convergence", "entanglement-consistency"]


def test_numpy_reals_are_numbers():
    params = ModelParams(np.float32(0.25), np.int64(1), np.float16(0.5))
    assert params == ModelParams(0.25, 1.0, 0.5)
    assert all(type(v) is float for v in (params.gamma, params.m, params.omega))
    for t in (np.float32(1.5), np.int64(2), 3):
        exact = propagate_xstate_exact(XSTATE_10, CANONICAL, t)
        assert exact == propagate_xstate_exact(XSTATE_10, CANONICAL, float(t))
        published = propagate_xstate_published(XSTATE_10, CANONICAL, t)
        assert published == propagate_xstate_published(XSTATE_10, CANONICAL, float(t))
        assert trace_distance_closed_form(CANONICAL, t) == trace_distance_closed_form(
            CANONICAL, float(t))
    assert steady_entanglement(np.float32(0.5)) == steady_entanglement(0.5)
    assert classify_dynamics(CANONICAL, np.float32(0.25)).eps == float(np.float32(0.25))
    assert blp_measure(CANONICAL, t_max=np.int64(20)) == blp_measure(CANONICAL, t_max=20.0)
    assert blp_measure(CANONICAL, dt=np.float32(0.01)) == blp_measure(CANONICAL, dt=0.01)
    dt = np.float32(0.05)  # not a float64 step: the scan grid takes float(dt)
    assert blp_measure_maximized(CANONICAL, grid_size=2, t_max=4.0, dt=dt) == \
        blp_measure_maximized(CANONICAL, grid_size=2, t_max=4.0, dt=float(dt))
