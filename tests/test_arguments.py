"""One argument rule at the library boundary.

Every numeric argument of the public API passes one of three rules: a real
scalar (Python or numpy int or float, never a bool), an array of integer or
float dtype, or a square matrix (or stack of them) of integer, float or
complex dtype.  A ``params`` argument must be a ``ModelParams``, or a
``ParamFamily`` where the function takes one, and a family's times must
broadcast against its members.  A ``variant`` is an ``EntanglementVariant``
or its token.  Anything else, and any value out of range, is rejected with a
:class:`QmemoryError` whose message names the argument.  The result records
follow the same rules.
"""
import dataclasses
import inspect
import math
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qmemory
from qmemory import (
    MARKOVIAN,
    EntanglementVariant,
    XSTATE_10,
    BlpResult,
    Classification,
    IncreaseInterval,
    XState,
    ModelParams,
    ParamFamily,
    QmemoryError,
    Trajectory,
    binary_entropy,
    blp_measure,
    blp_measure_maximized,
    classify_dynamics,
    default_scan_step,
    default_truncation_time,
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
    superoperator,
    thermal_xstate,
    trace_distance,
    trace_distance_closed_form,
    trace_distance_pair,
    trace_distance_rate,
    validate_density_matrix,
    von_neumann_entropy,
)
from qmemory.errors import (
    DimensionMismatchError,
    InvalidGridError,
    InvariantViolation,
    NonHermitianError,
    NotXFormError,
)
from qmemory.nonmarkov import canonical_measures

from helpers import CANONICAL

RHO = embed_xstate(XSTATE_10)
TRAJECTORY = dict(times=[0.0, 1.0], samples=np.stack([RHO, RHO]))

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
    # the records: constructors that check are rejected by name, the others return
    "XState": (XState, dict(a=0.0, b=1.0, c=0.0, d=0.0), ("a", "b", "c", "d")),
    "Trajectory": (Trajectory, dict(TRAJECTORY, max_trace_drift=0.0, max_hermiticity_defect=0.0),
                   ("max_trace_drift", "max_hermiticity_defect")),
    "IncreaseInterval": (IncreaseInterval, dict(t_start=1.0, t_end=2.0, gain=0.25),
                         ("t_start", "t_end", "gain")),
    "BlpResult": (BlpResult, dict(n_value=0.25, starts=(1.0,), ends=(2.0,), gains=(0.25,),
                                  pair_label="x", truncation_time=10.0, tail_bound=0.0),
                  ("n_value", "truncation_time", "tail_bound")),
    "Classification": (Classification,
                       dict(regime=MARKOVIAN, n_value=0.0, eps=1e-3, interval_count=0,
                            params=CANONICAL, truncation_time=20.0),
                       ("n_value", "eps", "truncation_time")),
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
    "Trajectory": (Trajectory, TRAJECTORY, ("times", "samples")),
}

# Public callables that take a parameter set: one valid call (every argument
# by keyword).  The rows above that pass ``params``, and these.
PARAMS = {name: table[name][:2] for table in (TABLE, MATRICES) for name in table
          if "params" in table[name][1]}
PARAMS.update({
    "superoperator": (superoperator, dict(params=CANONICAL)),
    "thermal_xstate": (thermal_xstate, dict(params=CANONICAL)),
    "default_scan_step": (default_scan_step, dict(params=CANONICAL)),
    "default_truncation_time": (default_truncation_time, dict(params=CANONICAL)),
})

# Junk for a parameter set, down to objects with the right attributes; a
# ParamFamily is junk too where the annotation names ModelParams alone.
PARAMS_JUNK = [None, "x", 0.2, True, (0.2, 0.5, 0.8), [0.2, 0.5, 0.8], np.array([0.2, 0.5, 0.8]),
               {"gamma": 0.2, "m": 0.5, "omega": 0.8}, ModelParams,
               types.SimpleNamespace(gamma=0.2, m=0.5, omega=0.8, relaxation_rate=0.4,
                                     thermal_occupation=0.25)]
FAMILY = ParamFamily([0.2, 0.3], 0.5, 0.8)

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
        np.full((4, 4), math.nan), np.full((4, 4), math.inf), np.full((2, 2), -math.inf),
        np.diag([math.inf, 0.0, 0.0, 0.0]), np.array([[0.5, math.nan], [math.nan, 0.5]]),
    ]),
)
XSTATE_FIELDS = tuple(f.name for f in dataclasses.fields(XState))


def _names(message: str, param: str) -> bool:
    word = MESSAGE_WORDS.get(param, param)
    return re.search(rf"(?<![\w]){re.escape(word)}(?![\w])", message) is not None


def _public_parameters():
    """``(name, parameters)`` of each public callable, the records included."""
    for name in qmemory.__all__:
        obj = getattr(qmemory, name)
        if not callable(obj):
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


def _takes_params(annotation) -> bool:
    return "ModelParams" in str(annotation) or "ParamFamily" in str(annotation)


def test_params_cover_every_params_parameter():
    for name, parameters in _public_parameters():
        taking = {p for p, v in parameters.items() if _takes_params(v.annotation)}
        if taking:
            assert name in PARAMS, f"{name} takes a parameter set but has no row"
            assert taking == {"params"}, (name, taking)
    for name, (fn, valid) in PARAMS.items():
        assert set(valid) <= set(inspect.signature(fn).parameters), name
        assert "params" in valid, name


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_junk_params_rejected_by_name(name):
    fn, valid = PARAMS[name]
    annotation = str(inspect.signature(fn).parameters["params"].annotation)
    junk = PARAMS_JUNK + ([] if "ParamFamily" in annotation else [FAMILY])
    for value in junk:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="^params must be a ModelParams"):
                fn(**{**valid, "params": value})


# Public callables that take a family and times: one valid call (every
# argument by keyword).  Times that do not broadcast against the members are
# rejected by name.
FAMILY_TIMES = {
    "population_from_excited": (population_from_excited, dict(params=FAMILY, t=1.0)),
    "population_from_ground": (population_from_ground, dict(params=FAMILY, t=1.0)),
    "propagate_exact": (propagate_exact, dict(rho0=RHO, params=FAMILY, t=1.0)),
    "entanglement_entropy": (entanglement_entropy, dict(params=FAMILY, t=1.0)),
    "trace_distance_closed_form": (trace_distance_closed_form, dict(params=FAMILY, t=1.0)),
    "trace_distance_pair": (trace_distance_pair, dict(params=FAMILY, t=1.0)),
    "trace_distance_rate": (trace_distance_rate, dict(params=FAMILY, t=1.0)),
}


def test_family_times_cover_every_family_with_times():
    for name, parameters in _public_parameters():
        if "ParamFamily" in str(parameters.get("params", "")) and "t" in parameters:
            assert name in FAMILY_TIMES, f"{name} takes a family and times but has no row"
    for name, (fn, valid) in FAMILY_TIMES.items():
        assert set(valid) <= set(inspect.signature(fn).parameters), name


@pytest.mark.parametrize("name", sorted(FAMILY_TIMES))
def test_family_times_that_do_not_broadcast_rejected_by_name(name):
    fn, valid = FAMILY_TIMES[name]
    assert np.shape(fn(**valid))[:1] == FAMILY.shape
    for t in (np.zeros(3), np.zeros((2, 3)), [[0.0, 1.0, 2.0]] * 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError, match=re.escape(
                    f"time and members of shapes [{np.shape(t)}, (2,)] do not broadcast")):
                fn(**{**valid, "t": t})


# Public callables that take an entanglement variant: one valid call (every
# argument by keyword).  A variant is a member or its token.
VARIANTS = {
    "entanglement_entropy": (entanglement_entropy, dict(params=CANONICAL, t=1.0)),
    "steady_entanglement": (steady_entanglement, dict(m=0.5)),
}
VARIANT_JUNK = [None, "x", "EQ13", "PUBLISHED", " eq13", "", 0, 1.0, True, ["eq13"],
                np.str_("eq14"), EntanglementVariant]


def test_variants_cover_every_variant_parameter():
    for name, parameters in _public_parameters():
        if "variant" in parameters:
            assert name in VARIANTS, f"{name} takes a variant but has no row"
    for name, (fn, valid) in VARIANTS.items():
        assert set(valid) <= set(inspect.signature(fn).parameters), name


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_tokens_are_the_members(name):
    fn, valid = VARIANTS[name]
    for variant in EntanglementVariant:
        expected = fn(**valid, variant=variant)
        assert fn(**valid, variant=variant.value) == expected
        assert fn(**valid, variant=np.str_(variant.value)) == expected


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_junk_variant_rejected_by_name(name):
    fn, valid = VARIANTS[name]
    for value in VARIANT_JUNK:
        with pytest.raises(InvariantViolation, match=re.escape(
                f"variant must be one of 'eq13', 'entropy', got {value!r}")):
            fn(**valid, variant=value)


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
                                        "X state field a must be a real number, got 'x'"),
    "XState(True, 0, 0, 0).validate()": (lambda: XState(True, 0, 0, 0).validate(),
                                         InvariantViolation,
                                         "X state field a must be a real number, got True"),
    "XState(1+0j, 0, 0, 0).validate()": (lambda: XState(1 + 0j, 0, 0, 0).validate(),
                                         InvariantViolation,
                                         re.escape("X state field a must be a real number, "
                                                   "got (1+0j)")),
    "embed_xstate(XState(z=True))": (
        lambda: embed_xstate(XState(0.0, 1.0, 0.0, 0.0, z=True)), InvariantViolation,
        "X state field z must be a complex number, got True"),
    "classify_dynamics(None)": (lambda: classify_dynamics(None), InvariantViolation,
                                "params must be a ModelParams, got NoneType"),
    "trace_distance_closed_form(None, 1.0)": (
        lambda: trace_distance_closed_form(None, 1.0), InvariantViolation,
        "params must be a ModelParams or a ParamFamily, got NoneType"),
    'IncreaseInterval("x", 1.0, 0.0)': (lambda: IncreaseInterval("x", 1.0, 0.0),
                                        InvariantViolation, "t_start must be a real number"),
    'BlpResult("x", (), (), (), "l", 1.0, 0.0)': (
        lambda: BlpResult("x", (), (), (), "l", 1.0, 0.0), InvariantViolation,
        "n_value must be a real number"),
    "hermitian_eigenvalues(NaN)": (lambda: hermitian_eigenvalues(np.full((2, 2), math.nan)),
                                   InvariantViolation, "h has a non-finite entry"),
    "von_neumann_entropy(NaN)": (lambda: von_neumann_entropy(np.full((2, 2), math.nan)),
                                 InvariantViolation, "rho has a non-finite entry"),
    "von_neumann_entropy(not Hermitian)": (
        lambda: von_neumann_entropy(np.array([[0.5, 0.1], [0.0, 0.5]])), NonHermitianError,
        re.escape("rho is not Hermitian: max |rho - rho^dag| = 1.000e-01")),
    "extract_xstate(not X)": (lambda: extract_xstate(np.full((4, 4), 0.25)), NotXFormError,
                              re.escape("rho entry (0, 1) = 2.500e-01+0.000e+00j lies outside")),
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
    "canonical_measures(ModelParams)": (
        lambda: canonical_measures(CANONICAL), InvariantViolation,
        "params must be a ParamFamily, got ModelParams"),
    "canonical_measures(None)": (lambda: canonical_measures(None), InvariantViolation,
                                 "params must be a ParamFamily, got NoneType"),
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
