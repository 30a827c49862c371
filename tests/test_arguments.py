"""One argument rule at the library boundary.

Every numeric argument of the public API passes one of two rules: a real
scalar (Python or numpy int or float, never a bool) or an array of integer
or float dtype.  Anything else, and any value out of range, is rejected with
a :class:`QmemoryError` whose message names the argument.
"""
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
    ModelParams,
    ParamFamily,
    QmemoryError,
    binary_entropy,
    blp_measure,
    blp_measure_maximized,
    classify_dynamics,
    embed_xstate,
    entanglement_entropy,
    integrate_master,
    population_from_excited,
    population_from_ground,
    propagate_exact,
    propagate_xstate_exact,
    propagate_xstate_published,
    run_validation,
    steady_entanglement,
    trace_distance_closed_form,
    trace_distance_pair,
    trace_distance_rate,
    validate_density_matrix,
)
from qmemory.errors import InvalidGridError, InvariantViolation

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

# Records whose float fields the library fills in, and the X state, whose
# fields are a matrix's entries: their constructors are not argument checks.
RECORDS = {"XState", "Trajectory", "BlpResult", "Classification", "IncreaseInterval"}

# The word a message uses for a parameter, where it is not the name itself.
MESSAGE_WORDS = {"t": "time", "p": "probability"}

JUNK = st.one_of(
    st.text(max_size=3),
    st.sampled_from([True, False, np.True_, np.False_, None, math.nan, math.inf, -math.inf,
                     1e308, -1e308, -0.0, 10**400, -10**400]),
    st.complex_numbers(),
    st.sampled_from([math.nan, math.inf, 1e308, -0.0, 0.5, True, "1", 1j]).map(np.array),
)


def _names(message: str, param: str) -> bool:
    word = MESSAGE_WORDS.get(param, param)
    return re.search(rf"(?<![\w]){re.escape(word)}(?![\w])", message) is not None


def test_table_covers_every_float_parameter():
    for name in qmemory.__all__:
        obj = getattr(qmemory, name)
        if not callable(obj) or name in RECORDS:
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(**{**valid, param: value})
        except QmemoryError as exc:
            assert _names(str(exc), param), (param, value, str(exc))


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
