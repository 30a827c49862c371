"""Dissipative dynamics of two exchange-coupled atoms in local thermal baths.

The package follows one physical story end to end: two two-level atoms relax
in independent finite-temperature reservoirs while exchanging excitation
through a coherent coupling; watching a single atom, the exchange partner acts
as a memory, producing revivals of distinguishability (quantified by the
trace-distance backflow measure) and entanglement between the watched atom and
the rest.

Modules
-------
``densmat``   density-matrix core: validation, partial trace, trace distance,
              von Neumann entropy, Hermitian eigenvalues.
``dynamics``  the master equation: generator, Runge-Kutta integrator, exact
              propagator by coherence sector, population closed forms,
              thermal fixed point.
``nonmarkov`` distance curves, increase intervals, the accumulated backflow
              measure and classification.
``pairs``     the measure maximized over product-state pairs, behind
              ``nonmarkov.blp_measure_maximized``.
``entangle``  entanglement entropy in both published readings, steady values.
``errors``    exception types and the argument rules of the public API.
``validate``  cross-check suite pitting closed forms against numerics.
``cli``       the ``qmemory`` command-line tool.

``import qmemory`` loads none of them, nor numpy: each name of ``__all__``,
and each module that defines one, is imported when it is first read as an
attribute of the package (PEP 562), so a command that needs only
``nonmarkov`` never loads ``validate`` or ``pairs``.
"""
__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "densmat": (
        "XState", "embed_xstate", "extract_xstate", "hermitian_eigenvalues",
        "hermiticity_defect", "partial_trace_qubit2", "trace_distance",
        "validate_density_matrix", "von_neumann_entropy"),
    "dynamics": (
        "GRID_GAMMAS", "GRID_OCCUPATIONS", "GRID_OMEGAS", "ModelParams",
        "ParamFamily", "Trajectory", "XSTATE_00", "XSTATE_10", "integrate_master",
        "lindblad_rhs", "parameter_grid", "population_from_excited",
        "population_from_ground", "propagate_exact", "propagate_xstate_exact",
        "propagate_xstate_published", "superoperator", "thermal_xstate"),
    "entangle": (
        "EntanglementVariant", "binary_entropy", "entanglement_entropy",
        "steady_entanglement"),
    "errors": (
        "DimensionMismatchError", "InvalidGridError", "InvariantViolation",
        "NegativeEigenvalueError", "NonHermitianError", "NotXFormError", "QmemoryError"),
    "nonmarkov": (
        "BlpResult", "Classification", "IncreaseInterval", "MARKOVIAN",
        "NON_MARKOVIAN", "blp_measure", "blp_measure_maximized",
        "classify_dynamics", "default_scan_step", "default_truncation_time",
        "trace_distance_closed_form", "trace_distance_pair", "trace_distance_rate"),
    "validate": ("CANONICAL_PARAMS", "CheckResult", "GENERIC_XSTATE", "run_validation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """Import a public name, or a module that defines some, on first read;
    the import keeps a module here, and this keeps a name."""
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
