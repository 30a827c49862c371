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
              measure, classification, and its maximization over preparations.
``entangle``  entanglement entropy in both published readings, steady values.
``validate``  cross-check suite pitting closed forms against numerics.
``cli``       the ``qmemory`` command-line tool.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .densmat import (
    XState,
    embed_xstate,
    extract_xstate,
    hermitian_eigenvalues,
    hermiticity_defect,
    partial_trace_qubit2,
    trace_distance,
    validate_density_matrix,
    von_neumann_entropy,
)
from .dynamics import (
    GRID_GAMMAS,
    GRID_OCCUPATIONS,
    GRID_OMEGAS,
    ModelParams,
    Trajectory,
    XSTATE_00,
    XSTATE_10,
    integrate_master,
    lindblad_rhs,
    parameter_grid,
    population_from_excited,
    population_from_ground,
    propagate_exact,
    propagate_xstate_exact,
    propagate_xstate_published,
    superoperator,
    thermal_xstate,
)
from .entangle import (
    EntanglementVariant,
    binary_entropy,
    entanglement_at_revival,
    entanglement_entropy,
    revival_instant,
    steady_entanglement,
)
from .errors import (
    DimensionMismatchError,
    InvalidGridError,
    InvariantViolation,
    NegativeEigenvalueError,
    NonHermitianError,
    NotXFormError,
    OmegaZeroError,
    QmemoryError,
)
from .nonmarkov import (
    BlpResult,
    Classification,
    IncreaseInterval,
    MARKOVIAN,
    NON_MARKOVIAN,
    blp_measure,
    blp_measure_maximized,
    bloch_polar_state,
    classify_dynamics,
    default_scan_step,
    default_truncation_time,
    first_revival_time,
    trace_distance_closed_form,
    trace_distance_pair,
    trace_distance_rate,
)
from .validate import (
    CANONICAL_PARAMS,
    CheckResult,
    GENERIC_XSTATE,
    run_validation,
)

__all__ = [
    "__version__",
    # densmat
    "XState", "embed_xstate", "extract_xstate", "hermitian_eigenvalues",
    "hermiticity_defect", "partial_trace_qubit2", "trace_distance",
    "validate_density_matrix", "von_neumann_entropy",
    # dynamics
    "GRID_GAMMAS", "GRID_OCCUPATIONS", "GRID_OMEGAS", "ModelParams",
    "Trajectory", "XSTATE_00", "XSTATE_10", "integrate_master",
    "lindblad_rhs", "parameter_grid", "population_from_excited",
    "population_from_ground", "propagate_exact", "propagate_xstate_exact",
    "propagate_xstate_published", "superoperator", "thermal_xstate",
    # entangle
    "EntanglementVariant", "binary_entropy", "entanglement_at_revival",
    "entanglement_entropy", "revival_instant", "steady_entanglement",
    # errors
    "DimensionMismatchError", "InvalidGridError", "InvariantViolation",
    "NegativeEigenvalueError", "NonHermitianError", "NotXFormError",
    "OmegaZeroError", "QmemoryError",
    # nonmarkov
    "BlpResult", "Classification", "IncreaseInterval", "MARKOVIAN",
    "NON_MARKOVIAN", "blp_measure", "blp_measure_maximized",
    "bloch_polar_state", "classify_dynamics", "default_scan_step",
    "default_truncation_time", "first_revival_time",
    "trace_distance_closed_form", "trace_distance_pair",
    "trace_distance_rate",
    # validate
    "CANONICAL_PARAMS", "CheckResult", "GENERIC_XSTATE", "run_validation",
]
