"""Density-matrix primitives for one qubit and for the two-qubit X-state family.

Basis conventions, fixed once for the whole package:

* two qubits: ``|11>, |10>, |01>, |00>`` (excited-first; index 0 is both atoms
  excited, index 3 both in the ground state);
* one qubit: ``|1>, |0>`` (excited first), so ``rho[0, 0]`` is the excited
  population.

An X state is the 4x4 family with populations ``(a, b, c, d)`` on the diagonal
and only two independent coherences: ``z`` between ``|10>`` and ``|01>`` and
``w`` between ``|11>`` and ``|00>``.  Its matrix splits into two 2x2 blocks,
so positivity amounts to ``|z|^2 <= b*c`` and ``|w|^2 <= a*d`` with nonnegative
populations.  These follow from the one check of :func:`validate_density_matrix`
on the embedded matrix, which is the only rule for a valid two-atom state.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvariantViolation,
    NegativeEigenvalueError,
    NonHermitianError,
    NotXFormError,
    _real,
)

# Validation tolerances.  Hermiticity and trace are tight (pure round-off);
# positivity gets an extra decade of slack because eigenvalues of nearly
# singular states are themselves only computed to ~1e-13.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
XFORM_TOL = 1e-9


@dataclass(frozen=True)
class XState:
    """Two-qubit X state: diagonal populations plus the two X coherences.

    Construction does not validate (derivative records and the verbatim
    published solution need out-of-range instances); :meth:`validate` checks
    the embedded matrix (:func:`embed_xstate`) like any other state.
    """

    a: float
    b: float
    c: float
    d: float
    z: complex = 0.0 + 0.0j
    w: complex = 0.0 + 0.0j

    def validate(self) -> "XState":
        """Raise :class:`InvariantViolation` unless the embedded matrix passes
        :func:`validate_density_matrix`; return ``self``."""
        embed_xstate(self)
        return self


def embed_xstate(x: XState) -> np.ndarray:
    """The 4x4 complex density matrix of ``x``, checked by
    :func:`validate_density_matrix` under the name ``X state``."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = x.a, x.b, x.c, x.d
    rho[1, 2] = x.z
    rho[2, 1] = np.conj(x.z)
    rho[0, 3] = x.w
    rho[3, 0] = np.conj(x.w)
    return validate_density_matrix(rho, dim=4, name="X state")


def extract_xstate(rho: np.ndarray) -> XState:
    """Read the X components back out of a 4x4 matrix.

    Raises :class:`NotXFormError` if any entry outside the X pattern exceeds
    :data:`XFORM_TOL` in magnitude.  The returned record is not validated:
    extraction is also used on derivative matrices, whose populations sum to
    0, not 1.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got shape {rho.shape}")
    mask = np.zeros((4, 4), dtype=bool)
    mask[np.arange(4), np.arange(4)] = True
    mask[1, 2] = mask[2, 1] = mask[0, 3] = mask[3, 0] = True
    off = np.abs(rho[~mask])
    if off.size and off.max() > XFORM_TOL:
        idx = np.argwhere(~mask)[int(np.argmax(off))]
        raise NotXFormError(
            f"entry ({idx[0]}, {idx[1]}) = {rho[idx[0], idx[1]]:.3e} lies outside "
            f"the X pattern (magnitude above {XFORM_TOL:.0e})"
        )
    a, b, c, d = rho.diagonal().real.tolist()
    return XState(a=a, b=b, c=c, d=d, z=complex(rho[1, 2]), w=complex(rho[0, 3]))


def hermiticity_defect(mat: np.ndarray) -> float | np.ndarray:
    """Largest entry-wise deviation of ``mat`` from its own adjoint; for a
    stack ``(n, d, d)``, an array with one value per matrix."""
    mat = np.asarray(mat, dtype=complex)
    defect = np.abs(mat - np.swapaxes(mat.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)
    return float(defect) if mat.ndim == 2 else defect


def validate_density_matrix(
    rho: np.ndarray,
    dim: int | None = None,
    *,
    positivity_tol: float = POSITIVITY_TOL,
    name: str | Sequence[str] = "rho",
) -> np.ndarray:
    """Assert the density-matrix invariants; return the array on success.

    Checks, in order: shape (square, optionally of dimension ``dim``), finite
    entries, Hermiticity within 1e-12, unit trace within 1e-10, and smallest
    eigenvalue not below ``-positivity_tol``.

    ``rho`` may also be a stack ``(n, d, d)``, checked in one vectorized pass
    with one stacked eigensolve; ``name`` is then one name for every matrix or
    a sequence of ``n`` names.  The first failing matrix raises exactly what
    checking it alone would raise.
    """
    rho = np.asarray(rho, dtype=complex)
    positivity_tol = _real("positivity_tol", positivity_tol)

    def label(k: int) -> str:
        return name if isinstance(name, str) else name[k]

    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        shape = rho.shape[1:] if rho.ndim == 3 else rho.shape
        raise DimensionMismatchError(f"{label(0)} must be square, got shape {shape}")
    if dim is not None and rho.shape[-1] != dim:
        raise DimensionMismatchError(
            f"{label(0)} must be {dim}x{dim}, got shape {rho.shape[-2:]}")
    mats = rho if rho.ndim == 3 else rho[np.newaxis]
    finite = np.isfinite(mats).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf in a matrix already failing
        defect = hermiticity_defect(mats)
        deviation = np.abs(np.trace(mats, axis1=1, axis2=2).real - 1.0)
    # the eigensolve needs finite entries: run it on the matrices before the
    # first that fails an earlier check, which settle the first failure
    early = ~finite | (defect > HERMITICITY_TOL) | (deviation > TRACE_TOL)
    cut = int(np.argmax(early)) if early.any() else len(mats)
    lowest = np.linalg.eigvalsh(mats[:cut])[:, 0] if cut else np.empty(0)
    negative = np.flatnonzero(lowest < -positivity_tol)
    k = int(negative[0]) if negative.size else cut
    if k == len(mats):
        return rho
    if k < cut:
        raise InvariantViolation(
            f"{label(k)} has eigenvalue {lowest[k]:.3e} below 0 beyond slack {positivity_tol:.0e}"
        )
    if not finite[k]:
        raise InvariantViolation(f"{label(k)} has a non-finite entry")
    if defect[k] > HERMITICITY_TOL:
        raise InvariantViolation(
            f"{label(k)} is not Hermitian: max |rho - rho^dag| = {defect[k]:.3e} "
            f"(tolerance {HERMITICITY_TOL:.0e})"
        )
    raise InvariantViolation(
        f"{label(k)} trace deviates from 1 by {deviation[k]:.3e} (tolerance {TRACE_TOL:.0e})"
    )


def partial_trace_qubit2(rho: np.ndarray) -> np.ndarray:
    """Trace out the second atom, returning the 2x2 state of the first (a
    stack ``(n, 2, 2)`` for a stack ``(n, 4, 4)``).

    In the excited-first basis the first atom's excited population collects
    indices 0 and 1 (``a + b`` for an X state) and the coherence collects the
    (0,2) and (1,3) entries.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).trace(axis1=-3, axis2=-1)


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    Computed by LAPACK (``np.linalg.eigvalsh``, which reads the lower
    triangle) for every size.  Raises :class:`InvariantViolation` for a
    non-finite entry and :class:`NonHermitianError` when the symmetry defect
    exceeds 1e-12 (times ``max |h|`` where that is above 1).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise InvariantViolation("matrix has a non-finite entry")
    defect = hermiticity_defect(h)
    # the tolerance is relative to max |h| only above 1, so that is read only then
    if defect > HERMITICITY_TOL and defect > HERMITICITY_TOL * float(abs(h).max()):
        raise NonHermitianError(
            f"matrix is not Hermitian: max |h - h^dag| = {defect:.3e}"
        )
    return np.linalg.eigvalsh(h)[::-1]


def trace_distance(rho: np.ndarray, tau: np.ndarray) -> float:
    """Trace distance ``0.5 * ||rho - tau||_1`` between two density matrices."""
    rho = np.asarray(rho, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    if rho.shape != tau.shape:
        raise DimensionMismatchError(
            f"operands differ in shape: {rho.shape} vs {tau.shape}"
        )
    validate_density_matrix(rho, name="rho")
    validate_density_matrix(tau, name="tau")
    vals = hermitian_eigenvalues(rho - tau)
    return float(0.5 * np.sum(np.abs(vals)))


def _neg_p_log2_p(p):
    """Elementwise ``-p log2 p`` (any shape) with the continuity convention
    0 log 0 = +0; ``log2`` never sees a zero."""
    positive = p > 0.0
    return np.where(positive, -p * np.log2(np.where(positive, p, 1.0)), 0.0)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, ``-sum(lam * log2(lam))``.

    Eigenvalues in ``[-1e-10, 0)`` are clamped to 0 (round-off from nearly
    pure states); anything more negative raises
    :class:`NegativeEigenvalueError`.
    """
    vals = hermitian_eigenvalues(np.asarray(rho, dtype=complex))
    negative = vals[vals < -POSITIVITY_TOL]
    if negative.size:
        raise NegativeEigenvalueError(
            f"eigenvalue {negative[0]:.3e} below 0 beyond slack {POSITIVITY_TOL:.0e}"
        )
    return float(np.sum(_neg_p_log2_p(vals)))
