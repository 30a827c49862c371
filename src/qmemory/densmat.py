"""Density-matrix primitives for one qubit and for the two-qubit X-state family.

Basis conventions, fixed once for the whole package:

* two qubits: ``|11>, |10>, |01>, |00>`` (excited-first; index 0 is both atoms
  excited, index 3 both in the ground state);
* one qubit: ``|1>, |0>`` (excited first), so ``rho[0, 0]`` is the excited
  population.

An X state is the 4x4 family with populations ``(a, b, c, d)`` on the diagonal
and only two independent coherences: ``z`` between ``|10>`` and ``|01>`` and
``w`` between ``|11>`` and ``|00>``.  Positivity then reduces to the two 2x2
block conditions ``|z|^2 <= b*c`` and ``|w|^2 <= a*d``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvariantViolation,
    NegativeEigenvalueError,
    NonHermitianError,
    NotXFormError,
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
    published solution need out-of-range instances); call :meth:`validate`
    to assert the density-matrix invariants.
    """

    a: float
    b: float
    c: float
    d: float
    z: complex = 0.0 + 0.0j
    w: complex = 0.0 + 0.0j

    def validate(self) -> "XState":
        """Raise :class:`InvariantViolation` naming the first violated invariant."""
        pops = (self.a, self.b, self.c, self.d)
        for name, v in zip("abcd", pops):
            if not math.isfinite(v):
                raise InvariantViolation(f"population {name} is not finite: {v!r}")
        for name, v in (("z", self.z), ("w", self.w)):
            if not (math.isfinite(complex(v).real) and math.isfinite(complex(v).imag)):
                raise InvariantViolation(f"coherence {name} is not finite: {v!r}")
        for name, v in zip("abcd", pops):
            if v < -1e-12:
                raise InvariantViolation(
                    f"population {name} = {v:.3e} below 0 beyond round-off slack 1e-12"
                )
        total = self.a + self.b + self.c + self.d
        if abs(total - 1.0) > TRACE_TOL:
            raise InvariantViolation(
                f"populations sum to {total!r}, deviating from 1 by "
                f"{abs(total - 1.0):.3e} (tolerance {TRACE_TOL:.0e})"
            )
        if abs(self.z) ** 2 > self.b * self.c + POSITIVITY_TOL:
            raise InvariantViolation(
                f"|z|^2 = {abs(self.z) ** 2:.6e} exceeds b*c = {self.b * self.c:.6e} "
                f"beyond slack {POSITIVITY_TOL:.0e} (inner-block positivity)"
            )
        if abs(self.w) ** 2 > self.a * self.d + POSITIVITY_TOL:
            raise InvariantViolation(
                f"|w|^2 = {abs(self.w) ** 2:.6e} exceeds a*d = {self.a * self.d:.6e} "
                f"beyond slack {POSITIVITY_TOL:.0e} (outer-block positivity)"
            )
        return self


def embed_xstate(x: XState) -> np.ndarray:
    """Embed a validated X state as a 4x4 complex density matrix."""
    x.validate()
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = x.a, x.b, x.c, x.d
    rho[1, 2] = x.z
    rho[2, 1] = np.conj(x.z)
    rho[0, 3] = x.w
    rho[3, 0] = np.conj(x.w)
    return rho


def extract_xstate(rho: np.ndarray, tol: float = XFORM_TOL) -> XState:
    """Read the X components back out of a 4x4 matrix.

    Raises :class:`NotXFormError` if any entry outside the X pattern exceeds
    ``tol`` in magnitude.  The returned record is not validated: extraction is
    also used on derivative matrices, whose populations sum to 0, not 1.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got shape {rho.shape}")
    mask = np.zeros((4, 4), dtype=bool)
    mask[np.arange(4), np.arange(4)] = True
    mask[1, 2] = mask[2, 1] = mask[0, 3] = mask[3, 0] = True
    off = np.abs(rho[~mask])
    if off.size and off.max() > tol:
        idx = np.argwhere(~mask)[int(np.argmax(off))]
        raise NotXFormError(
            f"entry ({idx[0]}, {idx[1]}) = {rho[idx[0], idx[1]]:.3e} lies outside "
            f"the X pattern (magnitude above tol={tol:.0e})"
        )
    return XState(
        a=rho[0, 0].real,
        b=rho[1, 1].real,
        c=rho[2, 2].real,
        d=rho[3, 3].real,
        z=complex(rho[1, 2]),
        w=complex(rho[0, 3]),
    )


def hermiticity_defect(mat: np.ndarray) -> float:
    """Largest entry-wise deviation of ``mat`` from its own adjoint."""
    mat = np.asarray(mat, dtype=complex)
    return float(abs(mat - mat.conj().T).max()) if mat.size else 0.0


def validate_density_matrix(
    rho: np.ndarray,
    dim: int | None = None,
    *,
    positivity_tol: float = POSITIVITY_TOL,
    name: str = "rho",
) -> np.ndarray:
    """Assert the density-matrix invariants; return the array on success.

    Checks, in order: shape (square, optionally of dimension ``dim``), finite
    entries, Hermiticity within 1e-12, unit trace within 1e-10, and smallest
    eigenvalue not below ``-positivity_tol``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise DimensionMismatchError(f"{name} must be {dim}x{dim}, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvariantViolation(f"{name} has a non-finite entry")
    defect = hermiticity_defect(rho)
    if defect > HERMITICITY_TOL:
        raise InvariantViolation(
            f"{name} is not Hermitian: max |rho - rho^dag| = {defect:.3e} "
            f"(tolerance {HERMITICITY_TOL:.0e})"
        )
    tr = complex(np.trace(rho)).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvariantViolation(
            f"{name} trace deviates from 1 by {abs(tr - 1.0):.3e} (tolerance {TRACE_TOL:.0e})"
        )
    lo = float(hermitian_eigenvalues(rho)[-1])
    if lo < -positivity_tol:
        raise InvariantViolation(
            f"{name} has eigenvalue {lo:.3e} below 0 beyond slack {positivity_tol:.0e}"
        )
    return rho


def partial_trace_qubit2(rho: np.ndarray) -> np.ndarray:
    """Trace out the second atom, returning the 2x2 state of the first.

    In the excited-first basis the first atom's excited population collects
    indices 0 and 1 (``a + b`` for an X state) and the coherence collects the
    (0,2) and (1,3) entries.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


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


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, ``-sum(lam * log2(lam))``.

    Eigenvalues in ``[-1e-10, 0)`` are clamped to 0 (round-off from nearly
    pure states); anything more negative raises
    :class:`NegativeEigenvalueError`.
    """
    vals = hermitian_eigenvalues(np.asarray(rho, dtype=complex))
    total = 0.0
    for lam in vals:
        if lam < -POSITIVITY_TOL:
            raise NegativeEigenvalueError(
                f"eigenvalue {lam:.3e} below 0 beyond slack {POSITIVITY_TOL:.0e}"
            )
        if lam <= 0.0:
            continue
        total -= lam * math.log2(lam)
    return total
