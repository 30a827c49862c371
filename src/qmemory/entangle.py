"""Entanglement entropy between the watched atom and everything it couples to.

Because the watched atom's reduced state stays diagonal for the preparations
used here, every quantity reduces to closed-form functions of the two excited
populations: ``p_plus(t)`` (atom prepared excited) and ``p_minus(t)`` (atom
prepared in the ground state).

Two inequivalent published readings of "the entanglement" ship side by side,
selected by :class:`EntanglementVariant`:

* ``PUBLISHED`` (token ``"eq13"``): the printed two-population form
  ``-p_plus log2 p_plus - p_minus log2 p_minus``.  It mixes populations that
  belong to two *different* preparations, so it is not the entropy of any
  single reduced state; it is kept verbatim because it is the published
  formula, and the validation report records the discrepancy.
* ``SUBSYSTEM`` (token ``"entropy"``): the von Neumann entropy of the reduced
  state ``diag(p_plus, 1 - p_plus)`` of the excited-start preparation — the
  standard entropy of entanglement for a globally pure state.

Both are zero at ``t = 0`` (product initial states) and reach steady values
that depend only on the reservoir occupation ``m``, never on ``gamma`` or the
exchange coupling — the decay rate only sets how fast the plateau is reached.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .dynamics import ModelParams, population_from_excited, population_from_ground
from .errors import InvariantViolation, OmegaZeroError
from .nonmarkov import first_revival_time


class EntanglementVariant(Enum):
    """Which published formula to evaluate; values double as CLI tokens."""

    PUBLISHED = "eq13"
    SUBSYSTEM = "entropy"


def _neg_p_log2_p(p: np.ndarray) -> np.ndarray:
    """Elementwise ``-p log2 p`` with the continuity convention 0 log 0 = 0."""
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = -p[mask] * np.log2(p[mask])
    return out


def binary_entropy(p) -> float | np.ndarray:
    """Shannon entropy of a bit with probability ``p``, in bits."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr < -1e-15) or np.any(arr > 1.0 + 1e-15):
        raise InvariantViolation(f"probability outside [0, 1]: {p!r}")
    flat = np.clip(np.atleast_1d(arr), 0.0, 1.0)
    value = _neg_p_log2_p(flat) + _neg_p_log2_p(1.0 - flat)
    return float(value[0]) if arr.ndim == 0 else value.reshape(arr.shape)


def entanglement_entropy(
    params: ModelParams,
    t,
    variant: EntanglementVariant = EntanglementVariant.PUBLISHED,
):
    """Entanglement at time ``t`` (scalar or array), in bits.

    ``PUBLISHED`` evaluates the two-population form; ``SUBSYSTEM`` the binary
    entropy of the excited-start population.  Zero at ``t = 0`` for both.
    """
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise InvariantViolation(f"time must be nonnegative, got {t!r}")
    flat = np.atleast_1d(tt)
    # The populations are probabilities; round-off in their closed forms can
    # push them ~1e-16 outside [0, 1], which would make -p log2 p negative.
    p_plus = np.clip(
        np.atleast_1d(np.asarray(population_from_excited(params, flat))), 0.0, 1.0
    )
    if variant is EntanglementVariant.PUBLISHED:
        p_minus = np.clip(
            np.atleast_1d(np.asarray(population_from_ground(params, flat))), 0.0, 1.0
        )
        value = _neg_p_log2_p(p_plus) + _neg_p_log2_p(p_minus)
    elif variant is EntanglementVariant.SUBSYSTEM:
        value = binary_entropy(p_plus)
    else:  # pragma: no cover - enum is closed
        raise InvariantViolation(f"unknown variant {variant!r}")
    return float(value[0]) if tt.ndim == 0 else value.reshape(tt.shape)


def steady_entanglement(
    m: float,
    variant: EntanglementVariant = EntanglementVariant.PUBLISHED,
) -> float:
    """Long-time entanglement plateau, a function of the occupation ``m`` only.

    Both populations relax to ``q = m / (1 + 2m)`` regardless of preparation,
    so ``PUBLISHED`` gives ``-2 q log2 q`` and ``SUBSYSTEM`` the binary
    entropy of ``q``.  Zero for ``m = 0`` (the bath empties both atoms).
    """
    if not (math.isfinite(m) and m >= 0.0):
        raise InvariantViolation(f"occupation m must be finite and nonnegative, got {m!r}")
    q = m / (1.0 + 2.0 * m)
    if variant is EntanglementVariant.PUBLISHED:
        return 0.0 if q == 0.0 else -2.0 * q * math.log2(q)
    if variant is EntanglementVariant.SUBSYSTEM:
        return float(binary_entropy(q))
    raise InvariantViolation(f"unknown variant {variant!r}")  # pragma: no cover


def revival_instant(params: ModelParams) -> float:
    """First time the two preparations become indistinguishable: pi / (2 omega).

    There the oscillation factor crosses zero, the excited populations of the
    two preparations coincide, and the trace distance touches zero before its
    first revival (:func:`~qmemory.nonmarkov.first_revival_time`).  Undefined
    without exchange coupling.
    """
    t_rev = first_revival_time(params)
    if t_rev is None:
        raise OmegaZeroError(
            "no revival exists at zero exchange coupling (distance decays monotonically)"
        )
    return t_rev


def entanglement_at_revival(
    params: ModelParams,
    variant: EntanglementVariant = EntanglementVariant.PUBLISHED,
) -> float:
    """Entanglement evaluated exactly at :func:`revival_instant`."""
    return float(entanglement_entropy(params, revival_instant(params), variant))
