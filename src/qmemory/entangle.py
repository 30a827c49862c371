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

from enum import Enum

import numpy as np

from .densmat import _neg_p_log2_p
from .dynamics import (
    MAX_PARAMETER, ModelParams, ParamFamily, population_from_excited, population_from_ground)
from .errors import InvariantViolation, _real, _real_array


class EntanglementVariant(Enum):
    """Which published formula to evaluate; values double as CLI tokens.

    ``EntanglementVariant(value)`` is the rule of every ``variant`` argument:
    it returns a member, given one or its token, and raises
    :class:`InvariantViolation` naming ``variant`` for anything else.
    """

    PUBLISHED = "eq13"
    SUBSYSTEM = "entropy"

    @classmethod
    def _missing_(cls, value):
        tokens = ", ".join(repr(v.value) for v in cls)
        raise InvariantViolation(f"variant must be one of {tokens}, got {value!r}")


def binary_entropy(p) -> float | np.ndarray:
    """Shannon entropy of a bit with probability ``p``, in bits."""
    arr = _real_array("probability", p)
    if not np.all((arr >= -1e-15) & (arr <= 1.0 + 1e-15)):  # NaN too
        raise InvariantViolation(f"probability outside [0, 1]: {p!r}")
    arr = np.clip(arr, 0.0, 1.0)
    value = _neg_p_log2_p(arr) + _neg_p_log2_p(1.0 - arr)
    return float(value) if value.ndim == 0 else value


def _reading(p_plus, p_minus, variant: EntanglementVariant | str):
    """The entanglement of ``variant`` (a member or its token) from the two
    excited populations."""
    if EntanglementVariant(variant) is EntanglementVariant.PUBLISHED:
        return _neg_p_log2_p(p_plus) + _neg_p_log2_p(p_minus)
    return binary_entropy(p_plus)


def entanglement_entropy(
    params: ModelParams | ParamFamily,
    t,
    variant: EntanglementVariant | str = EntanglementVariant.PUBLISHED,
):
    """Entanglement at time ``t`` (scalar or array), in bits.

    ``PUBLISHED`` evaluates the two-population form; ``SUBSYSTEM`` the binary
    entropy of the excited-start population.  Zero at ``t = 0`` for both.
    Accepts the times of :func:`~qmemory.dynamics.checked_times`, and a
    :class:`~qmemory.dynamics.ParamFamily`, whose every member's values equal
    that member's own call bit for bit.
    """
    # The populations are probabilities; round-off in their closed forms can
    # push them ~1e-16 outside [0, 1], which would make -p log2 p negative.
    p_plus = np.clip(population_from_excited(params, t), 0.0, 1.0)
    p_minus = np.clip(population_from_ground(params, t), 0.0, 1.0)
    value = _reading(p_plus, p_minus, variant)
    return float(value) if np.ndim(value) == 0 else value


def steady_entanglement(
    m: float,
    variant: EntanglementVariant | str = EntanglementVariant.PUBLISHED,
) -> float:
    """Long-time entanglement plateau, a function of the occupation ``m`` only.

    Both populations relax to ``q = m / (1 + 2m)`` regardless of preparation,
    so ``PUBLISHED`` gives ``-2 q log2 q`` and ``SUBSYSTEM`` the binary
    entropy of ``q``.  Zero for ``m = 0`` (the bath empties both atoms);
    ``m`` above :data:`~qmemory.dynamics.MAX_PARAMETER` is rejected, as
    :class:`~qmemory.dynamics.ModelParams` rejects it.
    """
    m = _real("m", m, MAX_PARAMETER)  # 1 + 2m would overflow from about 9e307 on
    q = m / (1.0 + 2.0 * m)
    return float(_reading(q, q, variant))

