"""Exception types raised across the package, and the three rules that every
numeric argument of the public API passes: :func:`_real` for a scalar,
:func:`_real_array` for an array (or a scalar that may be one) and
:func:`_matrix` for a matrix or a stack of matrices."""
import math

import numpy as np


class QmemoryError(Exception):
    """Base class for every error this package raises deliberately."""


class InvariantViolation(QmemoryError, ValueError):
    """A state record or parameter set violates one of its defining invariants.

    The message always names the violated invariant and the offending value.
    """


class NotXFormError(QmemoryError, ValueError):
    """Matrix has support outside the diagonal/anti-diagonal X pattern."""


class NonHermitianError(QmemoryError, ValueError):
    """Matrix fails the Hermitian symmetry check."""


class DimensionMismatchError(QmemoryError, ValueError):
    """Operands have incompatible dimensions."""


class NegativeEigenvalueError(QmemoryError, ValueError):
    """An eigenvalue is negative beyond the tolerated round-off slack."""


class InvalidGridError(QmemoryError, ValueError):
    """A time grid is empty, unordered, or does not start at zero."""


_FLOAT_MAX = float(np.finfo(float).max)


def _real(name, value, high=_FLOAT_MAX, *, strict=False, error=InvariantViolation):
    """``value`` as a Python float, once it is a real number above zero
    (``strict``) or at least zero, finite, and at most ``high``.

    Accepts ``int``, ``float`` and numpy integer and floating scalars; raises
    ``error`` naming ``name`` for anything else (``bool``, ``str``, ``None``,
    complex numbers, arrays) and for a value outside the range.  A Python int
    beyond the float range is above the limit.
    """
    if type(value) is float:  # first: ModelParams and classify_dynamics check on hot paths
        v = value
    elif isinstance(value, (int, np.integer, np.floating)) and not isinstance(value, bool):
        # a Python int beyond the float range stays an int: it compares exactly
        v = value if isinstance(value, int) and abs(value) > _FLOAT_MAX else float(value)
    else:
        raise error(f"{name} must be a real number, got {value!r}")
    if (0.0 < v <= high) if strict else (0.0 <= v <= high):  # NaN and inf fail too
        return v
    if not (0.0 < v if strict else 0.0 <= v) or v == math.inf:
        raise error(f"{name} must be finite and {'positive' if strict else 'nonnegative'}, "
                    f"got {value!r}")
    raise error(f"{name} = {value!r} is above the limit of {high:g}")


def _numbers(name, value, kinds, error) -> np.ndarray:
    """``value`` as an array, once it is not ragged and its dtype kind is one
    of ``kinds``; raises ``error`` naming ``name`` otherwise."""
    try:
        v = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape": a ragged sequence
        raise error(f"{name} must be an array of numbers, got a ragged sequence") from None
    if v.dtype.kind not in kinds:
        raise error(f"{name} must be an array of numbers, got dtype {v.dtype}")
    return v


def _real_array(name, value, *, error=InvariantViolation) -> np.ndarray:
    """``value`` as a float array, once its dtype is integer or float: ragged
    sequences and bool, string, object and complex arrays (and such scalars)
    raise ``error`` naming ``name``."""
    return _numbers(name, value, "iuf", error).astype(float, copy=False)


def _matrix(name, value, dim=None, *, stack=False) -> np.ndarray:
    """``value`` as a complex array, once it is one square matrix of integer,
    float or complex dtype, of size ``dim`` if that is given.

    With ``stack``, a stack of such matrices with up to that many leading
    axes passes too (``True``: one, a stack ``(n, d, d)``; ``math.inf``: any
    number).  A ragged sequence or another dtype (bool, string, object)
    raises :class:`InvariantViolation` naming ``name``, any other shape
    :class:`DimensionMismatchError`.
    """
    v = _numbers(name, value, "iufc", InvariantViolation)
    matrices = 2 <= v.ndim <= 2 + stack
    if not matrices or v.shape[-1] != v.shape[-2]:
        raise DimensionMismatchError(
            f"{name} must be square, got shape {v.shape[-2:] if matrices else v.shape}")
    if dim is not None and v.shape[-1] != dim:
        raise DimensionMismatchError(f"{name} must be {dim}x{dim}, got shape {v.shape[-2:]}")
    return np.asarray(v, dtype=complex)
