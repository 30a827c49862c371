"""Exception types raised across the package, and the two rules that every
numeric argument of the public API passes: :func:`_real` for a scalar and
:func:`_real_array` for an array (or a scalar that may be one)."""
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


def _real_array(name, value, *, error=InvariantViolation) -> np.ndarray:
    """``value`` as a float array, once its dtype is integer or float: bool,
    string, object and complex arrays (and such scalars) raise ``error``
    naming ``name``."""
    v = np.asarray(value)
    if v.dtype.kind not in "iuf":
        raise error(f"{name} must be an array of numbers, got dtype {v.dtype}")
    return v.astype(float, copy=False)
