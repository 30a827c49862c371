"""Exception types raised across the package."""


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

