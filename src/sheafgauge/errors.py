"""Exception hierarchy shared by all sheafgauge modules."""

from __future__ import annotations


class SheafGaugeError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionMismatchError(SheafGaugeError):
    """Jet gradients or coordinate vectors of incompatible lengths."""


class NonFiniteError(SheafGaugeError, ValueError):
    """A jet, matrix or form component is NaN or infinite.

    Also a ValueError, so code that catches ValueError keeps working.
    """


class FieldMismatchError(SheafGaugeError):
    """Fields combined across different regions, point sets or shapes."""


class SingularMatrixError(SheafGaugeError):
    """Matrix inversion requested below the determinant floor."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class SpanError(SheafGaugeError):
    """A matrix expected to lie in the span of a Lie basis does not."""

    def __init__(self, message: str, point=None, residual: float = 0.0):
        super().__init__(message)
        self.point = point
        self.residual = residual


class CoverError(SheafGaugeError):
    """Structurally invalid sampled cover."""


class UnknownRegionError(CoverError):
    """Region id not present in the cover."""


class MissingJacobianError(CoverError):
    """Chart transport requested where no Jacobian entry exists."""


class OverlapMismatchError(SheafGaugeError):
    """Pieces passed to glue disagree on a shared point."""

    def __init__(self, message: str, region_a=None, region_b=None, point=None,
                 residual: float = 0.0):
        super().__init__(message)
        self.region_a = region_a
        self.region_b = region_b
        self.point = point
        self.residual = residual


class EmptyOverlapError(SheafGaugeError):
    """Transition or restriction requested over an empty overlap."""


class MissingEntryError(SheafGaugeError):
    """Cocycle entry absent for a region pair with nonempty overlap."""


class MissingExtensionError(SheafGaugeError):
    """Propagation needed data outside the domain where it was supplied."""


class CycleInconsistencyError(SheafGaugeError):
    """Connection propagation around a cover cycle failed to close."""

    def __init__(self, message: str, residual: float = 0.0, point=None):
        super().__init__(message)
        self.residual = residual
        self.point = point


class EquivarianceError(SheafGaugeError):
    """Chart values violate the transition law they should satisfy."""

    def __init__(self, message: str, residual: float = 0.0, point=None):
        super().__init__(message)
        self.residual = residual
        self.point = point


class PullbackImageError(SheafGaugeError):
    """Connection matrices leave the image of the coefficient map."""

    def __init__(self, message: str, point=None, residual: float = 0.0):
        super().__init__(message)
        self.point = point
        self.residual = residual


class PreconditionError(SheafGaugeError):
    """A documented precondition of an operation failed at runtime."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ParseError(SheafGaugeError):
    """Syntax error in an expression, with byte offset and expectations."""

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = tuple(expected)


class ExprDomainError(SheafGaugeError):
    """Evaluation hit an undefined operation (division by zero, bad power)."""

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


class ScenarioError(SheafGaugeError):
    """Malformed or inconsistent scenario description."""
