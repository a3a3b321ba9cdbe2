"""Exception hierarchy shared by all sheafgauge modules.

Every error carries one failure record: the sample ``point`` where a
law failed and the ``residual`` there, each None when unset.
``report.CheckResult.require`` raises a failed check with both filled.
Only errors with fields of their own define a constructor.
"""

from __future__ import annotations


class SheafGaugeError(Exception):
    """Base class for every error this package raises on purpose."""

    def __init__(self, message: str, point=None, residual: float | None = None):
        super().__init__(message)
        self.point = point
        self.residual = residual


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


class SpanError(SheafGaugeError):
    """A matrix expected to lie in the span of a Lie basis does not."""


class CoverError(SheafGaugeError):
    """Structurally invalid sampled cover."""


class UnknownRegionError(CoverError):
    """Region id not present in the cover."""


class MissingJacobianError(CoverError):
    """Chart transport requested where no Jacobian entry exists."""


class OverlapMismatchError(SheafGaugeError):
    """Pieces passed to glue disagree on a shared point."""

    def __init__(self, message: str, region_a=None, region_b=None, point=None, residual=None):
        super().__init__(message, point, residual)
        self.region_a = region_a
        self.region_b = region_b


class EmptyOverlapError(SheafGaugeError):
    """Transition or restriction requested over an empty overlap."""


class MissingEntryError(SheafGaugeError):
    """Cocycle entry absent for a region pair with nonempty overlap."""


class MissingExtensionError(SheafGaugeError):
    """Propagation needed data outside the domain where it was supplied."""


class CycleInconsistencyError(SheafGaugeError):
    """Connection propagation around a cover cycle failed to close."""


class EquivarianceError(SheafGaugeError):
    """Chart values violate the transition law they should satisfy."""


class PullbackImageError(SheafGaugeError):
    """Connection matrices leave the image of the coefficient map."""


class PreconditionError(SheafGaugeError):
    """A documented precondition of an operation failed at runtime."""


class ParseError(SheafGaugeError):
    """Syntax error in an expression, with byte offset and expectations."""

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = tuple(expected)


class ExprDomainError(SheafGaugeError):
    """Evaluation hit an undefined operation (division by zero, bad power).

    ``offset`` is the source offset of the failing node in its expression
    and ``entry`` the index, among the expressions compiled together, of
    the first one holding that node; each is -1 when unknown.
    """

    def __init__(self, message: str, offset: int = -1, entry: int = -1):
        super().__init__(message)
        self.offset = offset
        self.entry = entry


class ScenarioError(SheafGaugeError):
    """Malformed or inconsistent scenario description."""
