"""Exception hierarchy shared across the package: every ChainkitError is
a ValidationError (the CLI exits 2) or a NumericError (exit 3).

Also the one record of the tolerances a report applied: each check calls
`applied(key=CONSTANT)` just before it first compares against a report
tolerance, and the CLI prints what was recorded while the report was
built as its `tolerances`. Outside a report nothing is recorded."""

from contextvars import ContextVar

# the `tolerances` dict of the report being built; None outside a report
TOLERANCES: ContextVar[dict | None] = ContextVar("tolerances", default=None)


def applied(**tolerances: float) -> None:
    """Record tolerances a check compares against in the report being built."""
    record = TOLERANCES.get()
    if record is not None:
        record.update(tolerances)


class ChainkitError(Exception):
    """Base class for all library errors."""


class ValidationError(ChainkitError):
    """Raised when an input object violates its construction contract."""


class NegativeEntry(ValidationError):
    pass


class RowSumViolation(ValidationError):
    pass


class DuplicateLabel(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class UnknownLabel(ValidationError):
    pass


class NonFiniteEntry(ValidationError):
    """A matrix, distribution or weight holds NaN or an infinity."""


class BadLabel(ValidationError):
    """State labels that are not a list of strings and numbers."""


class BadCount(ValidationError):
    """A length, step count, power, seed or ensemble size: not an integer, or out of range."""


class NegativeWeight(ValidationError):
    pass


class ZeroOutDegree(ValidationError):
    """A vertex with no outgoing weight has no random-walk row."""


class NumericError(ChainkitError):
    """Raised when a numeric routine cannot produce a trustworthy result."""


class SingularMatrix(NumericError):
    pass


class NoConvergence(NumericError):
    pass


class NotSymmetric(NumericError):
    pass


class NotDiagonalizable(NumericError):
    pass


class NotUndirected(ValidationError):
    pass


class ZeroDegree(ValidationError):
    pass


class BadAlpha(ValidationError):
    pass


class IncompleteBasis(ValidationError):
    pass


class FormulaMismatch(NumericError):
    """The two evaluation routes of a dual-checked formula disagree."""


class ParseError(ValidationError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class NotRecurrent(ValidationError):
    """Operation requires a chain whose states are all recurrent."""


class NotAbsorbing(ValidationError):
    """Operation requires an absorbing chain."""
