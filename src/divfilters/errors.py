"""Shared exception types."""


class DivfiltersError(Exception):
    """Base class for all library errors."""


class BudgetExceededError(DivfiltersError):
    """A computation would exceed a configured resource bound.

    Raised instead of silently truncating results.
    """


class ParseError(DivfiltersError):
    """Expression or filter-spec text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


class IncompleteEnumerationError(DivfiltersError):
    """An operation required a complete enumeration but some membership
    queries came back UnknownAtBound."""


class FilterConstructionError(DivfiltersError):
    """A filter presentation was rejected (empty or unverifiable core)."""


class PreconditionError(DivfiltersError):
    """An operation's documented precondition was violated."""
