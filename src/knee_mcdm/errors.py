"""Exception and warning types shared across the package."""


class KneeMCDMError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KneeMCDMError):
    """Input is not a valid front file (bad syntax, wrong column count)."""


class NonFiniteValue(KneeMCDMError):
    """An objective value, or an entry of a decision vector (``column`` None),
    is NaN or infinite."""

    def __init__(self, solution_id: str, column: str | None = None):
        if column is None:
            message = f"non-finite decision vector entry for id={solution_id!r}"
        else:
            message = f"non-finite objective value for id={solution_id!r} in column {column!r}"
        super().__init__(message)
        self.solution_id = solution_id
        self.column = column


class DuplicateId(KneeMCDMError):
    """Two solutions in one front share an id."""

    def __init__(self, solution_id: str):
        super().__init__(f"duplicate solution id {solution_id!r}")
        self.solution_id = solution_id


class EmptyFront(KneeMCDMError):
    """The front contains no solutions."""


class AllDimensionsDegenerate(KneeMCDMError):
    """Every objective has zero spread: all solutions coincide, selection is vacuous."""


class SpreadOverflow(KneeMCDMError):
    """An objective's spread (max - min) is too large to represent as a float."""


class InvalidEpsilon(KneeMCDMError, ValueError):
    """The score-equality tolerance is negative or not finite."""


class EquivalenceViolation(KneeMCDMError):
    """The selection rules disagreed on the winner class.

    Never expected on valid inputs; carries the differing winner sets so the
    disagreement can be inspected.
    """

    def __init__(self, message: str, winners: dict | None = None):
        super().__init__(message)
        self.winners = dict(winners or {})


class InvalidSpec(KneeMCDMError, ValueError):
    """Generator or bench parameters are out of range."""


class DegenerateSpreadWarning(UserWarning):
    """A zero-spread dimension was excluded from scoring."""
