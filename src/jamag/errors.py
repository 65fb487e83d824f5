"""Exception classes for jamag.

A :class:`DataError` is bad input (CLI exit code 2); any other
:class:`JamagError` is a numerical failure on valid input (exit code 3).  The
message names the cause.  A subclass exists only where a caller needs more:
a field it carries, or a branch on its class.
"""


class JamagError(Exception):
    """Base class of all jamag errors; raised as itself for a numerical failure."""


class DataError(JamagError):
    """Bad input data or settings (CLI exit code 2)."""


class UnstableParams(JamagError):
    """Parameters put the implicit anhysteretic curve in the multivalued regime.

    ``fit_anhysteretic`` turns it into a :class:`DataError`: on its candidates
    only a too-large initial susceptibility gets there.
    """


class SingularDenominator(JamagError):
    """A pinning or coupling denominator vanished.

    ``step_index`` (int or None) locates the failing step of an integration.
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class ParseError(DataError):
    """A curve file could not be read.  ``line`` is the bad row's 1-based line number, or None."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class NonPhysicalParameterWarning(UserWarning):
    """A derived quantity fell outside its physically expected range."""
