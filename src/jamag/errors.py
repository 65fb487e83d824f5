"""Exception hierarchy for jamag.

Grouped by the stage that raises them: root finding, curve evaluation,
parameter estimation, and data handling.  ``DataError`` subclasses indicate
bad input; everything else indicates a numerical failure on valid input.
"""


class JamagError(Exception):
    """Base class for all jamag-specific errors."""


class DataError(JamagError):
    """Base class for input-data problems (maps to CLI exit code 2)."""


class NoConvergence(JamagError):
    """An iteration cap was reached before the tolerance was met (any solver)."""


# --- scalar root finding ---------------------------------------------------

class RootFindError(JamagError):
    """Base class for root finder failures."""


class InvalidBracket(RootFindError):
    """The supplied interval does not bracket a sign change."""


class NoSignChange(RootFindError):
    """Bracket expansion exhausted its budget without finding a sign change."""


# --- anhysteretic curve evaluation ------------------------------------------

class UnstableParams(JamagError):
    """Parameters put the implicit anhysteretic curve in the multivalued regime."""


class SingularSlope(JamagError):
    """The anhysteretic slope denominator is zero or negative."""


# --- anhysteretic-curve estimator -------------------------------------------

class NoPositiveSample(DataError):
    """No usable sample with positive field and magnetization was found."""


class NoSolution(JamagError):
    """The scaled high-field target exceeds saturation; no susceptibility solves it."""


class DegenerateSweep(JamagError):
    """The very first scale-factor step failed to produce a solution."""


# --- loop-feature estimator ---------------------------------------------------

class ZeroDenominator(DataError):
    """A susceptibility ratio has a zero denominator."""


class SingularDenominator(JamagError):
    """A pinning/coupling denominator vanished during evaluation.

    Carries ``step_index`` (int or None) when raised from inside an
    integration so the failing step can be located.
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class DegenerateC(JamagError):
    """Reversibility fraction c equals 1; the loop equations lose the pinning term."""


# --- data handling -----------------------------------------------------------

class ParseError(DataError):
    """A cell could not be parsed.  ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class UnitError(DataError):
    """Unknown or inconsistent unit declaration."""


class EmptyFile(DataError):
    """The input file contains no data rows."""


class MissingBranch(DataError):
    """The loop does not contain both a descending and an ascending branch."""


class InsufficientSamples(DataError):
    """Too few samples for the requested feature extraction."""


# --- warnings ----------------------------------------------------------------

class NonPhysicalParameterWarning(UserWarning):
    """A derived quantity fell outside its physically expected range."""
