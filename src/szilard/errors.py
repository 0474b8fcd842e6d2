"""Exception hierarchy for the szilard package.

Everything raised on purpose derives from SzilardError so callers can catch
one type at sweep level and record the point as failed instead of aborting.
"""


class SzilardError(Exception):
    """Base class for all deliberate failures in this package."""


class InvalidPotentialError(SzilardError):
    """Potential parameters violate their domain (non-positive mass, exponent, ...)."""


class SpectrumRangeError(SzilardError):
    """Requested level index falls outside the bound spectrum."""


class NoBoundStatesError(SzilardError):
    """Well too shallow: fewer than one bound state, engine undefined."""


class PoleError(SzilardError):
    """Gamma-ratio evaluation requested exactly at a numerator pole."""


class SolverFailureError(SzilardError):
    """Root bracketing or refinement failed; indicates a programming defect or
    parameters far outside the representable range."""


class ConvergenceViolationError(SzilardError):
    """Chemical potential at or above the ground-state energy: the
    grand-canonical sums would diverge.  Never clamped, always raised."""


class TruncationError(SzilardError):
    """Series still contributing above rel_tol when max_terms was reached."""


class EnsembleMismatchError(SzilardError):
    """Ensemble and potential family are incompatible (e.g. a grand-canonical
    Bose cycle over a Morse well)."""


class ConfigError(SzilardError):
    """Bad sweep configuration: unknown preset, malformed value, bad axis."""


class OutputError(SzilardError):
    """CSV or manifest could not be written."""


def value_or_raise(value):
    """value, or raised if it is a SzilardError kept as a value.  Pass it
    straight in: a frame that holds the error it raises is a reference
    cycle through the traceback, which only the garbage collector frees."""
    if isinstance(value, SzilardError):
        try:
            raise value
        finally:
            del value
    return value
