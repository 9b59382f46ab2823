"""Exception types raised across the package.

Everything derives from MassHistError so callers can catch the library's
failures in one clause.  Input problems (bad parameter values, malformed
files) are kept distinct from numerical failures (singular information,
no finite maximum) because the command line maps them to different exit
codes.
"""


class MassHistError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MassHistError, ValueError):
    """A parameter or argument violates its documented domain.

    The message names the offending field and the bound it broke.
    """


class CsvFormatError(MassHistError, ValueError):
    """A dataset file could not be parsed; message names row/column."""


class InsufficientTimes(MassHistError):
    """Fewer than two distinct observation times; (lambda, gamma) is not
    identifiable from current-status information."""


class NoFiniteMle(MassHistError):
    """The step-function likelihood has no interior maximum (all counts
    zero, or none zero)."""


class SingularInformation(MassHistError):
    """Observed information matrix could not be inverted for standard
    errors."""


class MissingBaseline(MassHistError):
    """BIC comparison requested without the logistic reference model."""


class SizeMismatch(MassHistError):
    """A collection had the wrong cardinality (e.g. trajectories vs.
    schedule x replicates)."""


class GridMismatch(MassHistError):
    """Trajectories with different time grids were mixed in one summary."""


class NotSymmetric(MassHistError):
    """A matrix handed to the eigensolver was not symmetric."""


class RejectionBudgetExceeded(MassHistError):
    """Rejection sampler failed to produce an admissible draw within its
    attempt budget."""
