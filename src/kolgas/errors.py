"""Exception types shared across the package.

The CLI maps these onto stable exit codes: domain/validation problems
exit with 2, malformed input files and unwritable outputs with 3.
"""


class KolgasError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KolgasError, ValueError):
    """An argument is outside the mathematical or physical domain of an operation."""


class UnknownSpeciesError(DomainError):
    """Species name not present in the bundled species table."""


class DegeneracyError(DomainError):
    """State equations requested in a regime where the closed forms break down."""


class UnknownEstimatorError(DomainError):
    """Complexity estimator id not recognised."""


class NoPlateauError(KolgasError):
    """A disorder trace never stabilises, so no relaxation time is defined."""


class FormatError(KolgasError):
    """An input file does not follow the documented list-file format, or
    an artifact cannot be read or written."""
