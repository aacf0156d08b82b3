"""Error taxonomy shared across the package.

Usage errors (bad arguments, bad partitions, malformed input) derive from
ValueError; numerical failures (an indefinite embedding or table, a LAPACK
routine that fails, a result that overflows a float) derive from
RuntimeError so callers can map them to distinct exit codes.
"""


class ParameterError(ValueError):
    """A parameter is outside its admissible range."""


class DomainError(ValueError):
    """An evaluation point lies outside the domain of definition."""


class PartitionError(ValueError):
    """A partition is not a strictly increasing subdivision of [0, 1]."""


class ShapeError(ValueError):
    """Array arguments have inconsistent or invalid shapes."""


class ResourceError(ValueError):
    """A resolution parameter exceeds the configured resource cap."""


class NumericalError(RuntimeError):
    """A numerical routine failed or produced a non-finite result from accepted input."""
