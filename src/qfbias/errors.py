"""Exception hierarchy shared across the package.

ValueError is reserved for violated call contracts (bad arguments); the
classes here mark failures of the computation itself, so the CLI can map
them to distinct exit codes.
"""


class QfbiasError(Exception):
    """Base class for package-specific errors."""


class ComputationError(QfbiasError):
    """A computation could not be completed (CLI exit code 3)."""


class SieveCapacityError(ComputationError):
    """A request would require sieving past the configured capacity."""


class QuadratureError(ComputationError):
    """Adaptive integration exhausted its refinement budget."""


class ZeroDenominatorError(ComputationError):
    """A ratio of integrals has a vanishing denominator."""


class OracleBoundError(ComputationError):
    """Exhaustive representation search requested above its bound."""


class TableBoundError(ComputationError):
    """A representation table's lattice arithmetic would pass the int64 range."""


class ConsistencyError(ComputationError):
    """Two independent routes to the same quantity disagree."""


class CacheFormatError(ComputationError):
    """A representation cache file is malformed or does not match the form."""
