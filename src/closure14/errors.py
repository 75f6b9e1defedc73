"""Exception hierarchy shared by all closure14 modules."""


class ClosureError(Exception):
    """Base class for all closure14 errors."""


class ParityError(ClosureError, ValueError):
    """An index/rank parity requirement was violated."""


class DomainError(ClosureError, ValueError):
    """Evaluation point outside the admissible domain (e.g. lambda_ll <= 0)."""


class TruncationError(ClosureError, ValueError):
    """The series truncation order is too small for the requested operation."""


class FamilyConstructionError(ClosureError, ValueError):
    """A generating family failed the ladder-residual construction gate."""


class DecayError(ClosureError, ValueError):
    """A kinetic kernel does not decay fast enough for the quadrature."""


class AccuracyError(ClosureError, RuntimeError):
    """Quadrature could not reach the requested tolerance within budget."""


class ConfigError(ClosureError, ValueError):
    """Invalid run configuration (CLI layer)."""
