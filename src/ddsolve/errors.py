"""Exception types raised by the solver."""


class SolverError(Exception):
    """Base class for all ddsolve errors."""


class DomainViolation(SolverError):
    """A point left the strict interior of the barrier domain (or its dual)."""


class FactorizationFailure(SolverError):
    """A matrix that should be positive definite failed to factor."""


class ValidationError(SolverError):
    """Base class for problem-data validation failures."""


class RankDeficient(ValidationError):
    """The embedding matrix has a nontrivial kernel."""


class AtomCoverage(ValidationError):
    """Atom coordinate lists do not partition the image space."""


class BadConstants(ValidationError):
    """Solver constants violate xi > 1 or xi - 1 - kappa > 0."""


class CorrectorStall(SolverError):
    """Corrector failed to reach its target proximity."""


class PredictorStall(SolverError):
    """Predictor could not increase the path parameter."""


class ProjectionOutsideCone(SolverError):
    """Strict-infeasibility projection landed outside the dual cone."""


class ProjectionOutsideDomain(SolverError):
    """Strict-unboundedness projection landed outside the primal domain."""


class ParseError(SolverError):
    """Problem file could not be parsed.

    Carries an optional field name so the CLI can point at the offending
    entry.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)
