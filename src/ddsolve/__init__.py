"""Convex solver for problems  inf { <c,x> : A x in D }  where D is a
product of barrier atoms (halflines, boxes, second-order cones).

An infeasible-start primal-dual path follower classifies each instance as
solved to accuracy eps, infeasible, unbounded, or ill-conditioned, and
backs every classification with a verifiable certificate.
"""

from .barriers import (
    BarrierAtom,
    DomainBarrier,
    box,
    halfline_lower,
    halfline_upper,
    soc,
)
from .errors import (
    AtomCoverage,
    BadConstants,
    CorrectorStall,
    DomainViolation,
    FactorizationFailure,
    ParseError,
    PredictorStall,
    ProjectionOutsideCone,
    ProjectionOutsideDomain,
    RankDeficient,
    SolverError,
    ValidationError,
)
from .model import (
    GapBounds,
    Iterate,
    Problem,
    StartData,
    gap_bounds,
    make_start,
    mu_of,
    proximity_at,
    support_function,
    validate_problem,
)
from .path import FollowerOptions, FollowResult, TraceRow, follow
from .status import (
    Certificate,
    StatusReport,
    StopParams,
    check_status,
    stop_params,
    strict_infeasibility_certificate,
    strict_unboundedness_certificate,
    verify_certificate,
)

__version__ = "0.1.0"
