"""Status taxonomy: stop parameters, termination checks, certificate
extraction and certificate verification.

Terminal statuses, in the precedence order they are checked:

  EpsSolution              max{gap, P_feas, D_feas} <= eps
  InfeasibilityCertificate (tau/mu)||A'y|| <= eps and (tau/mu) support(y) < 0
  UnboundednessCertificate <c, x> <= -1/eps
  IllConditioned           mu >= 1/(theta * eps^3): both problems are
                           eps-feasible; report the pair and the dual
                           objective estimate -support(y)/tau
  IterationLimit / NumericalFailure

The follower forms each accepted iterate's stop parameters once, when it
records the iterate, and every report on that iterate reads them: the
termination checks, the IllConditioned pair's checks and the
NumericalFailure and IterationLimit reports.

Certificate verification never consults solver state: it re-evaluates
memberships, margins and support functions from the problem data alone,
including tau > 0 and A x + z0/tau in D for every point reported with its
tau.  A malformed certificate fails the checks it cannot back instead of
raising.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .barriers import CONJUGATE, PRIMAL
from .errors import DomainViolation, ProjectionOutsideCone, ProjectionOutsideDomain
from .model import (
    Iterate,
    Problem,
    StartData,
    shifted_image,
    support_function,
)

EPS_SOLUTION = "EpsSolution"
INFEASIBILITY_CERTIFICATE = "InfeasibilityCertificate"
UNBOUNDEDNESS_CERTIFICATE = "UnboundednessCertificate"
ILL_CONDITIONED = "IllConditioned"
ITERATION_LIMIT = "IterationLimit"
NUMERICAL_FAILURE = "NumericalFailure"

EXIT_CODES = {
    EPS_SOLUTION: 0,
    INFEASIBILITY_CERTIFICATE: 1,
    UNBOUNDEDNESS_CERTIFICATE: 2,
    ILL_CONDITIONED: 3,
    ITERATION_LIMIT: 5,
    NUMERICAL_FAILURE: 5,
}

# the projection target <w, z0> <= -0.9 * tau * xi * theta uses this factor
INFEASIBILITY_PROJECTION_FACTOR = 0.9


@dataclass(frozen=True)
class StopParams:
    """Scaled duality gap and primal/dual feasibility measures."""

    gap: float
    p_feas: float
    d_feas: float

    def max(self) -> float:
        return max(self.gap, self.p_feas, self.d_feas)


def stop_params(problem: Problem, start: StartData, x, tau: float, y) -> StopParams:
    """gap = |<c,x> + support(y)/tau| / (1 + |<c,x>| + |support(y)/tau|)
    with a sentinel value 1 when the support is +inf;
    P_feas = ||z0||/tau;  D_feas = ||A'y/tau + c|| / (1 + ||c||).
    Raises DomainViolation unless tau > 0, as :func:`gap_bounds` does."""
    if not tau > 0.0:
        raise DomainViolation(f"tau must be positive, got {tau}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = float(tau)
    cx = float(problem.c @ x)
    ds = support_function(problem, y)
    if np.isinf(ds):
        gap = 1.0
    else:
        dst = ds / tau
        gap = abs(cx + dst) / (1.0 + abs(cx) + abs(dst))
    p_feas = start.z0_norm / tau
    r = problem.A.T @ y / tau + problem.c
    d_feas = math.sqrt(r.dot(r)) / (1.0 + problem.c_norm)
    return StopParams(gap=float(gap), p_feas=p_feas, d_feas=d_feas)


@dataclass
class Certificate:
    """Payload backing a terminal status.

    ``strict`` distinguishes an exact certificate obtained by projection
    from the eps-approximate one read off the current iterate.
    """

    kind: str                     # "infeasibility" | "unboundedness" | "optimal-pair"
    strict: bool
    eps: float
    y: np.ndarray | None = None   # infeasibility direction, or the pair's scaled dual
    x: np.ndarray | None = None   # unbounded point, or the pair's primal point
    tau: float | None = None      # context for the pair checks


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, value: float):
        self.checks.append(CheckResult(name=name, passed=bool(passed), value=float(value)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list:
        return [c.name for c in self.checks if not c.passed]


@dataclass
class StatusReport:
    """Classified outcome with certificate payload and diagnostics."""

    status: str
    x: np.ndarray | None = None
    y_scaled: np.ndarray | None = None
    certificate: Certificate | None = None
    objective_primal: float | None = None
    objective_estimate: float | None = None
    verification: VerificationReport | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


def verify_certificate(problem: Problem, start: StartData, cert: Certificate) -> VerificationReport:
    """Re-check a certificate against the problem data only.

    infeasibility (strict):  ||A'y||_inf <= 1e-8, y in the dual cone
    (margins >= 0), support(y) <= -1 + 1e-8;
    infeasibility (eps):     ||A'y|| <= eps, margins >= 0, support(y) < 0;
    unboundedness (strict):  A x interior margins > 0 and <c,x> <= -1/eps;
    unboundedness (eps):     <c,x> <= -1/eps, tau > 0, A x + z0/tau in D;
    optimal-pair:            tau > 0, A x + z0/tau in D, all three stop
    parameters <= eps (a dual point off D* has support +inf and fails the
    gap).

    A malformed certificate fails instead of raising.  Without tau > 0, or
    without the x or y a check needs, that check fails unformed, with a
    NaN value; an x whose length is not n or a y whose length is not m is
    read as missing, and a tau that is not a real number as NaN.  An eps
    outside (0, 1), or not a real number, fails every check that compares
    with it, keeping the check's value.
    """
    rep = VerificationReport()
    # NaN fails every comparison
    eps, tau = _real(cert.eps), _real(cert.tau)
    eps = eps if 0.0 < eps < 1.0 else np.nan
    x = cert.x if np.shape(cert.x) == (problem.n,) else None
    y = cert.y if np.shape(cert.y) == (problem.m,) else None
    if cert.kind == "infeasibility":
        if y is None:
            aty, margin, ds = np.full(problem.n, np.nan), np.nan, np.nan
        else:
            aty = problem.A.T @ y
            margin = problem.barrier.min_margin(y, CONJUGATE)
            ds = support_function(problem, y)
        if cert.strict:
            aty_inf = float(np.max(np.abs(aty), initial=0.0))
            rep.add("ATy_inf_norm <= 1e-8", aty_inf <= 1e-8, aty_inf)
            rep.add("y in dual cone (margins >= 0)", margin >= 0.0, margin)
            rep.add("support(y) <= -1 + 1e-8", ds <= -1.0 + 1e-8, ds)
        else:
            aty_norm = float(np.linalg.norm(aty))
            rep.add("||A'y|| <= eps", aty_norm <= eps, aty_norm)
            rep.add("y in dual cone (margins >= 0)", margin >= 0.0, margin)
            rep.add("support(y) < 0", ds < 0.0, ds)
    elif cert.kind == "unboundedness":
        cx = np.nan if x is None else float(problem.c @ x)
        rep.add("<c,x> <= -1/eps", cx <= -1.0 / eps, cx)
        if cert.strict:
            margin = np.nan if x is None else problem.barrier.min_margin(problem.A @ x, PRIMAL)
            rep.add("Ax interior (margins > 0)", margin > 0.0, margin)
        else:
            _add_image_check(rep, problem, start, x, tau)
    elif cert.kind == "optimal-pair":
        if _add_image_check(rep, problem, start, x, tau) and y is not None:
            sp = stop_params(problem, start, x, tau, tau * y)
        else:
            sp = StopParams(gap=np.nan, p_feas=np.nan, d_feas=np.nan)
        rep.add("gap <= eps", sp.gap <= eps, sp.gap)
        rep.add("P_feas <= eps", sp.p_feas <= eps, sp.p_feas)
        rep.add("D_feas <= eps", sp.d_feas <= eps, sp.d_feas)
    else:
        rep.add(f"unknown certificate kind {cert.kind}", False, 0.0)
    return rep


def _real(value) -> float:
    """``value`` as a float if it is a real number, NaN otherwise (None,
    text, ...)."""
    return float(value) if isinstance(value, numbers.Real) else np.nan


def _add_image_check(rep: VerificationReport, problem, start, x, tau: float) -> bool:
    """tau > 0 and A x + z0/tau in D (margins >= 0), for a point reported
    with its tau: a negative tau flips the sign of P_feas and of z0/tau.
    Returns whether the image is formed: only with tau > 0, which NaN is
    not, and with x given; otherwise its check fails with a NaN margin."""
    positive = tau > 0.0
    rep.add("tau > 0", positive, tau)
    formed = positive and x is not None
    margin = (problem.barrier.min_margin(shifted_image(problem, start, x, tau), PRIMAL)
              if formed else np.nan)
    rep.add("Ax + z0/tau in domain (margins >= 0)", margin >= 0.0, margin)
    return formed


def _eps_feasibility_report(problem, start, point: Iterate, sp: StopParams,
                            eps: float) -> VerificationReport:
    """Checks for the ill-conditioned pair: structural feasibility and
    P_feas, D_feas <= eps, read from the point's stop parameters ``sp``."""
    rep = VerificationReport()
    _add_image_check(rep, problem, start, point.x, point.tau)
    dual_margin = problem.barrier.min_margin(point.y / point.tau, CONJUGATE)
    rep.add("y/tau in dual cone (margins >= 0)", dual_margin >= 0.0, dual_margin)
    rep.add("P_feas <= eps", sp.p_feas <= eps, sp.p_feas)
    rep.add("D_feas <= eps", sp.d_feas <= eps, sp.d_feas)
    return rep


def _report(problem, point: Iterate, status: str, sp: StopParams, *, verification=None,
            certificate=None, reason=None) -> StatusReport:
    """The finished report of ``status`` at ``point``, whose stop parameters
    are ``sp``; a failure ``reason`` is the last diagnostics key."""
    ds = support_function(problem, point.y)
    return StatusReport(
        status=status,
        x=point.x,
        y_scaled=point.y / point.tau,
        certificate=certificate,
        objective_primal=float(problem.c @ point.x),
        objective_estimate=float(-ds / point.tau) if np.isfinite(ds) else None,
        verification=verification,
        diagnostics={
            "mu": point.mu, "tau": point.tau, "proximity": point.proximity,
            "gap": sp.gap, "p_feas": sp.p_feas, "d_feas": sp.d_feas,
            **({} if reason is None else {"reason": reason}),
        })


def _certified(problem, start, point: Iterate, status: str, sp: StopParams,
               cert: Certificate) -> StatusReport:
    """The report of a certificate status, with ``cert`` re-verified from
    the problem data.  A report never claims a status its payload fails:
    if verification fails, the report is a NumericalFailure without the
    certificate, keeping the verification that failed."""
    verification = verify_certificate(problem, start, cert)
    if verification.passed:
        return _report(problem, point, status, sp, verification=verification, certificate=cert)
    return _report(problem, point, NUMERICAL_FAILURE, sp, verification=verification,
                   reason="certificate failed verification: "
                   + ", ".join(verification.failed_names()))


def require_eps(eps: float) -> None:
    """ValueError unless the accuracy target lies in (0, 1); NaN does not."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def check_status(problem: Problem, start: StartData, point: Iterate, eps: float,
                 *, sp: StopParams):
    """Run the termination checks in precedence order; None if none fired.

    ``sp`` are the point's stop parameters, as :func:`stop_params` forms them.
    """
    require_eps(eps)
    x, tau, y, mu = point.x, point.tau, point.y, point.mu

    if sp.max() <= eps:
        return _certified(problem, start, point, EPS_SOLUTION, sp,
                          Certificate(kind="optimal-pair", strict=False, eps=eps,
                                      x=x, y=y / tau, tau=tau))

    # the scaled dual and its support are formed only where the cheap norm
    # test passes
    aty = problem.A.T @ y
    if ((tau / mu) * math.sqrt(aty.dot(aty)) <= eps
            and support_function(problem, scaled := (tau / mu) * y) < 0.0):
        return _certified(problem, start, point, INFEASIBILITY_CERTIFICATE, sp,
                          Certificate(kind="infeasibility", strict=False, eps=eps, y=scaled))

    if float(problem.c @ x) <= -1.0 / eps:
        return _certified(problem, start, point, UNBOUNDEDNESS_CERTIFICATE, sp,
                          Certificate(kind="unboundedness", strict=False, eps=eps, x=x, tau=tau))

    if mu >= 1.0 / (problem.theta * eps**3):
        return _report(problem, point, ILL_CONDITIONED, sp,
                       verification=_eps_feasibility_report(problem, start, point, sp, eps))

    return None


def numerical_failure_report(problem, point: Iterate, sp: StopParams,
                             exc: Exception) -> StatusReport:
    """The last accepted point's report, from its stop parameters ``sp``."""
    return _report(problem, point, NUMERICAL_FAILURE, sp, reason=f"{type(exc).__name__}: {exc}")


def iteration_limit_report(problem, point: Iterate, sp: StopParams) -> StatusReport:
    """The last accepted point's report, from its stop parameters ``sp``."""
    return _report(problem, point, ITERATION_LIMIT, sp,
                   reason="iteration cap reached before any status fired")


def _weighted_projection(hinv, constraints, rhs, v):
    """argmin (w-v)' H (w-v)  s.t.  constraints' w = rhs, with ``hinv(B) = H^-1 B``."""
    hinv_c = hinv(constraints)
    lam = np.linalg.solve(constraints.T @ hinv_c, constraints.T @ v - rhs)
    return v - hinv_c @ lam


def strict_infeasibility_certificate(problem: Problem, start: StartData,
                                     point: Iterate) -> Certificate:
    """Project the scaled dual point onto { w : A'w = 0,
    <w, z0> <= -0.9 tau xi theta } in the conjugate local metric; on
    success, rescale so the support function equals exactly -1.  Active set
    on the cut: when the projection onto A'w = 0 breaks it, project again
    with <w, z0> = -0.9 tau xi theta as one more equality.

    Raises ProjectionOutsideCone when the projection leaves the dual cone
    (too early on the path) or its support is not negative.
    """
    tau, mu, y = point.tau, point.mu, point.y
    v = (tau / mu) * y
    metric = problem.barrier.hess(v, CONJUGATE)
    bound = -INFEASIBILITY_PROJECTION_FACTOR * tau * problem.xi * problem.theta

    zeros = np.zeros(problem.n)
    try:
        w = _weighted_projection(metric.solve, problem.A, zeros, v)
        if float(start.z0 @ w) > bound:
            w = _weighted_projection(metric.solve, np.column_stack([problem.A, start.z0]),
                                     np.concatenate([zeros, [bound]]), v)
    except np.linalg.LinAlgError as exc:
        raise ProjectionOutsideCone(f"projection system singular: {exc}") from exc

    margin = problem.barrier.min_margin(w, CONJUGATE)
    if not margin > 0.0:
        raise ProjectionOutsideCone(f"projection margin {margin:.3e} is not positive")
    ds = support_function(problem, w)
    if not ds < 0.0:
        raise ProjectionOutsideCone(f"projected support {ds:.3e} is not negative")
    w = w / (-ds)  # support is positively homogeneous, so this pins it at -1
    return Certificate(kind="infeasibility", strict=True, eps=np.nan, y=w)


def strict_unboundedness_certificate(problem: Problem, start: StartData,
                                     point: Iterate, eps: float) -> Certificate:
    """Project the shifted image point onto { A x : <c, x> <= -1/eps } in
    the primal local metric; the result must be strictly interior.

    Active set on the cut: when the least-squares fit breaks it, project
    again with <c, x> = -1/eps as the one equality.  Raises
    ProjectionOutsideDomain if the projected point is not interior, and
    ValueError, before any work, unless eps lies in (0, 1).
    """
    require_eps(eps)
    x, tau = point.x, point.tau
    u = shifted_image(problem, start, x, tau)
    metric = problem.barrier.hess(u, PRIMAL)
    try:
        # in x-space the metric is A'HA, and the unconstrained projection
        # is the least-squares fit of A x to u
        normal = problem.A.T @ metric.matvec(problem.A)
        xhat = np.linalg.solve(normal, problem.A.T @ metric.matvec(u))
        if float(problem.c @ xhat) > -1.0 / eps:
            xhat = _weighted_projection(lambda b: np.linalg.solve(normal, b),
                                        problem.c[:, None], np.array([-1.0 / eps]), xhat)
    except np.linalg.LinAlgError as exc:
        raise ProjectionOutsideDomain(f"projection system singular: {exc}") from exc
    margin = problem.barrier.min_margin(problem.A @ xhat, PRIMAL)
    if not margin > 0.0:
        raise ProjectionOutsideDomain(f"projected point margin {margin:.3e} is not positive")
    return Certificate(kind="unboundedness", strict=True, eps=eps, x=xhat)
