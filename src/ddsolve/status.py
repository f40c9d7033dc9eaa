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

Certificate verification never consults solver state: it re-evaluates
memberships, margins and support functions from the problem data alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barriers import CONJUGATE, PRIMAL
from .errors import ProjectionOutsideCone, ProjectionOutsideDomain
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
    P_feas = ||z0||/tau;  D_feas = ||A'y/tau + c|| / (1 + ||c||)."""
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
    p_feas = float(np.linalg.norm(start.z0)) / tau
    d_feas = float(np.linalg.norm(problem.A.T @ y / tau + problem.c)) \
        / (1.0 + float(np.linalg.norm(problem.c)))
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
    unboundedness (eps):     <c,x> <= -1/eps;
    optimal-pair:            all three stop parameters <= eps.
    """
    rep = VerificationReport()
    if cert.kind == "infeasibility":
        aty = problem.A.T @ cert.y
        margins = problem.barrier.margins(cert.y, CONJUGATE)
        ds = support_function(problem, cert.y)
        if cert.strict:
            rep.add("ATy_inf_norm <= 1e-8", float(np.max(np.abs(aty), initial=0.0)) <= 1e-8,
                    float(np.max(np.abs(aty), initial=0.0)))
            rep.add("y in dual cone (margins >= 0)", bool(np.all(margins >= 0.0)),
                    float(np.min(margins)))
            rep.add("support(y) <= -1 + 1e-8", ds <= -1.0 + 1e-8, ds)
        else:
            rep.add("||A'y|| <= eps", float(np.linalg.norm(aty)) <= cert.eps,
                    float(np.linalg.norm(aty)))
            rep.add("y in dual cone (margins >= 0)", bool(np.all(margins >= 0.0)),
                    float(np.min(margins)))
            rep.add("support(y) < 0", ds < 0.0, ds)
    elif cert.kind == "unboundedness":
        cx = float(problem.c @ cert.x)
        rep.add("<c,x> <= -1/eps", cx <= -1.0 / cert.eps, cx)
        if cert.strict:
            margins = problem.barrier.margins(problem.A @ cert.x, PRIMAL)
            rep.add("Ax interior (margins > 0)", bool(np.all(margins > 0.0)),
                    float(np.min(margins)))
    elif cert.kind == "optimal-pair":
        sp = stop_params(problem, start, cert.x, cert.tau, cert.tau * cert.y)
        rep.add("gap <= eps", sp.gap <= cert.eps, sp.gap)
        rep.add("P_feas <= eps", sp.p_feas <= cert.eps, sp.p_feas)
        rep.add("D_feas <= eps", sp.d_feas <= cert.eps, sp.d_feas)
    else:
        rep.add(f"unknown certificate kind {cert.kind}", False, 0.0)
    return rep


def _eps_feasibility_report(problem, start, x, tau, y, eps: float) -> VerificationReport:
    """Checks for the ill-conditioned pair: structural feasibility and
    P_feas, D_feas <= eps."""
    rep = VerificationReport()
    u = shifted_image(problem, start, x, tau)
    margins = problem.barrier.margins(u, PRIMAL)
    rep.add("Ax + z0/tau in domain (margins >= 0)", bool(np.all(margins >= 0.0)),
            float(np.min(margins)))
    dual_margins = problem.barrier.margins(np.asarray(y) / tau, CONJUGATE)
    rep.add("y/tau in dual cone (margins >= 0)", bool(np.all(dual_margins >= 0.0)),
            float(np.min(dual_margins)))
    sp = stop_params(problem, start, x, tau, y)
    rep.add("P_feas <= eps", sp.p_feas <= eps, sp.p_feas)
    rep.add("D_feas <= eps", sp.d_feas <= eps, sp.d_feas)
    return rep


def _base_report(problem, start, point: Iterate, status: str,
                 sp: StopParams) -> StatusReport:
    """Report skeleton; ``sp`` are the point's stop parameters."""
    ds = support_function(problem, point.y)
    return StatusReport(
        status=status,
        x=point.x,
        y_scaled=point.y / point.tau,
        objective_primal=float(problem.c @ point.x),
        objective_estimate=float(-ds / point.tau) if np.isfinite(ds) else None,
        diagnostics={
            "mu": point.mu, "tau": point.tau, "proximity": point.proximity,
            "gap": sp.gap, "p_feas": sp.p_feas, "d_feas": sp.d_feas,
        })


def check_status(problem: Problem, start: StartData, point: Iterate, eps: float,
                 *, sp: StopParams | None = None):
    """Run the termination checks in precedence order; None if none fired.

    ``sp``, if given, are the point's stop parameters, already formed.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    x, tau, y, mu = point.x, point.tau, point.y, point.mu
    if sp is None:
        sp = stop_params(problem, start, x, tau, y)

    if sp.max() <= eps:
        report = _base_report(problem, start, point, EPS_SOLUTION, sp)
        cert = Certificate(kind="optimal-pair", strict=False, eps=eps,
                           x=x, y=y / tau, tau=tau)
        report.certificate = cert
        report.verification = verify_certificate(problem, start, cert)
        return _enforce(report)

    scaled = (tau / mu) * y
    ds_scaled = support_function(problem, scaled)
    if (tau / mu) * float(np.linalg.norm(problem.A.T @ y)) <= eps and ds_scaled < 0.0:
        report = _base_report(problem, start, point, INFEASIBILITY_CERTIFICATE, sp)
        cert = Certificate(kind="infeasibility", strict=False, eps=eps, y=scaled)
        report.certificate = cert
        report.verification = verify_certificate(problem, start, cert)
        return _enforce(report)

    if float(problem.c @ x) <= -1.0 / eps:
        report = _base_report(problem, start, point, UNBOUNDEDNESS_CERTIFICATE, sp)
        cert = Certificate(kind="unboundedness", strict=False, eps=eps, x=x, tau=tau)
        report.certificate = cert
        report.verification = verify_certificate(problem, start, cert)
        return _enforce(report)

    if mu >= 1.0 / (problem.theta * eps**3):
        report = _base_report(problem, start, point, ILL_CONDITIONED, sp)
        report.verification = _eps_feasibility_report(problem, start, x, tau, y, eps)
        return report

    return None


def _enforce(report: StatusReport) -> StatusReport:
    # a report never claims a status its payload fails
    if report.verification is not None and not report.verification.passed:
        return StatusReport(
            status=NUMERICAL_FAILURE,
            x=report.x, y_scaled=report.y_scaled,
            objective_primal=report.objective_primal,
            objective_estimate=report.objective_estimate,
            diagnostics={**report.diagnostics,
                         "reason": "certificate failed verification: "
                                   + ", ".join(report.verification.failed_names())},
            verification=report.verification)
    return report


def numerical_failure_report(problem, start, point: Iterate, exc: Exception) -> StatusReport:
    report = _base_report(problem, start, point, NUMERICAL_FAILURE,
                          stop_params(problem, start, point.x, point.tau, point.y))
    report.diagnostics["reason"] = f"{type(exc).__name__}: {exc}"
    return report


def iteration_limit_report(problem, start, point: Iterate) -> StatusReport:
    report = _base_report(problem, start, point, ITERATION_LIMIT,
                          stop_params(problem, start, point.x, point.tau, point.y))
    report.diagnostics["reason"] = "iteration cap reached before any status fired"
    return report


def _weighted_projection(metric, constraints, rhs, v):
    """argmin (w-v)' H (w-v)  s.t.  constraints' w = rhs  (H = metric)."""
    hinv_c = metric.solve(constraints)
    gram = constraints.T @ hinv_c
    lam = np.linalg.solve(gram, constraints.T @ v - rhs)
    return v - hinv_c @ lam


def strict_infeasibility_certificate(problem: Problem, start: StartData,
                                     point: Iterate) -> Certificate:
    """Project the scaled dual point onto { w : A'w = 0,
    <w, z0> <= -0.9 tau xi theta } in the conjugate local metric; on
    success, rescale so the support function equals exactly -1.

    Raises ProjectionOutsideCone when the projection leaves the dual cone
    (too early on the path) or its support is not negative.
    """
    tau, mu, y = point.tau, point.mu, point.y
    v = (tau / mu) * y
    metric = problem.barrier.hess(v, CONJUGATE)
    bound = -INFEASIBILITY_PROJECTION_FACTOR * tau * problem.xi * problem.theta

    try:
        w = _weighted_projection(metric, problem.A, np.zeros(problem.n), v)
        if float(w @ start.z0) > bound:
            constraints = np.column_stack([problem.A, start.z0])
            rhs = np.concatenate([np.zeros(problem.n), [bound]])
            w = _weighted_projection(metric, constraints, rhs, v)
    except np.linalg.LinAlgError as exc:
        raise ProjectionOutsideCone(f"projection system singular: {exc}") from exc

    margins = problem.barrier.margins(w, CONJUGATE)
    if not np.all(margins > 0.0):
        raise ProjectionOutsideCone(
            f"projection margin {float(np.min(margins)):.3e} is not positive")
    ds = support_function(problem, w)
    if not ds < 0.0:
        raise ProjectionOutsideCone(f"projected support {ds:.3e} is not negative")
    w = w / (-ds)  # support is positively homogeneous, so this pins it at -1
    return Certificate(kind="infeasibility", strict=True, eps=np.nan, y=w)


def strict_unboundedness_certificate(problem: Problem, start: StartData,
                                     point: Iterate, eps: float) -> Certificate:
    """Project the shifted image point onto { A x : <c, x> <= -1/eps } in
    the primal local metric; the result must be strictly interior.

    Active-set on the single inequality: at most two equality-constrained
    solves.  Raises ProjectionOutsideDomain if the projected point is not
    interior.
    """
    x, tau = point.x, point.tau
    u = shifted_image(problem, start, x, tau)
    metric = problem.barrier.hess(u, PRIMAL)
    try:
        gram = problem.A.T @ metric.matvec(problem.A)
        target = problem.A.T @ metric.matvec(u)
        xhat = np.linalg.solve(gram, target)
        if float(problem.c @ xhat) > -1.0 / eps:
            kkt = np.zeros((problem.n + 1, problem.n + 1))
            kkt[:problem.n, :problem.n] = gram
            kkt[:problem.n, problem.n] = problem.c
            kkt[problem.n, :problem.n] = problem.c
            rhs = np.concatenate([target, [-1.0 / eps]])
            xhat = np.linalg.solve(kkt, rhs)[:problem.n]
    except np.linalg.LinAlgError as exc:
        raise ProjectionOutsideDomain(f"projection system singular: {exc}") from exc
    margins = problem.barrier.margins(problem.A @ xhat, PRIMAL)
    if not np.all(margins > 0.0):
        raise ProjectionOutsideDomain(
            f"projected point margin {float(np.min(margins)):.3e} is not positive")
    return Certificate(kind="unboundedness", strict=True, eps=eps, x=xhat)
