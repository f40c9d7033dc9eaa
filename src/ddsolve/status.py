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
NumericalFailure and IterationLimit reports.  Those entry points also
take the run so far, its recorded iterates (the last is the point
reported on) and invariant violations: a report is built once, run facts
included, and nothing writes into it afterwards.

Certificate verification never consults solver state: it re-evaluates
memberships, margins and support functions from the problem data alone,
including tau > 0 and A x + z0/tau in D for every point reported with its
tau.  A malformed certificate fails the checks it cannot back instead of
raising or warning.
"""

from __future__ import annotations

import contextlib
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .barriers import CONJUGATE, PRIMAL, _norm, _safe_norm
from .errors import ProjectionOutsideCone, ProjectionOutsideDomain
from .model import (
    Iterate,
    Problem,
    StartData,
    _scale_dual,
    positive_tau,
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
    """Scaled duality gap and primal/dual feasibility measures, with the
    <c, x>, support(y), objective gap <c, x> + support(y)/tau (+inf off D*,
    bracketed by ``model.gap_bounds``) and A'y they are formed from."""

    gap: float
    p_feas: float
    d_feas: float
    cx: float = np.nan
    support: float = np.nan
    objective_gap: float = np.nan
    aty: np.ndarray | None = field(default=None, compare=False)

    def max(self) -> float:
        return max(self.gap, self.p_feas, self.d_feas)


def stop_params(problem: Problem, start: StartData, x, tau: float, y) -> StopParams:
    """The one owner of the objective gap g = <c,x> + support(y)/tau, and
    gap = |g| / (1 + |<c,x>| + |support(y)/tau|), 1 when the support is +inf;
    P_feas = ||z0||/tau;  D_feas = ||A'y/tau + c|| / (1 + ||c||).
    Raises DomainViolation unless tau > 0, as :func:`gap_bounds` does."""
    tau = positive_tau(tau)
    cx = float(problem.c @ x)
    ds = support_function(problem, y)
    dst = ds / tau
    objective_gap = cx + dst
    gap = 1.0 if np.isinf(ds) else abs(objective_gap) / (1.0 + abs(cx) + abs(dst))
    p_feas = start.z0_norm / tau
    aty = problem.A.T @ y
    d_feas = _safe_norm(aty / tau + problem.c) / (1.0 + problem.c_norm)
    return StopParams(gap=float(gap), p_feas=p_feas, d_feas=d_feas, cx=cx, support=ds,
                      objective_gap=objective_gap, aty=aty)


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


@dataclass(frozen=True)
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

    A malformed certificate fails instead of raising or warning.  Its one
    input rule (:func:`_real`, :func:`_vector`): eps and tau are each one
    finite real number, x is n finite reals and y is m, or the field is
    missing, so a non-finite field is a missing one.  Without tau > 0, or
    without the x or y a check needs, that check fails unformed, with a
    NaN value.  So does a check whose value cannot be formed: every value
    is formed under one float policy (:func:`_formed`), and one whose
    forming overflows, divides by zero or meets an invalid value is NaN,
    as a cone tail past about 1.3e154 overflows the margin's norm.  An eps
    outside (0, 1), or missing, fails every check that compares with it,
    keeping the check's value.
    """
    rep = VerificationReport()
    # NaN fails every comparison
    eps, tau = _real(cert.eps), _real(cert.tau)
    eps = eps if 0.0 < eps < 1.0 else np.nan
    x, y = _vector(cert.x, problem.n), _vector(cert.y, problem.m)
    if cert.kind == "infeasibility":
        margin = _formed(problem.barrier.min_margin, y, CONJUGATE)
        ds = _formed(support_function, problem, y)
        if cert.strict:
            aty_inf = _formed(lambda y: float(np.max(np.abs(problem.A.T @ y), initial=0.0)), y)
            rep.add("ATy_inf_norm <= 1e-8", aty_inf <= 1e-8, aty_inf)
            rep.add("y in dual cone (margins >= 0)", margin >= 0.0, margin)
            rep.add("support(y) <= -1 + 1e-8", ds <= -1.0 + 1e-8, ds)
        else:
            aty_norm = _formed(lambda y: _safe_norm(problem.A.T @ y), y)
            rep.add("||A'y|| <= eps", aty_norm <= eps, aty_norm)
            rep.add("y in dual cone (margins >= 0)", margin >= 0.0, margin)
            rep.add("support(y) < 0", ds < 0.0, ds)
    elif cert.kind == "unboundedness":
        cx = _formed(lambda x: float(problem.c @ x), x)
        rep.add("<c,x> <= -1/eps", cx <= -1.0 / eps, cx)
        if cert.strict:
            margin = _formed(lambda x: problem.barrier.min_margin(problem.A @ x, PRIMAL), x)
            rep.add("Ax interior (margins > 0)", margin > 0.0, margin)
        else:
            _add_image_check(rep, problem, start, x, tau)
    elif cert.kind == "optimal-pair":
        formed = _add_image_check(rep, problem, start, x, tau)
        sp = _formed(lambda y: stop_params(problem, start, x, tau, tau * y),
                     y if formed else None, unformed=StopParams(np.nan, np.nan, np.nan))
        rep.add("gap <= eps", sp.gap <= eps, sp.gap)
        rep.add("P_feas <= eps", sp.p_feas <= eps, sp.p_feas)
        rep.add("D_feas <= eps", sp.d_feas <= eps, sp.d_feas)
    else:
        rep.add(f"unknown certificate kind {cert.kind}", False, 0.0)
    return rep


def _real(value) -> float:
    """``value`` as a float if it is a real number a float holds finitely,
    else NaN, the missing field: None, text, +-inf, NaN and an int past
    float range alike (compared exactly: float() would raise)."""
    return (float(value) if isinstance(value, numbers.Real)
            and abs(value) <= sys.float_info.max else np.nan)


def _vector(value, size: int):
    """``value`` as a float array if it is ``size`` finite real numbers,
    else None, the missing field: a non-finite entry too."""
    with contextlib.suppress(ValueError):   # np.asarray refuses a ragged list
        if ((array := np.asarray(value)).shape == (size,) and array.dtype.kind in "biuf"
                and np.isfinite(array).all()):
            return array.astype(float, copy=False)
    return None


def _formed(value, *args, unformed=np.nan):
    """``value(*args)`` under the certificate checks' one float policy:
    ``unformed``, so that its checks fail, where an argument is missing
    (None) or where forming it overflows, divides by zero or meets an
    invalid value (inf - inf, 0 * inf)."""
    if any(arg is None for arg in args):
        return unformed
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return value(*args)
    except FloatingPointError:
        return unformed


def _add_image_check(rep: VerificationReport, problem, start, x, tau: float) -> bool:
    """tau > 0 and A x + z0/tau in D (margins >= 0), for a point reported
    with its tau: a negative tau flips the sign of P_feas and of z0/tau.
    Returns whether the image is formed: only from a finite x and a finite
    tau > 0, which a missing field is not, and only where forming it does
    not overflow, as z0/tau does for a tiny tau; otherwise its check fails
    with a NaN margin, as it does when the margin itself is not formed."""
    positive = tau > 0.0
    rep.add("tau > 0", positive, tau)
    u = _formed(shifted_image, problem, start, x if positive else None, tau, unformed=None)
    margin = _formed(problem.barrier.min_margin, u, PRIMAL)
    rep.add("Ax + z0/tau in domain (margins >= 0)", margin >= 0.0, margin)
    return u is not None


def _eps_feasibility_report(problem, start, point: Iterate, sp: StopParams,
                            eps: float) -> VerificationReport:
    """Checks for the ill-conditioned pair: structural feasibility and
    P_feas, D_feas <= eps, read from the point's stop parameters ``sp``."""
    rep = VerificationReport()
    _add_image_check(rep, problem, start, point.x, point.tau)
    dual_margin = _formed(lambda: problem.barrier.min_margin(point.y / point.tau, CONJUGATE))
    rep.add("y/tau in dual cone (margins >= 0)", dual_margin >= 0.0, dual_margin)
    rep.add("P_feas <= eps", sp.p_feas <= eps, sp.p_feas)
    rep.add("D_feas <= eps", sp.d_feas <= eps, sp.d_feas)
    return rep


def _report(iterates: list, violations: list, status: str, sp: StopParams, *,
            verification=None, certificate=None, reason=None) -> StatusReport:
    """The finished report of ``status`` at the last of the run's
    ``iterates``, whose stop parameters ``sp`` give its objectives; a
    failure ``reason`` and then the run's facts close the diagnostics."""
    point = iterates[-1]
    return StatusReport(
        status=status,
        x=point.x,
        y_scaled=point.y / point.tau,
        certificate=certificate,
        objective_primal=sp.cx,
        objective_estimate=float(-sp.support / point.tau) if np.isfinite(sp.support) else None,
        verification=verification,
        diagnostics={
            "mu": point.mu, "tau": point.tau, "proximity": point.proximity,
            "gap": sp.gap, "p_feas": sp.p_feas, "d_feas": sp.d_feas,
            **({} if reason is None else {"reason": reason}),
            "iterations": len(iterates) - 1,
            "mu_log_slope": 0.0 if len(iterates) < 2 else float(np.polyfit(
                np.arange(len(iterates), dtype=float), np.log([it.mu for it in iterates]), 1)[0]),
            "invariant_violations": len(violations),
        })


def require_eps(eps: float) -> None:
    """ValueError unless the accuracy target lies in (0, 1); NaN does not."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def check_status(problem: Problem, start: StartData, iterates: list, violations: list,
                 eps: float, *, sp: StopParams):
    """Run the termination checks in precedence order on the last of the
    run's recorded ``iterates``, whose stop parameters ``sp`` also give its
    A'y and <c, x>; None if none fired, else the report, counting the run's
    ``violations``.

    A certificate status is reported with its certificate re-verified from
    the problem data, and never with a payload that fails: then the report
    is a NumericalFailure without the certificate, keeping the verification
    that failed.  Raises the model's DomainViolation unless the iterate's
    mu > 0.
    """
    require_eps(eps)
    point = iterates[-1]
    x, tau, y, mu = point.x, point.tau, point.y, point.mu
    scaled = _scale_dual(tau, y, mu)   # the model's mu > 0 check
    if sp.max() <= eps:
        status = EPS_SOLUTION
        cert = Certificate(kind="optimal-pair", strict=False, eps=eps, x=x, y=y / tau, tau=tau)
    # the support of the scaled dual is formed only where the cheap norm
    # test passes
    elif (tau / mu) * _norm(sp.aty) <= eps and support_function(problem, scaled) < 0.0:
        status = INFEASIBILITY_CERTIFICATE
        cert = Certificate(kind="infeasibility", strict=False, eps=eps, y=scaled)
    elif sp.cx <= -1.0 / eps:
        status = UNBOUNDEDNESS_CERTIFICATE
        cert = Certificate(kind="unboundedness", strict=False, eps=eps, x=x, tau=tau)
    # below eps ~ 1e-108, theta eps^3 underflows to 0.0: the cap is +inf
    elif (cap_scale := problem.theta * eps**3) > 0.0 and mu >= 1.0 / cap_scale:
        return _report(iterates, violations, ILL_CONDITIONED, sp,
                       verification=_eps_feasibility_report(problem, start, point, sp, eps))
    else:
        return None
    verification = verify_certificate(problem, start, cert)
    if verification.passed:
        return _report(iterates, violations, status, sp, verification=verification,
                       certificate=cert)
    return _report(iterates, violations, NUMERICAL_FAILURE, sp, verification=verification,
                   reason="certificate failed verification: "
                   + ", ".join(verification.failed_names()))


def numerical_failure_report(iterates: list, violations: list, sp: StopParams,
                             exc: Exception) -> StatusReport:
    """The report on the last recorded iterate, from its stop parameters ``sp``."""
    return _report(iterates, violations, NUMERICAL_FAILURE, sp,
                   reason=f"{type(exc).__name__}: {exc}")


def iteration_limit_report(iterates: list, violations: list, sp: StopParams) -> StatusReport:
    """The report on the last recorded iterate, from its stop parameters ``sp``."""
    return _report(iterates, violations, ITERATION_LIMIT, sp,
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
    (too early on the path) or its support is not negative, and
    DomainViolation unless the point's mu > 0.
    """
    v = _scale_dual(point.tau, point.y, point.mu)
    metric = problem.barrier.hess(v, CONJUGATE)
    bound = -INFEASIBILITY_PROJECTION_FACTOR * point.tau * problem.xi * problem.theta

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
    ProjectionOutsideDomain if the projection overflows or its point is
    not interior, and ValueError, before any work, unless eps is in (0, 1).
    """
    require_eps(eps)
    x, tau = point.x, point.tau
    u = shifted_image(problem, start, x, tau)
    metric = problem.barrier.hess(u, PRIMAL)
    try:
        # in x-space the metric is A'HA, and the unconstrained projection
        # is the least-squares fit of A x to u
        with np.errstate(over="raise"):
            normal = problem.A.T @ metric.matvec(problem.A)
            xhat = np.linalg.solve(normal, problem.A.T @ metric.matvec(u))
            if float(problem.c @ xhat) > -1.0 / eps:
                xhat = _weighted_projection(lambda b: np.linalg.solve(normal, b),
                                            problem.c[:, None], np.array([-1.0 / eps]), xhat)
    except np.linalg.LinAlgError as exc:
        raise ProjectionOutsideDomain(f"projection system singular: {exc}") from exc
    except FloatingPointError as exc:
        raise ProjectionOutsideDomain(f"projection overflowed: {exc}") from exc
    margin = problem.barrier.min_margin(problem.A @ xhat, PRIMAL)
    if not margin > 0.0:
        raise ProjectionOutsideDomain(f"projected point margin {margin:.3e} is not positive")
    return Certificate(kind="unboundedness", strict=True, eps=eps, x=xhat)
