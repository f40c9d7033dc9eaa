"""Infeasible-start primal-dual path following.

The central path at parameter mu is the unique solution of

    (a)  u := A x + z0/tau  interior to D,  tau > 0
    (b)  A'y - A'y0 = -(tau - 1) c
    (c)  y = (mu/tau) Phi'(u)
    (d)  <c,x> + <y, u>/tau = -theta*xi*mu/tau^2 - y_tau0/tau

started at (x, tau, y) = (0, 1, y0), which solves the system at mu = 1.
The follower alternates a predictor (increasing mu, staying within
proximity 2*kappa) with a Newton corrector (restoring proximity kappa/2 at
fixed mu), and consults the status engine after every corrector.

The predictor is second-order in s = ln mu once a previous tangent exists:
the secant of the tangents dp/ds at the last two iterates estimates
p''(s), so each iteration still solves for one tangent.  A point on that
curve is accepted at its own path parameter mu_of(point), the one the gap
equation (d) gives, not at a declared one.  The first iteration steps
along the tangent alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barriers import CONJUGATE, PRIMAL
from .errors import (
    CorrectorStall,
    DomainViolation,
    FactorizationFailure,
    PredictorStall,
)
from .model import (
    DUAL_EQ_TOL,
    Iterate,
    Problem,
    StartData,
    dual_residual,
    gap_bounds,
    make_iterate,
    mu_of,
    proximity_at,
    shifted_image,
)
from . import status as status_engine


@dataclass(frozen=True)
class Residuals:
    """Algebraic residuals of the path system at a trial point and mu.

    All three vanish together exactly when the point solves the system at
    that mu (interiority is enforced as a domain condition, not a residual).
    ``u`` is the shifted image they were evaluated at and ``g`` the primal
    barrier gradient there, kept for the Newton step at the same point.
    """

    r_dual: np.ndarray
    r_cent: np.ndarray
    r_gap: float
    u: np.ndarray
    g: np.ndarray

    def scaled_norm(self, problem: Problem, start: StartData, x, tau, y, mu) -> float:
        """Max residual norm, each block scaled by its natural magnitude."""
        tau = float(tau)
        scale_dual = 1.0 + start.aty0_inf(problem) + tau * problem.c_inf
        scale_cent = 1.0 + float(np.max(np.abs(y)))
        scale_gap = (1.0 + abs(float(problem.c @ x)) + abs(float(y @ self.u)) / tau
                     + problem.theta * problem.xi * mu / tau**2 + abs(start.y_tau0) / tau)
        parts = [abs(self.r_gap) / scale_gap, float(np.max(np.abs(self.r_cent))) / scale_cent]
        if problem.n:
            parts.append(float(np.max(np.abs(self.r_dual))) / scale_dual)
        return max(parts)


@dataclass(frozen=True)
class FollowerOptions:
    """Knobs of the predictor-corrector loop."""

    eps: float = 1e-8
    max_iters: int = 500
    predictor_radius: float = 2.0     # in units of kappa
    corrector_target: float = 0.5     # in units of kappa
    boundary_fraction: float = 0.99
    corrector_max_steps: int = 50
    corrector_residual_tol: float = 1e-10
    predictor_trial_factor: float = 1e6   # first trial dmu = this * mu (if no boundary cap)

    def validate(self):
        if not 0.0 < self.corrector_target < 1.0 < self.predictor_radius:
            raise ValueError("need corrector_target < 1 < predictor_radius (kappa units)")
        if not 0.0 < self.boundary_fraction < 1.0:
            raise ValueError("boundary_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class TraceRow:
    iter: int
    mu: float
    tau: float
    gap: float
    p_feas: float
    d_feas: float
    proximity: float


@dataclass
class FollowResult:
    report: "status_engine.StatusReport"
    trace: list
    iterates: list
    invariant_violations: list
    mu_log_slope: float


def _checked_image(problem, start, x, tau):
    """The shifted image at (x, tau); DomainViolation unless tau > 0 and
    the image is interior to D."""
    if not tau > 0.0:
        raise DomainViolation(f"tau must be positive, got {tau}")
    u = shifted_image(problem, start, x, tau)
    if not problem.barrier.interior(u, PRIMAL):
        raise DomainViolation("shifted image point left the domain interior")
    return u


def residuals(problem: Problem, start: StartData, x, tau: float, y, mu: float,
              *, u=None) -> Residuals:
    """Residuals of equations (b), (c), (d) at the given point and mu.

    ``u``, if given, is the shifted image at (x, tau), already verified
    interior to D with tau > 0; otherwise it is formed and checked here.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = float(tau)
    if u is None:
        u = _checked_image(problem, start, x, tau)
    g = problem.barrier.grad(u, PRIMAL)
    r_dual = problem.A.T @ (y - start.y0) + (tau - 1.0) * problem.c
    r_cent = y - (mu / tau) * g
    r_gap = (float(problem.c @ x) + float(y @ u) / tau
             + problem.theta * problem.xi * mu / tau**2 + start.y_tau0 / tau)
    return Residuals(r_dual=r_dual, r_cent=r_cent, r_gap=float(r_gap), u=u, g=g)


def _kkt_solve(problem, start, x, tau, y, mu, u, g, b_dual, b_cent, b_gap):
    """Solve the linearized path system for (dx, dtau, dy) at the point
    with shifted image ``u`` and primal barrier gradient ``g`` there.

    The y block is eliminated through the centering rows (identity in y),
    leaving a dense (n+1) x (n+1) system in (dx, dtau).
    """
    A = problem.A
    H = problem.barrier.hess(u, PRIMAL)
    s = mu / tau
    HA = H.matvec(A)
    Hz0 = H.matvec(start.z0)
    Hu = H.matvec(u)
    p_vec = (mu / tau**2) * g + (mu / tau**3) * Hz0

    n = problem.n
    M = np.zeros((n + 1, n + 1))
    rhs = np.zeros(n + 1)
    M[:n, :n] = s * (A.T @ HA)
    M[:n, n] = problem.c - A.T @ p_vec
    M[n, :n] = problem.c + (A.T @ y) / tau + (s / tau) * (A.T @ Hu)
    g_tau = (-(float(y @ (A @ x))) / tau**2 - 2.0 * float(y @ start.z0) / tau**3
             - 2.0 * problem.theta * problem.xi * mu / tau**3 - start.y_tau0 / tau**2)
    M[n, n] = g_tau - float(u @ p_vec) / tau
    rhs[:n] = b_dual - A.T @ b_cent
    rhs[n] = b_gap - float(u @ b_cent) / tau
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure("reduced path system is singular") from exc
    dx, dtau = sol[:n], float(sol[n])
    dy = b_cent + s * (HA @ dx) - p_vec * dtau
    return dx, dtau, dy


def _interior_after(problem, start, x, tau, y):
    """The shifted image at a trial point if tau > 0, it is interior to D
    and y is interior to D*; None otherwise."""
    if not tau > 0.0:
        return None
    u = shifted_image(problem, start, x, tau)
    if problem.barrier.interior(u, PRIMAL) and problem.barrier.interior(y, CONJUGATE):
        return u
    return None


def _restore_dual_equality(problem, start, x, tau, y):
    """Project y back onto the dual linear equation (minimal-norm change).

    Newton steps satisfy the equation to solve accuracy; this keeps the
    accumulated float drift at the round-off of A'y itself.
    """
    if problem.n == 0:
        return y
    rhs = problem.A.T @ (start.y0 - y) - (tau - 1.0) * problem.c
    try:
        corr = np.linalg.solve(problem.gram, rhs)
    except np.linalg.LinAlgError:
        return y
    return y + problem.A @ corr


def corrector_step(problem: Problem, start: StartData, point: Iterate, mu: float,
                   options: FollowerOptions = FollowerOptions()) -> Iterate:
    """Damped Newton steps at fixed mu until the point is within
    kappa * corrector_target of the path (residuals polished further while
    they keep improving).

    Raises CorrectorStall if the proximity target is not met within
    ``corrector_max_steps`` steps.
    """
    kappa = problem.kappa
    target = options.corrector_target * kappa
    x, tau, y = point.x.copy(), point.tau, point.y.copy()
    # shifted image at (x, tau), checked here and then by each step's
    # fraction-to-boundary search
    u = _checked_image(problem, start, x, tau)
    last_res = np.inf
    for _ in range(options.corrector_max_steps):
        y = _restore_dual_equality(problem, start, x, tau, y)
        prox = proximity_at(problem, start, x, tau, y, mu, u=u)
        res = residuals(problem, start, x, tau, y, mu, u=u)
        rnorm = res.scaled_norm(problem, start, x, tau, y, mu)
        if prox <= target and (rnorm <= options.corrector_residual_tol
                               or rnorm >= 0.9 * last_res):
            break
        last_res = rnorm
        dx, dtau, dy = _kkt_solve(problem, start, x, tau, y, mu, u, res.g,
                                  -res.r_dual, -res.r_cent, -res.r_gap)
        # fraction-to-boundary step: tau positivity and dual-cone motion are
        # exact; the shifted image moves nonlinearly in tau, so its linear
        # estimate is safeguarded by halving below
        alpha = 1.0
        if dtau < 0.0:
            alpha = min(alpha, options.boundary_fraction * tau / (-dtau))
        alpha = min(alpha, options.boundary_fraction
                    * problem.barrier.step_to_boundary(y, dy, CONJUGATE))
        du_lin = problem.A @ dx - start.z0 * (dtau / tau**2)
        alpha = min(alpha, options.boundary_fraction
                    * problem.barrier.step_to_boundary(u, du_lin, PRIMAL))
        u = None
        while alpha > 1e-18:
            xn, taun, yn = x + alpha * dx, tau + alpha * dtau, y + alpha * dy
            u = _interior_after(problem, start, xn, taun, yn)
            if u is not None:
                break
            alpha *= 0.5
        if u is None:
            raise CorrectorStall("step length underflow while correcting")
        x, tau, y = xn, taun, yn
    else:
        raise CorrectorStall(
            f"proximity {prox:.3e} above target {target:.3e} after "
            f"{options.corrector_max_steps} Newton steps")
    return make_iterate(problem, start, x, tau, y, u=u)


def predictor_step(problem: Problem, start: StartData, point: Iterate,
                   options: FollowerOptions = FollowerOptions(), *, memo=None):
    """Advance along the path as far as the outer neighborhood allows;
    returns (predicted point, new mu).

    The tangent dp/dmu solves the mu-derivative of the path system.  Its
    first trial increase dmu is the fraction-to-boundary cap along it, and
    the trials halve dmu until one is accepted.

    ``memo``, if given, carries the tangent from call to call: the step
    reads the previous (s, dp/ds) from ``memo["tangent"]`` and stores its
    own, with s = ln mu and dp/ds = mu * t.  With a previous tangent the
    trial points lie on the second-order curve in s,

        p + ds * mu*t + ds^2/2 * (mu*t - mu_prev*t_prev) / (s - s_prev),

    with ds = log1p(dmu/mu), and a trial is accepted at its own path
    parameter mu_of(point) if that exceeds mu and proximity there is within
    predictor_radius * kappa.  Without one (the first iteration), the trial
    points are p + dmu * t, accepted at the declared mu + dmu.  Every
    tangent satisfies A'ty + ttau c = 0, so both motions keep the dual
    linear equation.

    Raises PredictorStall when no relative increase of at least 1e-12
    is acceptable.
    """
    mu = point.mu
    x, tau, y = point.x, point.tau, point.y
    u = shifted_image(problem, start, x, tau)
    g = problem.barrier.grad(u, PRIMAL)
    tx, ttau, ty = _kkt_solve(problem, start, x, tau, y, mu, u, g,
                              np.zeros(problem.n), g / tau,
                              -problem.theta * problem.xi / tau**2)

    dmu = options.predictor_trial_factor * mu
    if ttau < 0.0:
        dmu = min(dmu, options.boundary_fraction * tau / (-ttau))
    dmu = min(dmu, options.boundary_fraction
              * problem.barrier.step_to_boundary(y, ty, CONJUGATE))
    du_lin = problem.A @ tx - start.z0 * (ttau / tau**2)
    dmu = min(dmu, options.boundary_fraction
              * problem.barrier.step_to_boundary(u, du_lin, PRIMAL))

    # the second-order curve in s = ln mu acts on the stacked (x, tau, y)
    n = problem.n
    prev = None
    if memo is not None:
        prev = memo.get("tangent")
        s, vel = float(np.log(mu)), mu * np.concatenate([tx, [ttau], ty])
        memo["tangent"] = (s, vel)
        if prev is not None:
            p = np.concatenate([x, [tau], y])
            acc = (vel - prev[1]) / (s - prev[0])

    radius = options.predictor_radius * problem.kappa
    while dmu > 1e-12 * mu:
        if prev is None:
            xn, taun, yn = x + dmu * tx, tau + dmu * ttau, y + dmu * ty
            mun = mu + dmu
        else:
            ds = float(np.log1p(dmu / mu))
            pn = p + ds * vel + (0.5 * ds * ds) * acc
            xn, taun, yn = pn[:n], float(pn[n]), pn[n + 1:]
        un = _interior_after(problem, start, xn, taun, yn)
        if un is not None:
            if prev is not None:
                mun = mu_of(problem, start, xn, taun, yn)
            prox = np.inf
            if mun > mu:
                try:
                    prox = proximity_at(problem, start, xn, taun, yn, mun, u=un)
                except DomainViolation:
                    pass
            if prox <= radius:
                return Iterate(x=xn, tau=taun, y=yn, mu=mun, proximity=prox), mun
        dmu *= 0.5
    raise PredictorStall(f"could not advance the path parameter beyond {mu:.6e}")


def _check_invariants(problem, start, it: Iterate, violations: list):
    """Per-iterate runtime assertions: membership, proximity, gap sandwich,
    the tau floor, and the weak-detector inequality."""
    slack = 1e-8
    tol = DUAL_EQ_TOL * (1.0 + float(np.linalg.norm(problem.c)))
    if not it.tau > 0.0:
        violations.append(f"tau not positive at mu={it.mu:.3e}")
    u = shifted_image(problem, start, it.x, it.tau)
    if not problem.barrier.interior(u, PRIMAL) or not problem.barrier.interior(it.y, CONJUGATE):
        violations.append(f"interiority lost at mu={it.mu:.3e}")
    if dual_residual(problem, start, it.x, it.tau, it.y) > tol:
        violations.append(f"dual equality residual above tolerance at mu={it.mu:.3e}")
    if not it.proximity <= problem.kappa:
        violations.append(f"proximity {it.proximity:.3e} above kappa at mu={it.mu:.3e}")
    gb = gap_bounds(problem, start, it.x, it.tau, it.y, it.mu)
    if np.isfinite(gb.actual):
        if not (gb.lower - slack <= gb.actual <= gb.upper + slack):
            violations.append(
                f"gap sandwich violated at mu={it.mu:.3e}: "
                f"{gb.lower:.6e} <= {gb.actual:.6e} <= {gb.upper:.6e}")
        # same bound rearranged as the weak-detector trigger
        th = problem.theta
        weak_rhs = (-start.y_tau0 / it.tau
                    - ((problem.xi - 1.0) - problem.kappa / np.sqrt(th)) * it.mu * th / it.tau**2)
        if not gb.actual <= weak_rhs + slack:
            violations.append(f"weak-detector inequality violated at mu={it.mu:.3e}")
    if it.mu >= 1.0:
        tau_floor = (problem.xi - 1.0 - problem.kappa) / (2.0 * problem.xi)
        if not it.tau >= tau_floor - slack:
            violations.append(
                f"tau {it.tau:.6e} below floor {tau_floor:.6e} at mu={it.mu:.3e}")


def follow(problem: Problem, start: StartData, options: FollowerOptions = FollowerOptions(),
           on_iterate=None) -> FollowResult:
    """Run the predictor-corrector loop from the mu = 1 point.

    After every corrector the status checks run in their precedence order;
    the loop stops at the first triggered status, the mu cap, or the
    iteration cap.  ``on_iterate`` (if given) receives each TraceRow.

    Returns the full trace; numerical trouble is reported as a
    NumericalFailure status rather than an exception.
    """
    options.validate()
    point = make_iterate(problem, start, np.zeros(problem.n), 1.0, start.y0)
    trace: list = []
    iterates: list = []
    violations: list = []

    def record(it: Iterate):
        """Trace, check and emit the iterate; returns its stop parameters."""
        sp = status_engine.stop_params(problem, start, it.x, it.tau, it.y)
        row = TraceRow(iter=len(trace), mu=it.mu, tau=it.tau, gap=sp.gap,
                       p_feas=sp.p_feas, d_feas=sp.d_feas, proximity=it.proximity)
        trace.append(row)
        iterates.append(it)
        _check_invariants(problem, start, it, violations)
        if on_iterate is not None:
            on_iterate(row)
        return sp

    def slope() -> float:
        if len(trace) < 2:
            return 0.0
        ks = np.arange(len(trace), dtype=float)
        logmu = np.log([r.mu for r in trace])
        return float(np.polyfit(ks, logmu, 1)[0])

    def finish(report):
        log_slope = slope()
        report.diagnostics.update(
            iterations=len(trace) - 1, mu_log_slope=log_slope,
            invariant_violations=len(violations))
        return FollowResult(report=report, trace=trace, iterates=iterates,
                            invariant_violations=violations, mu_log_slope=log_slope)

    # the initial point is recorded but not status-checked: checks run
    # after correctors only (the anchor can satisfy a stop test by
    # construction, e.g. when A'y0 happens to vanish)
    record(point)

    memo: dict = {}  # the last tangent, for the second-order predictor
    for _ in range(options.max_iters):
        try:
            predicted, mu_new = predictor_step(problem, start, point, options, memo=memo)
            point = corrector_step(problem, start, predicted, mu_new, options)
        except (PredictorStall, CorrectorStall, DomainViolation, FactorizationFailure) as exc:
            report = status_engine.numerical_failure_report(problem, start, point, exc)
            return finish(report)
        sp = record(point)
        report = status_engine.check_status(problem, start, point, options.eps, sp=sp)
        if report is not None:
            return finish(report)
    report = status_engine.iteration_limit_report(problem, start, point)
    return finish(report)
