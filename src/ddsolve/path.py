"""Infeasible-start primal-dual path following.

The central path at parameter mu is the unique solution of

    (a)  u := A x + z0/tau  interior to D,  tau > 0
    (b)  A'y - A'y0 = -(tau - 1) c
    (c)  y = (mu/tau) Phi'(u)
    (d)  <c,x> + <y, u>/tau = -theta*xi*mu/tau^2 - y_tau0/tau

started at (x, tau, y) = (0, 1, y0), which solves the system at mu = 1.
Equation (b)'s residual and tolerance are model.py's, formed there only.
The follower alternates a predictor (increasing mu, staying within
proximity PREDICTOR_RADIUS * kappa = 2 kappa) with a Newton corrector
(steps at fixed mu until the proximity at the point's own mu is within
CORRECTOR_TARGET * kappa = kappa/2, stalling where the point
CORRECTOR_MAX_STEPS steps in is not), and consults the status engine
after every corrector.  Both neighbourhoods are constants of the
complexity analysis.

The predictor is second-order in s = ln mu once a previous tangent exists:
the secant of the tangents dp/ds at the last two iterates estimates
p''(s), so each iteration still solves for one tangent.  A point on that
curve is accepted at its own path parameter mu_of(point), the one the gap
equation (d) gives, not at a declared one.  The first iteration steps
along the tangent alone.

Each point the steps work at is formed once, by :func:`_evaluate`, into a
private _Point: the shifted image u, the primal barrier gradient and
metric there, and y restored to equation (b), with (tau/mu) y checked in
D*.  Residuals, KKT solves and step bounds read it; a predictor trial's u
is formed once, by :func:`member_image`, and every proximity is a
:func:`proximity_at` call on such a u.  An accepted trial carries the mu
it reached and the corrector's first point, evaluated on its u.  The
mu = 1 anchor, formed by ``follow`` at its own mu, and each corrector's
last point are put at their own mu by one step and keep their evaluation,
which ``follow`` hands, with the last tangent, to the next predictor.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .barriers import CONJUGATE, PRIMAL
from .errors import (CorrectorStall, DomainViolation, FactorizationFailure, PredictorStall,
                     SolverError)
from .model import (
    Iterate,
    Problem,
    StartData,
    dual_equation_residual,
    dual_residual,
    gap_bounds,
    member_image,
    mu_of,
    proximity_at,
    scaled_dual,
    shifted_image,
)
from . import status as status_engine


@dataclass(frozen=True)
class Residuals:
    """Algebraic residuals of the path system at a point and its mu, and
    their max norm with each block scaled by its natural magnitude there.

    All three vanish together exactly when the point solves the system at
    that mu (interiority is enforced as a domain condition, not a residual).
    """

    r_dual: np.ndarray
    r_cent: np.ndarray
    r_gap: float
    scaled_norm: float


@dataclass(frozen=True)
class _Point(Iterate):
    """An iterate with the evaluation formed at it once: the shifted image
    u = A x + z0/tau, checked interior to D with tau > 0, and the primal
    barrier gradient g and metric H at u.  ``mu`` is the parameter it is
    evaluated at, where v = (tau/mu) y is checked interior to D* but not
    kept, and its own once :func:`_at_own_mu` sets it and ``proximity``,
    NaN before.
    """

    u: np.ndarray
    g: np.ndarray
    H: object


@dataclass(frozen=True)
class _Accepted(Iterate):
    """A predictor's accepted trial with the corrector's first Newton point."""

    newton: _Point


PREDICTOR_RADIUS = 2.0     # in units of kappa
CORRECTOR_TARGET = 0.5     # in units of kappa
BOUNDARY_FRACTION = 0.99
CORRECTOR_MAX_STEPS = 50
CORRECTOR_RESIDUAL_TOL = 1e-10
PREDICTOR_TRIAL_FACTOR = 1e6   # first trial dmu = this * mu (if no boundary cap)


@dataclass(frozen=True)
class FollowerOptions:
    """What a caller sets: the accuracy target and the iteration cap."""

    eps: float = 1e-8
    max_iters: int = 500


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


def _evaluate(problem, start, x, tau, y, mu, *, u=None) -> _Point:
    """The follower point (x, tau, y) at ``mu``: u (unless given), g and H
    at u from one pass over the barrier groups, y restored to the dual
    linear equation, and v = (tau/mu) y on the restored y checked by
    :func:`scaled_dual` and dropped, the point's one cheap dual check.

    Raises DomainViolation unless tau > 0, u is interior to D, mu > 0 and v
    is interior to D*, in that order; FactorizationFailure if H is not
    positive and finite.
    """
    u = shifted_image(problem, start, x, tau) if u is None else u
    try:
        g, H = problem.barrier.grad_hess(u, PRIMAL)
    except DomainViolation as exc:
        raise DomainViolation("shifted image point left the domain interior") from exc
    y = _restore_dual_equality(problem, start, tau, y)
    scaled_dual(problem, tau, y, mu)
    return _Point(x=x, tau=tau, y=y, mu=mu, proximity=np.nan, u=u, g=g, H=H)


def residuals(problem: Problem, start: StartData, point: _Point) -> Residuals:
    """Residuals of equations (b), (c), (d) at a follower point and its mu,
    read from the evaluation it carries, and their scaled norm, the gap
    block scaled with <c, x> and <y, u>."""
    x, tau, y, mu = point.x, point.tau, point.y, point.mu
    r_dual = dual_equation_residual(problem, start, tau, y)
    r_cent = y - (mu / tau) * point.g
    cx, yu = float(problem.c @ x), float(y @ point.u)
    r_gap = float(cx + yu / tau + problem.theta * problem.xi * mu / tau**2 + start.y_tau0 / tau)
    scale_dual = 1.0 + start.aty0_inf + tau * problem.c_inf
    scale_cent = 1.0 + float(np.abs(y).max())
    scale_gap = (1.0 + abs(cx) + abs(yu) / tau
                 + problem.theta * problem.xi * mu / tau**2 + abs(start.y_tau0) / tau)
    scaled_norm = max(abs(r_gap) / scale_gap, float(np.abs(r_cent).max()) / scale_cent,
                      float(np.abs(r_dual).max(initial=0.0)) / scale_dual)
    return Residuals(r_dual, r_cent, r_gap, scaled_norm)


def _kkt_solve(problem, start, point: _Point, b_dual, b_cent, b_gap):
    """Solve the linearized path system for (dx, dtau, dy) at an evaluated
    point and its mu.  Its metric H is applied once, to [A | z0 | u].  The
    y block is eliminated through the centering rows (identity in y),
    leaving a dense (n+1) x (n+1) system in (dx, dtau).
    """
    A = problem.A
    n = problem.n
    x, tau, y, mu, u = point.x, point.tau, point.y, point.mu, point.u
    s = mu / tau
    HB = point.H.matvec(np.concatenate((A, start.z0[:, None], u[:, None]), axis=1))
    HA, Hz0, Hu = HB[:, :n], HB[:, n], HB[:, n + 1]
    p_vec = (mu / tau**2) * point.g + (mu / tau**3) * Hz0

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


def _step_bound(problem, start, point: _Point, dx, dtau, dy, cap):
    """Fraction-to-boundary bound, at most ``cap``, on the step length along
    (dx, dtau, dy) from an evaluated point.

    Tau positivity and dual-cone motion are exact; the shifted image moves
    nonlinearly in tau, so its bound holds for the linearized motion
    A dx - z0 dtau/tau^2 only, and callers check the trial point itself.
    """
    tau = point.tau
    if dtau < 0.0:
        cap = min(cap, BOUNDARY_FRACTION * tau / (-dtau))
    cap = min(cap, BOUNDARY_FRACTION * problem.barrier.step_to_boundary(point.y, dy, CONJUGATE))
    du_lin = problem.A @ dx - start.z0 * (dtau / tau**2)
    return min(cap, BOUNDARY_FRACTION * problem.barrier.step_to_boundary(point.u, du_lin, PRIMAL))


def _restore_dual_equality(problem, start, tau, y):
    """Project y back onto the dual linear equation: subtract Q (R^-T r),
    the minimal-norm solution of A'dy = r for r the equation's residual at
    y, from the problem's one QR factorization of A (full column rank,
    checked by validate_problem).  Newton steps satisfy the equation to
    solve accuracy; this keeps the float drift at the round-off of A'y.
    """
    Q, r_inv_t = problem.qr_factors
    return y - Q @ (r_inv_t @ dual_equation_residual(problem, start, tau, y))


def corrector_step(problem: Problem, start: StartData, point: _Point) -> _Point:
    """Damped Newton steps at fixed mu, ``point.mu``, from a follower point
    :func:`_evaluate` formed at that mu, until the point, at its own mu, is
    within CORRECTOR_TARGET * kappa of the path and its scaled residual has
    settled: at most CORRECTOR_RESIDUAL_TOL, or no longer falling below 0.9
    times the previous step's.

    Each Newton point, the start and each accepted trial, is formed once
    by :func:`_evaluate`, the start by the :func:`predictor_step` that
    accepted its trial, and tested by the exit rule; a step is taken only
    from a point that failed it.  Only where the residual has settled,
    since only there can the corrector stop, is the point put at its own
    path parameter by :func:`_at_own_mu`; the exit test reads the
    proximity there, the value the follower records, +inf where it raises
    DomainViolation.

    Each step tries the full Newton step first.  Only when that trial is
    rejected is the fraction-to-boundary bound formed, and the step length
    halves from the smaller of that bound and 1/2 until a trial is
    accepted.

    Returns the last Newton point at its own path parameter, as the exit
    test formed it; it keeps the point's primal evaluation, which
    :func:`predictor_step` reads.

    Raises CorrectorStall where the point CORRECTOR_MAX_STEPS steps in
    fails the exit test; its message names the clause that failed: the
    proximity at its own mu above the target, or the scaled residual still
    falling from the previous point's.  Raises FactorizationFailure at a
    singular reduced path system or a trial metric not positive and finite.
    """
    target = CORRECTOR_TARGET * problem.kappa
    last_res = np.inf
    for k in range(CORRECTOR_MAX_STEPS + 1):
        res = residuals(problem, start, point)
        rnorm = res.scaled_norm
        settled = rnorm <= CORRECTOR_RESIDUAL_TOL or rnorm >= 0.9 * last_res
        if settled:
            try:
                own = _at_own_mu(problem, start, point)
            except DomainViolation:   # v outside D*, or mu not positive, at its own mu
                own = replace(point, proximity=np.inf)
            if own.proximity <= target:
                return own
        if k == CORRECTOR_MAX_STEPS:
            failed = (f"proximity {own.proximity:.3e} above target {target:.3e}" if settled
                      else f"scaled residual {rnorm:.3e} still falling from {last_res:.3e}")
            raise CorrectorStall(f"{failed} after {k} Newton steps")
        last_res = rnorm
        dx, dtau, dy = _kkt_solve(problem, start, point, -res.r_dual, -res.r_cent, -res.r_gap)
        alpha = 1.0
        while alpha > 1e-18:
            try:
                trial = _evaluate(problem, start, point.x + alpha * dx, point.tau + alpha * dtau,
                                  point.y + alpha * dy, point.mu)
                break
            except DomainViolation:
                pass
            # a rejected full step falls back to the boundary bound, capped
            # at 1/2; its image part holds for the linearized motion only,
            # so halving safeguards it
            alpha = (_step_bound(problem, start, point, dx, dtau, dy, 0.5)
                     if alpha == 1.0 else 0.5 * alpha)
        else:
            raise CorrectorStall("step length underflow while correcting")
        point = trial


def _at_own_mu(problem, start, point: _Point) -> _Point:
    """``point`` at its own mu, :func:`mu_of`, with the proximity there on its u."""
    mu = mu_of(problem, start, point.x, point.tau, point.y)
    return replace(point, mu=mu, proximity=proximity_at(problem, point.u, point.tau, point.y, mu))


def predictor_step(problem: Problem, start: StartData, point: _Point, previous=None):
    """Advance along the path as far as the outer neighborhood allows;
    returns (predicted point, tangent), the point carrying its new mu.

    The tangent dp/dmu solves the mu-derivative of the path system with
    the primal gradient and metric the follower point carries: the mu = 1
    anchor's, or those of the point :func:`corrector_step` returned.  Its
    first trial increase dmu is the fraction-to-boundary cap along it, and
    the trials halve dmu until one is accepted.

    The returned tangent is (s, dp/ds), with s = ln mu and dp/ds = mu * t;
    ``previous`` is the one the step before returned.  With a previous
    tangent the trial points lie on the second-order curve in s,

        p + ds * mu*t + ds^2/2 * (mu*t - mu_prev*t_prev) / (s - s_prev),

    with ds = log1p(dmu/mu), and a trial is accepted at its own path
    parameter mu_of(point) if that exceeds mu and proximity there is within
    PREDICTOR_RADIUS * kappa.  Without one (the first iteration), the trial
    points are p + dmu * t, accepted at the declared mu + dmu.  Both act on
    the stacked p = (x, tau, y) and t.  Every tangent satisfies
    A'ty + ttau c = 0, so both motions keep the dual linear equation.
    The point returned carries the corrector's first Newton point, formed
    on its u; a trial whose restored dual leaves D* there is rejected.

    Raises PredictorStall when no relative increase of at least 1e-12 is
    acceptable; FactorizationFailure at the tangent's singular reduced path
    system (:func:`_kkt_solve`) or at the Newton point.
    """
    mu, x, tau, y = point.mu, point.x, point.tau, point.y
    tx, ttau, ty = _kkt_solve(problem, start, point, np.zeros(problem.n), point.g / tau,
                              -problem.theta * problem.xi / tau**2)

    dmu = _step_bound(problem, start, point, tx, ttau, ty, PREDICTOR_TRIAL_FACTOR * mu)

    n = problem.n
    p, t = np.concatenate([x, [tau], y]), np.concatenate([tx, [ttau], ty])
    s, vel = float(np.log(mu)), mu * t
    if previous is not None:
        acc = (vel - previous[1]) / (s - previous[0])

    radius = PREDICTOR_RADIUS * problem.kappa
    while dmu > 1e-12 * mu:
        if previous is None:
            pn, mun = p + dmu * t, mu + dmu
        else:
            ds = float(np.log1p(dmu / mu))
            pn = p + ds * vel + (0.5 * ds * ds) * acc
        xn, taun, yn = pn[:n], float(pn[n]), pn[n + 1:]
        if (u := member_image(problem, start, xn, taun, yn)) is not None:
            if previous is not None:
                mun = mu_of(problem, start, xn, taun, yn)
            if mun > mu:
                try:
                    prox = proximity_at(problem, u, taun, yn, mun)
                    if prox <= radius:
                        newton = _evaluate(problem, start, xn, taun, yn, mun, u=u)
                        return _Accepted(x=xn, tau=taun, y=yn, mu=mun, proximity=prox,
                                         newton=newton), (s, vel)
                except DomainViolation:
                    pass
        dmu *= 0.5
    raise PredictorStall(f"could not advance the path parameter beyond {mu:.6e}")


def _check_invariants(problem, start, it: Iterate, sp, violations: list):
    """Per-iterate runtime assertions: membership, the dual equation,
    proximity, the gap sandwich (where tau > 0, which it needs) and the
    tau floor.  The sandwich brackets the objective gap of the stop
    parameters ``sp`` :func:`follow` formed for the iterate; its upper half
    is also the weak detector's inequality, rearranged."""
    slack = 1e-8
    if not it.tau > 0.0:
        violations.append(f"tau not positive at mu={it.mu:.3e}")
    if member_image(problem, start, it.x, it.tau, it.y) is None:
        violations.append(f"interiority lost at mu={it.mu:.3e}")
    if dual_residual(problem, start, it.tau, it.y) > problem.dual_eq_tol:
        violations.append(f"dual equality residual above tolerance at mu={it.mu:.3e}")
    if not it.proximity <= problem.kappa:
        violations.append(f"proximity {it.proximity:.3e} above kappa at mu={it.mu:.3e}")
    if it.tau > 0.0:
        gb, actual = gap_bounds(problem, start, it.tau, it.mu), sp.objective_gap
        if np.isfinite(actual) and not (gb.lower - slack <= actual <= gb.upper + slack):
            violations.append(
                f"gap sandwich violated at mu={it.mu:.3e}: "
                f"{gb.lower:.6e} <= {actual:.6e} <= {gb.upper:.6e}")
    if it.mu >= 1.0:
        tau_floor = (problem.xi - 1.0 - problem.kappa) / (2.0 * problem.xi)
        if not it.tau >= tau_floor - slack:
            violations.append(
                f"tau {it.tau:.6e} below floor {tau_floor:.6e} at mu={it.mu:.3e}")


def require_max_iters(max_iters) -> None:
    """ValueError unless ``max_iters`` is a non-negative integer; a bool is not."""
    if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral) or max_iters < 0:
        raise ValueError(f"max_iters must be a non-negative integer, got {max_iters!r}")


def follow(problem: Problem, start: StartData, options: FollowerOptions = FollowerOptions(),
           on_iterate=None) -> FollowResult:
    """Run the predictor-corrector loop from the mu = 1 anchor (0, 1, y0),
    formed once at its own mu for the first predictor (:func:`_at_own_mu`).

    After every corrector the status checks run in their precedence order;
    the loop stops at the first triggered status, the mu cap, or the
    iteration cap.  ``on_iterate`` (if given) receives each TraceRow.

    ``start`` must come from :func:`make_start`.  Returns the full trace;
    a step that raises any SolverError, a Python float's OverflowError or
    numpy's FloatingPointError (the steps run with over, divide and invalid
    raised) ends the run as a NumericalFailure status that names the error,
    except at an anchor not in Q, which raises DomainViolation before the
    loop: its image outside D, mu <= 0 or its v outside D*.
    Raises ValueError, before any work, unless eps lies in (0, 1) and
    max_iters is a non-negative integer.
    """
    status_engine.require_eps(options.eps)
    require_max_iters(options.max_iters)
    x0 = np.zeros(problem.n)
    point = _at_own_mu(problem, start, _evaluate(problem, start, x0, 1.0, start.y0,
                                                 mu_of(problem, start, x0, 1.0, start.y0)))
    trace, iterates, violations = [], [], []

    def record(it: Iterate):
        """Trace, check and emit the iterate; returns its stop parameters."""
        sp = status_engine.stop_params(problem, start, it.x, it.tau, it.y)
        row = TraceRow(iter=len(trace), mu=it.mu, tau=it.tau, gap=sp.gap,
                       p_feas=sp.p_feas, d_feas=sp.d_feas, proximity=it.proximity)
        trace.append(row)
        iterates.append(it)
        _check_invariants(problem, start, it, sp, violations)
        if on_iterate is not None:
            on_iterate(row)
        return sp

    # the initial point is recorded but not status-checked: checks run
    # after correctors only (the anchor can satisfy a stop test by
    # construction, e.g. when A'y0 happens to vanish)
    sp = record(point)

    # each predictor hands its tangent to the next, for the second-order
    # curve, and each corrector returns its point with the primal
    # evaluation the next tangent reads
    tangent = None
    for _ in range(options.max_iters):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                predicted, tangent = predictor_step(problem, start, point, tangent)
                point = corrector_step(problem, start, predicted.newton)
        except (SolverError, OverflowError, FloatingPointError) as exc:
            report = status_engine.numerical_failure_report(iterates, violations, sp, exc)
            break
        sp = record(point)
        report = status_engine.check_status(problem, start, iterates, violations, options.eps,
                                            sp=sp)
        if report is not None:
            break
    else:
        report = status_engine.iteration_limit_report(iterates, violations, sp)
    return FollowResult(report=report, trace=trace, iterates=iterates,
                        invariant_violations=violations)
