"""Predictor-corrector mechanics and end-to-end follower behavior."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ddsolve as dd
import ddsolve.model as model_module
import ddsolve.path as path_module
from ddsolve.cli import parse_problem_file
from ddsolve.model import DUAL_EQ_TOL, dual_residual, member_image, shifted_image
from ddsolve.path import _kkt_solve, corrector_step, predictor_step, residuals
from conftest import SOC_RUN, follower_point
from test_medium import mixed_feasible
from probe import Probe
from oracles import (OracleInstance, feasibility_bound_failures, mu_growth_failures,
                     oracle_sigma_f, tau_floor_failures)


def test_residuals_vanish_at_initial_point(box_problem):
    problem, start = box_problem
    res = residuals(problem, start, follower_point(problem, start, np.zeros(1), 1.0, start.y0))
    assert np.allclose(res.r_dual, 0.0, atol=1e-14)
    assert np.allclose(res.r_cent, 0.0, atol=1e-14)
    assert res.r_gap == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("fixture", ["box_problem", "inf_problem", "soc_problem"])
def test_residuals_at_doubled_parameter(fixture, request):
    # at the mu=1 anchor evaluated with mu=2: the centering residual is
    # y0 - 2*Phi'(z0) = -y0 and the gap residual collapses to theta*xi
    problem, start = request.getfixturevalue(fixture)
    anchor = follower_point(problem, start, np.zeros(problem.n), 1.0, start.y0)
    res = residuals(problem, start, replace(anchor, mu=2.0))
    assert np.allclose(res.r_cent, -start.y0, atol=1e-12)
    assert res.r_gap == pytest.approx(problem.theta * problem.xi, rel=1e-12)


def test_residuals_raise_outside_domain(box_problem):
    # a point whose image leaves D has no follower point to take the
    # residuals at: its evaluation raises
    problem, start = box_problem
    with pytest.raises(dd.DomainViolation):
        residuals(problem, start, follower_point(problem, start, np.array([5.0]), 1.0, start.y0))


def test_corrector_fixed_point_on_path(box_problem):
    problem, start = box_problem
    point = path_module._evaluate(problem, start, np.zeros(1), 1.0, start.y0, 1.0,
                                  newton=True)
    out = corrector_step(problem, start, point)
    assert np.allclose(out.x, point.x, atol=1e-12)
    assert out.tau == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.y, point.y, atol=1e-12)


def test_corrector_returns_to_known_path_point(box_problem, monkeypatch):
    # the mu=1 path point is (0, 1, y0) by construction and unique; a
    # perturbed start must come back to it
    problem, start = box_problem
    point = path_module._evaluate(problem, start, np.array([1e-3]), 1.0, start.y0, 1.0,
                                  newton=True)
    monkeypatch.setattr(path_module, "CORRECTOR_MAX_STEPS", 5)
    out = corrector_step(problem, start, point)
    assert out.proximity <= 0.5 * problem.kappa
    assert abs(out.x[0]) <= 1e-8
    assert abs(out.tau - 1.0) <= 1e-8
    assert abs(out.y[0] - start.y0[0]) <= 1e-8


def test_corrector_stall_raises(box_problem, monkeypatch):
    problem, start = box_problem
    point = path_module._evaluate(problem, start, np.array([1e-3]), 1.0, start.y0, 1.0,
                                  newton=True)
    monkeypatch.setattr(path_module, "CORRECTOR_MAX_STEPS", 1)
    with pytest.raises(dd.CorrectorStall):
        corrector_step(problem, start, point)


def test_corrector_stall_reports_a_falling_residual(box_problem, monkeypatch):
    # with one step allowed, the point it reaches is tested too: its
    # scaled residual is still falling, so the stall names that clause
    # with the values the two passes formed, second and first
    problem, start = box_problem
    point = path_module._evaluate(problem, start, np.array([1e-3]), 1.0, start.y0, 1.0,
                                  newton=True)
    norms = []

    def recorded(*args):
        res = residuals(*args)
        norms.append(res.scaled_norm)
        return res
    monkeypatch.setattr(path_module, "residuals", recorded)
    monkeypatch.setattr(path_module, "CORRECTOR_MAX_STEPS", 1)
    with pytest.raises(dd.CorrectorStall) as stall:
        corrector_step(problem, start, point)
    assert len(norms) == 2
    assert str(stall.value) == (f"scaled residual {norms[1]:.3e} still falling from "
                                f"{norms[0]:.3e} after 1 Newton steps")


def test_corrector_stall_reports_last_proximity(soc_problem, monkeypatch):
    # where the last point's residual has settled, the stall message gives
    # the proximity the exit test read there, at the point's own mu: the
    # point two steps in settles, and the corrector returns it as
    # _at_own_mu formed it; with the target below that proximity the
    # corrector stalls there
    problem, start = soc_problem
    point = path_module._evaluate(problem, start, np.full(problem.n, 1e-3), 1.0, start.y0, 1.0,
                                  newton=True)
    monkeypatch.setattr(path_module, "CORRECTOR_MAX_STEPS", 2)
    settled = corrector_step(problem, start, point)
    assert settled.proximity > 0.0
    monkeypatch.setattr(path_module, "CORRECTOR_TARGET", 0.5 * settled.proximity / problem.kappa)
    target = path_module.CORRECTOR_TARGET * problem.kappa
    with pytest.raises(dd.CorrectorStall) as stall:
        corrector_step(problem, start, point)
    assert str(stall.value) == (f"proximity {settled.proximity:.3e} above target "
                                f"{target:.3e} after 2 Newton steps")


def test_a_settled_point_whose_proximity_raises_fails_the_exit_test(box_problem, monkeypatch):
    # the mu = 1 path point settles at once; where its proximity at its
    # own mu raises DomainViolation, the exit test fails with proximity
    # +inf and the corrector steps on, to a point that passes, or stalls
    # on the proximity clause where no step is left
    problem, start = box_problem
    point = path_module._evaluate(problem, start, np.zeros(1), 1.0, start.y0, 1.0,
                                  newton=True)
    original, calls = path_module._at_own_mu, []

    def at_own_mu(*args):
        calls.append(args)
        if len(calls) == 1:
            raise dd.DomainViolation("scaled dual point left the dual cone interior")
        return original(*args)
    monkeypatch.setattr(path_module, "_at_own_mu", at_own_mu)
    probe = Probe(monkeypatch)
    probe.count(path_module, "_kkt_solve")
    out = corrector_step(problem, start, point)
    assert len(calls) == 2 and probe["_kkt_solve"] == 1
    assert out.proximity <= path_module.CORRECTOR_TARGET * problem.kappa

    def outside(*args):
        raise dd.DomainViolation("scaled dual point left the dual cone interior")
    monkeypatch.setattr(path_module, "_at_own_mu", outside)
    monkeypatch.setattr(path_module, "CORRECTOR_MAX_STEPS", 1)
    target = path_module.CORRECTOR_TARGET * problem.kappa
    with pytest.raises(dd.CorrectorStall) as stall:
        corrector_step(problem, start, point)
    assert str(stall.value) == f"proximity inf above target {target:.3e} after 1 Newton steps"


def test_a_stalled_corrector_tests_every_point_it_forms(tangent_problem, monkeypatch):
    # on the tangent slice at eps 1e-3 the corrector after iteration 26
    # stalls: it takes CORRECTOR_MAX_STEPS Newton steps, none thrown away,
    # tests each point it forms, the last one included, and forms each
    # proximity at a point's own mu only
    problem, start = tangent_problem
    probe = Probe(monkeypatch)
    probe.count(path_module, "corrector_step", "correctors")
    probe.count(path_module, "_at_own_mu", "own_mu")
    probe.count(path_module, "_kkt_solve", inside="correctors")
    probe.count(path_module, "residuals", inside="correctors")
    probe.count(path_module, "proximity_at", "stray_proximity", inside="correctors",
                when=lambda *args: "own_mu" not in probe.active)
    keys = ("_kkt_solve", "residuals", "stray_proximity")
    counted, entered = path_module.corrector_step, []

    def corrector(*args):
        entered.append({key: probe[key] for key in keys})
        return counted(*args)
    monkeypatch.setattr(path_module, "corrector_step", corrector)
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-3))
    assert result.report.status == "NumericalFailure"
    assert result.report.diagnostics["iterations"] == 26
    assert result.report.diagnostics["reason"].startswith("CorrectorStall: ")
    steps = path_module.CORRECTOR_MAX_STEPS
    assert {key: probe[key] - entered[-1][key] for key in keys} == {
        "_kkt_solve": steps, "residuals": steps + 1, "stray_proximity": 0}


def test_corrector_stalls_when_every_trial_is_rejected(box_problem, monkeypatch):
    # the starting point is evaluated before the patch; every trial point
    # is rejected, so the step length halves from the boundary bound until
    # it underflows
    problem, start = box_problem
    point = path_module._evaluate(problem, start, np.array([1e-3]), 1.0, start.y0, 1.0,
                                  newton=True)
    evaluated = []

    def evaluate(*args, **kwargs):
        evaluated.append(args)
        raise dd.DomainViolation("trial rejected")
    monkeypatch.setattr(path_module, "_evaluate", evaluate)
    with pytest.raises(dd.CorrectorStall, match="step length underflow while correcting"):
        corrector_step(problem, start, point)
    assert len(evaluated) > 1


def test_kkt_solve_reports_a_singular_system(box_problem, monkeypatch):
    problem, start = box_problem
    point = path_module._evaluate(problem, start, np.zeros(1), 1.0, start.y0, 1.0)

    def singular(M, rhs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(dd.FactorizationFailure, match="reduced path system is singular") as info:
        _kkt_solve(problem, start, point, np.zeros(1), point.g, 0.0)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_corrector_rejects_restoration_leaving_dual_cone(inf_problem, monkeypatch):
    # the dual-cone check runs at every Newton point, not only where
    # proximity is evaluated: a restoration that leaves int D* at the
    # corrector's starting point fails as the point is formed
    problem, start = inf_problem
    assert not problem.barrier.interior(-start.y0, "conjugate")
    monkeypatch.setattr(path_module, "_restore_dual_equality",
                        lambda problem, start, tau, y: -y)
    with pytest.raises(dd.DomainViolation,
                       match="scaled dual point left the dual cone interior"):
        path_module._evaluate(problem, start, np.zeros(1), 1.0, start.y0, 2.0, newton=True)


def _first_newton_step(problem, start, x, tau, y, mu):
    """The corrector's first Newton direction from (x, tau, y), and the
    restored y it starts from."""
    y = path_module._restore_dual_equality(problem, start, tau, y)
    point = path_module._evaluate(problem, start, x, tau, y, mu)
    res = residuals(problem, start, point)
    return y, _kkt_solve(problem, start, point, -res.r_dual, -res.r_cent, -res.r_gap)


def _record_step_bounds(monkeypatch) -> list:
    """Every step bound the path module forms from now on, in order."""
    bounds = []
    original = path_module._step_bound

    def step_bound(*args):
        bounds.append(original(*args))
        return bounds[-1]
    monkeypatch.setattr(path_module, "_step_bound", step_bound)
    return bounds


def test_corrector_falls_back_to_step_bound(box_problem, monkeypatch):
    # from tau = 2 at mu = 1 the full Newton step overshoots tau to about
    # -33; the corrector must reject it, form the fraction-to-boundary
    # bound and halve from there back to the unique mu = 1 path point
    problem, start = box_problem
    x, tau = np.zeros(1), 2.0
    y, (dx, dtau, dy) = _first_newton_step(problem, start, x, tau, start.y0, 1.0)
    assert tau + dtau <= 0.0
    assert member_image(problem, start, x + dx, tau + dtau, y + dy) is None
    bounds = _record_step_bounds(monkeypatch)
    point = path_module._evaluate(problem, start, x, tau, start.y0, 1.0, newton=True)
    out = corrector_step(problem, start, point)
    assert bounds and all(0.0 < b <= 0.5 for b in bounds)
    assert out.proximity <= path_module.CORRECTOR_TARGET * problem.kappa
    assert abs(out.x[0]) <= 1e-8
    assert abs(out.tau - 1.0) <= 1e-8


def test_corrector_rejects_trial_whose_restoration_leaves_dual_cone(inf_problem,
                                                                    monkeypatch):
    # a trial point whose restored y leaves int D* is rejected like any
    # trial outside Q: the corrector shortens the step instead of raising
    problem, start = inf_problem
    x, tau = np.array([0.1]), 1.0
    y, (dx, dtau, dy) = _first_newton_step(problem, start, x, tau, start.y0, 1.0)
    # unaltered, the full step would be accepted
    assert member_image(problem, start, x + dx, tau + dtau, y + dy) is not None
    point = path_module._evaluate(problem, start, x, tau, start.y0, 1.0, newton=True)
    original = path_module._restore_dual_equality
    restored = []

    def restore(problem, start, tau, y):
        restored.append(original(problem, start, tau, y))
        if len(restored) == 1:
            # the first trial point, the starting point formed before the
            # patch: send its restored y out of D*
            assert not problem.barrier.interior(-restored[-1], "conjugate")
            return -restored[-1]
        return restored[-1]
    monkeypatch.setattr(path_module, "_restore_dual_equality", restore)
    bounds = _record_step_bounds(monkeypatch)
    out = corrector_step(problem, start, point)
    assert len(restored) > 1 and len(bounds) == 1
    assert out.proximity <= path_module.CORRECTOR_TARGET * problem.kappa
    assert abs(out.x[0]) <= 1e-8
    assert abs(out.tau - 1.0) <= 1e-8


@pytest.mark.parametrize("spread", [0, 14])
def test_restoration_is_the_minimal_norm_correction(spread):
    # the change to y is the minimal-norm solution of A'dy = rhs, the dual
    # equation's residual at y, whether the columns of A are alike or
    # scaled over 2^-14..2^14 (about 1e-4..1e4), and the restored y meets
    # the equation to its tolerance.  Powers of two scale exactly, so the
    # reference is the least-squares solution of the unscaled system
    # B'dy = rhs / scales, with A = B diag(scales): the same dy, without
    # the conditioning the scales add.  c = -A'y_bar scales with A, as
    # the objective of a problem with a dual point does
    rng = np.random.default_rng(41)
    m, n = 30, 8
    B = rng.normal(size=(m, n))
    scales = 2.0 ** np.linspace(-spread, spread, n).round()
    A = B * scales
    problem = dd.validate_problem(A, -A.T @ rng.normal(size=m),
                                  [dd.box(i, -1.0, 1.0) for i in range(m)])
    start = dd.make_start(problem, rng.uniform(-0.5, 0.5, size=m))
    for _ in range(5):
        x, tau, y = rng.normal(size=n), rng.uniform(0.5, 2.0), rng.normal(size=m)
        rhs = A.T @ (start.y0 - y) - (tau - 1.0) * problem.c
        want = np.linalg.lstsq(B.T, rhs / scales, rcond=None)[0]
        restored = path_module._restore_dual_equality(problem, start, tau, y)
        assert np.linalg.norm((restored - y) - want) <= 1e-10 * np.linalg.norm(want)
        assert dual_residual(problem, start, tau, restored) <= DUAL_EQ_TOL * (1.0 + problem.c_norm)


def test_follow_raises_on_a_start_whose_anchor_is_not_in_q():
    # a start not built by make_start raises before the loop, on either
    # side.  Dual: on min x, x >= 0, y0 = +1 lies outside D* = {y <= 0},
    # and the anchor's own path parameter is -0.0.  Primal: on min x over
    # the box [0, 1], the anchor's image z0 = 2 lies outside D
    lower = dd.validate_problem([[1.0]], [1.0], [dd.halfline_lower(0, 0.0)])
    box = dd.validate_problem([[1.0]], [1.0], [dd.box(0, 0.0, 1.0)])
    for problem, change, message in [
            (lower, lambda s: {"y0": -s.y0}, "path parameter must be positive, got -0.0"),
            (box, lambda s: {"z0": np.array([2.0])},
             "shifted image point left the domain interior")]:
        start = dd.make_start(problem)
        start = replace(start, **change(start))
        with pytest.raises(dd.DomainViolation, match=message):
            dd.follow(problem, start, dd.FollowerOptions(eps=1e-6, max_iters=5))


@pytest.mark.parametrize("x,tau,message", [
    (5.0, 1.0, "shifted image point left the domain interior"),
    (0.0, -1.0, "tau must be positive"),
])
def test_corrector_rejects_start_outside_domain(box_problem, x, tau, message):
    # the corrector's start is a Newton point, formed by _evaluate, which
    # checks the start
    problem, start = box_problem
    with pytest.raises(dd.DomainViolation, match=message):
        path_module._evaluate(problem, start, np.array([x]), tau, start.y0, 1.0, newton=True)


@pytest.mark.parametrize("fixture,run", [("box_problem", "box_run"),
                                         ("inf_problem", "inf_run"),
                                         ("unb_problem", "unb_run")])
def test_scaled_residuals_small_at_iterates(fixture, run, request):
    problem, start = request.getfixturevalue(fixture)
    result = request.getfixturevalue(run)
    for it in result.iterates[1:]:
        res = residuals(problem, start, it)
        assert res.scaled_norm <= 1e-8


def test_predictor_tangent_satisfies_dual_equation(box_problem):
    problem, start = box_problem
    point = follower_point(problem, start, np.zeros(1), 1.0, start.y0)
    tx, ttau, ty = _kkt_solve(
        problem, start, point, np.zeros(problem.n), point.g / point.tau,
        -problem.theta * problem.xi / point.tau**2)
    resid = problem.A.T @ ty + ttau * problem.c
    assert np.max(np.abs(resid)) <= 1e-9


def _unreduced_solve(problem, start, x, tau, y, mu, b_dual, b_cent, b_gap):
    """(dx, dtau, dy) from rows (b), (c), (d) of the linearized path system,
    assembled densely and solved without eliminating dy."""
    A, n, m = problem.A, problem.n, problem.m
    u = shifted_image(problem, start, x, tau)
    g = problem.barrier.grad(u, "primal")
    H = problem.barrier.hess(u, "primal").dense()
    K = np.zeros((n + m + 1, n + 1 + m))
    # (b)  A'dy + c dtau
    K[:n, n] = problem.c
    K[:n, n + 1:] = A.T
    # (c)  dy - (mu/tau) Phi''(u) du,  du = A dx - z0 dtau / tau^2, and the
    #      tau-derivative of the factor mu/tau
    K[n:n + m, :n] = -(mu / tau) * H @ A
    K[n:n + m, n] = (mu / tau**2) * g + (mu / tau**3) * H @ start.z0
    K[n:n + m, n + 1:] = np.eye(m)
    # (d)  <c,x> + <y,A x>/tau + <y,z0>/tau^2 + theta xi mu/tau^2 + y_tau0/tau
    K[n + m, :n] = problem.c + A.T @ y / tau
    K[n + m, n] = (-(y @ A @ x) / tau**2 - 2.0 * (y @ start.z0) / tau**3
                   - 2.0 * problem.theta * problem.xi * mu / tau**3 - start.y_tau0 / tau**2)
    K[n + m, n + 1:] = u / tau
    sol = np.linalg.solve(K, np.concatenate([b_dual, b_cent, [b_gap]]))
    return sol[:n], sol[n], sol[n + 1:]


@pytest.mark.parametrize("fixture,run", [("box_problem", "box_run"),
                                         ("soc_problem", "soc_run"),
                                         ("mixed_problem", "mixed_run")])
def test_kkt_solve_matches_unreduced_system(fixture, run, request):
    # the reduced solve, with its one metric product over [A | z0 | u],
    # against the dense unreduced rows, for the tangent's right-hand side
    # and for the corrector's at twice the iterate's mu; at iterates up
    # to mu = 1e2 the unreduced system is well conditioned
    problem, start = request.getfixturevalue(fixture)
    checked = 0
    for it in request.getfixturevalue(run).iterates:
        if it.mu > 1e2:
            continue
        evaluated = path_module._evaluate(problem, start, it.x, it.tau, it.y, 2.0 * it.mu)
        res = residuals(problem, start, evaluated)
        g = evaluated.g
        for point, rhs in [
            (replace(evaluated, mu=it.mu),
             (np.zeros(problem.n), g / it.tau, -problem.theta * problem.xi / it.tau**2)),
            (evaluated, (-res.r_dual, -res.r_cent, -res.r_gap)),
        ]:
            got = _kkt_solve(problem, start, point, *rhs)
            ref = _unreduced_solve(problem, start, it.x, it.tau, it.y, point.mu, *rhs)
            got, ref = (np.concatenate([p[0], [p[1]], p[2]]) for p in (got, ref))
            assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)
            checked += 1
    assert checked >= 10


def test_predictor_increases_mu_and_respects_neighborhood(box_problem):
    problem, start = box_problem
    point = follower_point(problem, start, np.zeros(1), 1.0, start.y0)
    predicted, _ = predictor_step(problem, start, point)
    assert predicted.mu > 1.0
    assert dd.proximity_at(problem, shifted_image(problem, start, predicted.x, predicted.tau),
                           predicted.tau, predicted.y, predicted.mu) <= 2.0 * problem.kappa
    # composition: the corrector restores the inner neighborhood
    corrected = corrector_step(problem, start, predicted.newton)
    assert corrected.proximity <= 0.5 * problem.kappa


def test_predictor_interiority_preserved(soc_problem):
    problem, start = soc_problem
    point = follower_point(problem, start, np.zeros(problem.n), 1.0, start.y0)
    for _ in range(5):
        predicted, _ = predictor_step(problem, start, point)
        u = shifted_image(problem, start, predicted.x, predicted.tau)
        assert problem.barrier.min_margin(u, "primal") > 0.0
        assert problem.barrier.min_margin(predicted.y, "conjugate") > 0.0
        point = corrector_step(problem, start, predicted.newton)


def test_predictor_rejects_a_trial_whose_proximity_raises(box_problem, monkeypatch):
    # a trial at which proximity_at raises DomainViolation is rejected like
    # one beyond the outer radius: dmu halves and the next trial is tried
    problem, start = box_problem
    point = follower_point(problem, start, np.zeros(1), 1.0, start.y0)
    original = path_module.proximity_at
    trial_mus = []

    def proximity_at(*args):
        trial_mus.append(args[-1])
        if len(trial_mus) == 1:
            raise dd.DomainViolation("trial rejected")
        return original(*args)
    monkeypatch.setattr(path_module, "proximity_at", proximity_at)
    predicted, _ = predictor_step(problem, start, point)
    assert len(trial_mus) > 1 and predicted.mu == trial_mus[-1] < trial_mus[0]
    assert predicted.proximity <= path_module.PREDICTOR_RADIUS * problem.kappa


@pytest.mark.parametrize("fixture,run,eps", [("inf_problem", "inf_run", 1e-6),
                                             ("soc_problem", "soc_run", SOC_RUN[1])])
def test_predictor_rejects_a_trial_whose_restoration_leaves_dual_cone(fixture, run, eps,
                                                                      request, monkeypatch):
    # the first dual restoration after the third predictor starts is that
    # of a trial within the outer radius, formed as the corrector's first
    # Newton point.  Sent out of int D*, it must cost the predictor a
    # halving, not end the run: the run ends in its unperturbed status
    problem, start = request.getfixturevalue(fixture)
    reference = request.getfixturevalue(run)
    original_predictor = path_module.predictor_step
    original_restore = path_module._restore_dual_equality
    predictors, sent = [], []

    def predictor_step(*args):
        predictors.append(None)
        return original_predictor(*args)

    def restore(problem, start, tau, y):
        restored = original_restore(problem, start, tau, y)
        if len(predictors) == 3 and not sent:
            sent.append(-restored)
            assert not problem.barrier.interior(sent[0], "conjugate")
            return sent[0]
        return restored
    monkeypatch.setattr(path_module, "predictor_step", predictor_step)
    monkeypatch.setattr(path_module, "_restore_dual_equality", restore)
    result = dd.follow(problem, start, dd.FollowerOptions(eps=eps))
    assert sent and len(reference.trace) > 4
    assert result.report.status == reference.report.status


def _first_order_predictor(problem, start, point):
    """Reference first-order predictor: trial points p + dmu * t, dmu
    halved from the fraction-to-boundary cap along the tangent t until
    proximity at mu + dmu is within the outer radius."""
    mu, x, tau, y = point.mu, point.x, point.tau, point.y
    evaluated = path_module._evaluate(problem, start, x, tau, y, mu)
    u = evaluated.u
    tx, ttau, ty = _kkt_solve(problem, start, evaluated, np.zeros(problem.n),
                              evaluated.g / tau, -problem.theta * problem.xi / tau**2)
    dmu = path_module.PREDICTOR_TRIAL_FACTOR * mu
    if ttau < 0.0:
        dmu = min(dmu, path_module.BOUNDARY_FRACTION * tau / (-ttau))
    dmu = min(dmu, path_module.BOUNDARY_FRACTION
              * problem.barrier.step_to_boundary(y, ty, "conjugate"))
    du = problem.A @ tx - start.z0 * (ttau / tau**2)
    dmu = min(dmu, path_module.BOUNDARY_FRACTION
              * problem.barrier.step_to_boundary(u, du, "primal"))
    while True:
        xn, taun, yn = x + dmu * tx, tau + dmu * ttau, y + dmu * ty
        if (taun > 0.0 and problem.barrier.interior(yn, "conjugate")
                and problem.barrier.interior(shifted_image(problem, start, xn, taun), "primal")):
            prox = dd.proximity_at(problem, shifted_image(problem, start, xn, taun), taun, yn,
                                   mu + dmu)
            if prox <= path_module.PREDICTOR_RADIUS * problem.kappa:
                return xn, taun, yn, mu + dmu, prox
        dmu *= 0.5


def _predict_and_correct(problem, start, steps):
    """``steps`` iterations of the follower's loop, each predictor given the
    tangent the one before returned; yields (point, predicted) per
    iteration."""
    point = follower_point(problem, start, np.zeros(problem.n), 1.0, start.y0)
    tangent = None
    for _ in range(steps):
        predicted, tangent = predictor_step(problem, start, point, tangent)
        yield point, predicted
        point = corrector_step(problem, start, predicted.newton)


@pytest.mark.parametrize("fixture", ["box_problem", "inf_problem", "soc_problem"])
def test_predictor_without_previous_tangent_is_first_order(fixture, request):
    # a direct call, and the first call of a run, step along the tangent
    # exactly as the first-order predictor does
    problem, start = request.getfixturevalue(fixture)
    points = [point for point, _ in _predict_and_correct(problem, start, 4)]
    for point in points:
        xr, taur, yr, mur, proxr = _first_order_predictor(problem, start, point)
        predicted, _ = predictor_step(problem, start, point)
        assert np.array_equal(predicted.x, xr) and np.array_equal(predicted.y, yr)
        assert (predicted.tau, predicted.mu, predicted.proximity) == (taur, mur, proxr)


@pytest.mark.parametrize("fixture", ["box_problem", "soc_problem", "tangent_problem"])
def test_curve_points_keep_dual_equation_and_neighborhood(fixture, request):
    # after the first iteration the trial points lie on the second-order
    # curve; each accepted one keeps the dual linear equation of the point
    # it left, lies beyond its mu at its own path parameter, and is within
    # the outer radius there
    problem, start = request.getfixturevalue(fixture)
    curve_points = 0
    for k, (point, predicted) in enumerate(_predict_and_correct(problem, start, 8)):
        first_order = predictor_step(problem, start, point)[0]
        if k == 0:
            assert np.array_equal(predicted.x, first_order.x)
            continue
        assert not np.array_equal(predicted.x, first_order.x)
        curve_points += 1
        moved = (problem.A.T @ (predicted.y - point.y)
                 + (predicted.tau - point.tau) * problem.c)
        assert np.max(np.abs(moved)) <= 1e-9
        own = dd.mu_of(problem, start, predicted.x, predicted.tau, predicted.y)
        assert predicted.mu == own > point.mu
        prox = dd.proximity_at(problem, shifted_image(problem, start, predicted.x, predicted.tau),
                               predicted.tau, predicted.y, own)
        assert prox == predicted.proximity <= 2.0 * problem.kappa
    assert curve_points == 7


@pytest.mark.parametrize("fixture", ["box_problem", "inf_problem", "soc_problem"])
def test_curve_bending_back_is_not_accepted(fixture, request):
    # a previous tangent five times this one, one unit of s back, bends the
    # curve back along the path for the larger trial steps; those points
    # are near the path at a smaller own mu and must be passed over
    problem, start = request.getfixturevalue(fixture)
    point = list(_predict_and_correct(problem, start, 4))[-1][0]
    _, (s, vel) = predictor_step(problem, start, point)
    predicted, _ = predictor_step(problem, start, point, (s - 1.0, 5.0 * vel))
    own = dd.mu_of(problem, start, predicted.x, predicted.tau, predicted.y)
    assert predicted.mu == own > point.mu


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_two_cone_instance_solves_in_few_iterations(seed):
    # 45, 47 and 47 iterations here; the first-order predictor takes 79, 82
    # and 145 on these seeds
    problem = mixed_feasible(seed, 12, 0, (12, 12))
    result = dd.follow(problem, dd.make_start(problem), dd.FollowerOptions(eps=1e-6))
    assert result.report.status == "EpsSolution"
    assert result.report.diagnostics["iterations"] <= 60


@pytest.mark.parametrize("run,expected", [
    ("box_run", "EpsSolution"),
    ("inf_run", "InfeasibilityCertificate"),
    ("unb_run", "UnboundednessCertificate"),
])
def test_follow_terminal_statuses(run, expected, request):
    result = request.getfixturevalue(run)
    assert result.report.status == expected
    assert result.invariant_violations == []


def test_follow_trace_matches_iterates(box_run):
    assert len(box_run.trace) == len(box_run.iterates)
    for k, row in enumerate(box_run.trace):
        assert row.iter == k
        assert row.mu == pytest.approx(box_run.iterates[k].mu)


def test_follow_emits_rows_through_sink(box_problem):
    problem, start = box_problem
    seen = []
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6), on_iterate=seen.append)
    assert seen == result.trace


def test_mu_strictly_increasing(box_run, inf_run, unb_run, soc_run):
    for result in (box_run, inf_run, unb_run, soc_run):
        assert mu_growth_failures(result) == []


@pytest.mark.parametrize("xi,kappa", [(3.0, 0.5), (1.5, 0.25), (2.0, 0.1)])
def test_follower_with_other_neighborhood_constants(xi, kappa):
    problem = dd.validate_problem([[1.0]], [1.0], [dd.box(0, 0.0, 1.0)],
                                  xi=xi, kappa=kappa)
    start = dd.make_start(problem)
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6))
    assert result.report.status == "EpsSolution"
    assert result.invariant_violations == []
    assert tau_floor_failures(problem, result.iterates) == []


@pytest.mark.parametrize("fixture,run", [("box_problem", "box_run"), ("inf_problem", "inf_run"),
                                         ("unb_problem", "unb_run"), ("soc_problem", "soc_run"),
                                         ("tangent_problem", "tangent_run")])
def test_every_corrector_exit_is_within_the_target(fixture, run, request):
    # the exit rule stated on the value the trace records: every iterate
    # after the anchor is a corrector's exit point, recorded with the
    # proximity at its own mu, which the exit test read
    problem, _ = request.getfixturevalue(fixture)
    trace = request.getfixturevalue(run).trace
    assert len(trace) > 1
    target = path_module.CORRECTOR_TARGET * problem.kappa
    assert [row.iter for row in trace[1:] if not row.proximity <= target] == []


@pytest.mark.parametrize("fixture,run,eps", [("box_problem", "box_run", 1e-6),
                                             ("inf_problem", "inf_run", 1e-6),
                                             ("unb_problem", "unb_run", 1e-6),
                                             ("soc_problem", "soc_run", 1e-4),
                                             ("tangent_problem", "tangent_run", 1e-2)])
def test_evaluation_budget(fixture, run, eps, request, monkeypatch):
    # every Newton point is evaluated once on the primal side, by one
    # grad_hess: at each corrector's start, which the predictor forms at
    # the trial it accepts and hands over, and at each accepted corrector
    # trial, with no separate primal grad or hess.  The mu = 1 anchor is
    # evaluated once, by follow, and each predictor tangent reads the
    # evaluation of the point before it: the anchor's, then each
    # corrector's.  One shared step puts every recorded point at its own
    # mu: the anchor and each corrector's exit point.  Each Newton point
    # gets one dual-side check, of (tau/mu) y after restoration, and on
    # these runs every full step is accepted, so the corrector never forms
    # a step-to-boundary bound.  Each KKT solve applies the metric once,
    # residuals run once per corrector pass, A is factored once per
    # problem, not per corrector step, and one proximity per corrector: at
    # the exit point's own mu, which its exit test reads.
    # Each corrector trial forms its shifted image once, in _evaluate, and
    # the exit reads it, as each predictor trial's proximity, and the
    # Newton point formed at the accepted trial, read the image the trial
    # formed once, in member_image
    base, start = request.getfixturevalue(fixture)
    reference = request.getfixturevalue(run)
    problem = replace(base)   # without the factors the reference run formed
    barrier = dd.barriers.DomainBarrier
    primal = {"when": lambda self, z, side="primal": side == "primal"}
    newton = {"when": lambda *args, newton=False, u=None: newton}
    probe = Probe(monkeypatch)
    for owner, name, key, options in [
            (np.linalg, "qr", None, {}),
            (np.linalg, "qr", "qr_of_A", {"when": lambda a, *args, **kwargs: a is problem.A}),
            (barrier, "grad", None, primal),
            (barrier, "hess", None, primal),
            (barrier, "grad_hess", None, primal),
            (path_module, "residuals", None, {}),
            (path_module, "predictor_step", "tangents", {}),
            (path_module, "_kkt_solve", "kkt", {}),
            (path_module, "corrector_step", "correctors", {}),
            (dd.model, "make_iterate", "iterates", {}),
            (path_module, "_at_own_mu", "own_mu_steps", {}),
            (path_module, "_evaluate", "anchors",
             {"when": lambda *args, newton=False, u=None: not newton}),
            (path_module, "_evaluate", "newton_points", newton),
            (path_module, "_evaluate", "predictor_newton_points", {"inside": "tangents", **newton}),
            (dd.barriers.BlockMetric, "matvec", "kkt_matvec", {"inside": "kkt"}),
            (barrier, "interior", "dual_checks",
             {"inside": "correctors", "when": lambda self, z, side="primal": side == "conjugate"}),
            (barrier, "step_to_boundary", "corrector_boundary", {"inside": "correctors"}),
            (path_module, "proximity_at", "corrector_proximity", {"inside": "correctors"}),
            (path_module, "member_image", "predictor_trials", {"inside": "tangents"}),
            (dd.model, "shifted_image", "predictor_images", {"inside": "tangents"}),
            (path_module, "shifted_image", "predictor_images", {"inside": "tangents"}),
            (dd.model, "shifted_image", "corrector_images", {"inside": "correctors"}),
            (path_module, "shifted_image", "corrector_images", {"inside": "correctors"}),
            (dd.status, "check_status", "status_checks", {}),
            (dd.status, "verify_certificate", "verifier", {}),
            (barrier, "support", "iterate_supports",
             {"when": lambda *args: not {"status_checks", "verifier"} & {*probe.active}})]:
        probe.count(owner, name, key, **options)

    result = dd.follow(problem, start, dd.FollowerOptions(eps=eps))
    # the probe does not perturb the run
    assert result.trace == reference.trace
    assert probe["tangents"] == len(result.trace) - 1
    assert probe["correctors"] > 0
    assert probe["grad"] == probe["hess"] == 0
    # one point for the anchor, and per corrector its start plus
    # one per step, each step's full trial accepted; each predictor forms
    # exactly one Newton point, its corrector's start, and the corrector
    # checks only its own trials' duals
    newton_steps = probe["kkt"] - probe["tangents"]
    newton_points = probe["correctors"] + newton_steps
    assert probe["newton_points"] == newton_points
    assert probe["predictor_newton_points"] == probe["tangents"] == probe["correctors"]
    assert probe["anchors"] == 1
    assert probe["grad_hess"] == 1 + newton_points
    assert probe["dual_checks"] == newton_points - probe["correctors"]
    assert probe["corrector_boundary"] == 0
    assert probe["residuals"] == probe["correctors"] + newton_steps
    assert probe["kkt_matvec"] == probe["kkt"]
    assert probe["corrector_proximity"] == probe["correctors"]
    # one image per corrector trial, none at a corrector's start or exit,
    # and no plain iterate: the anchor is a follower point too
    assert probe["corrector_images"] == newton_points - probe["correctors"]
    assert probe["iterates"] == 0
    assert probe["own_mu_steps"] == len(result.trace)
    # one image per trial, none for the first tangent, which reads the
    # anchor's
    assert probe["predictor_images"] == probe["predictor_trials"]
    assert probe["qr"] == probe["qr_of_A"] == 1
    # outside the status checks and the verifier, each recorded iterate's
    # support is formed once, by its stop parameters, which the gap
    # sandwich reads
    assert probe["iterate_supports"] == len(result.trace)
    dd.follow(problem, start, dd.FollowerOptions(eps=1e-6, max_iters=3))
    assert probe["qr"] == 1


@pytest.mark.parametrize("fixture,run", [("box_problem", "box_run"),
                                         ("inf_problem", "inf_run"),
                                         ("soc_problem", "soc_run")])
def test_reused_evaluations_match_public_functions(fixture, run, request):
    # the follower keeps each point's evaluation instead of forming it
    # again; the public functions, forming everything themselves, must give
    # every recorded proximity, and a fresh evaluation of each recorded
    # point the image, gradient and residuals the point carries, bit for bit
    problem, start = request.getfixturevalue(fixture)
    iterates = request.getfixturevalue(run).iterates
    # every iterate, the mu = 1 anchor included, keeps the evaluation the
    # follower formed at it
    assert all(isinstance(it, path_module._Point) for it in iterates)
    for it in iterates:
        assert dd.proximity_at(problem, shifted_image(problem, start, it.x, it.tau), it.tau, it.y,
                               it.mu) == it.proximity
        fresh = path_module._evaluate(problem, start, it.x, it.tau, it.y, it.mu)
        private = residuals(problem, start, it)
        public = residuals(problem, start, fresh)
        assert np.array_equal(public.r_dual, private.r_dual)
        assert np.array_equal(public.r_cent, private.r_cent)
        assert public.r_gap == private.r_gap
        assert public.scaled_norm == private.scaled_norm
        for name in ("u", "g"):
            assert np.array_equal(getattr(it, name), getattr(fresh, name))


@pytest.mark.parametrize("fixture", ["inf_problem", "soc_problem", "tangent_problem"])
def test_scaled_norm_reads_the_gap_products(fixture, request, monkeypatch):
    # at every Newton point of a run, the scaled norm the residuals carry
    # equals the formula formed again from the point, with <c, x> and
    # <y, u> in the gap's scale, bit for bit
    problem, start = request.getfixturevalue(fixture)
    recorded = []

    def record(problem, start, point):
        recorded.append((point, original(problem, start, point)))
        return recorded[-1][1]
    original = path_module.residuals
    monkeypatch.setattr(path_module, "residuals", record)
    dd.follow(problem, start, dd.FollowerOptions(eps=1e-4, max_iters=40))
    assert len(recorded) > 20
    for p, res in recorded:
        cx, yu = float(problem.c @ p.x), float(p.y @ p.u)
        scale_gap = (1.0 + abs(cx) + abs(yu) / p.tau
                     + problem.theta * problem.xi * p.mu / p.tau**2 + abs(start.y_tau0) / p.tau)
        scale_cent = 1.0 + float(np.abs(p.y).max())
        scale_dual = 1.0 + start.aty0_inf + p.tau * problem.c_inf
        assert res.scaled_norm == max(
            abs(res.r_gap) / scale_gap, float(np.abs(res.r_cent).max()) / scale_cent,
            float(np.abs(res.r_dual).max(initial=0.0)) / scale_dual)


@pytest.mark.parametrize("fixture", ["box_problem", "soc_problem", "tangent_problem"])
def test_predictor_reads_handed_over_evaluation(fixture, request):
    # follow hands each corrector's evaluated point to the next predictor;
    # from a copy of that point evaluated afresh, the prediction must be
    # the same bit for bit
    problem, start = request.getfixturevalue(fixture)
    point = follower_point(problem, start, np.zeros(problem.n), 1.0, start.y0)
    predicted, tangent = predictor_step(problem, start, point)
    for _ in range(6):
        point = corrector_step(problem, start, predicted.newton)
        assert isinstance(point, path_module._Point)
        fresh = replace(path_module._evaluate(problem, start, point.x.copy(), point.tau,
                                              point.y.copy(), point.mu),
                        proximity=point.proximity)
        own, own_tangent = predictor_step(problem, start, fresh, tangent)
        predicted, tangent = predictor_step(problem, start, point, tangent)
        assert np.array_equal(predicted.x, own.x) and np.array_equal(predicted.y, own.y)
        assert (predicted.tau, predicted.mu, predicted.proximity) == \
            (own.tau, own.mu, own.proximity)
        assert tangent[0] == own_tangent[0] and np.array_equal(tangent[1], own_tangent[1])


@pytest.mark.parametrize("fixture", ["box_problem", "soc_problem", "tangent_problem"])
def test_corrector_reads_handed_over_newton_point(fixture, request):
    # each predictor hands its corrector the first Newton point, formed at
    # the trial it accepted; from a Newton point formed afresh at a copy of
    # that trial, the correction must be the same bit for bit
    problem, start = request.getfixturevalue(fixture)
    point = follower_point(problem, start, np.zeros(problem.n), 1.0, start.y0)
    tangent = None
    for _ in range(6):
        predicted, tangent = predictor_step(problem, start, point, tangent)
        assert isinstance(predicted, path_module._Accepted)
        own = corrector_step(problem, start, path_module._evaluate(
            problem, start, predicted.x.copy(), predicted.tau, predicted.y.copy(), predicted.mu,
            newton=True))
        point = corrector_step(problem, start, predicted.newton)
        for name in ("x", "y", "u", "g"):
            assert np.array_equal(getattr(point, name), getattr(own, name))
        assert (point.tau, point.mu, point.proximity) == (own.tau, own.mu, own.proximity)


@pytest.mark.parametrize("change,message", [
    (lambda it: replace(it, tau=-1.0), "tau not positive at mu="),
    (lambda it: replace(it, tau=0.0), "tau not positive at mu="),
    (lambda it: replace(it, x=np.array([2.0])), "interiority lost at mu="),
    (lambda it: replace(it, proximity=1.0), "proximity 1.000e+00 above kappa at mu="),
    (lambda it: replace(it, mu=4.0 * it.mu), "gap sandwich violated at mu="),
    (lambda it: replace(it, tau=0.1), "tau 1.000000e-01 below floor 1.875000e-01 at mu="),
], ids=["tau", "tau-zero", "interiority", "proximity", "sandwich", "tau-floor"])
def test_check_invariants_reports_each_broken_invariant(box_problem, box_run, change, message):
    # one field of a mu >= 1 iterate changed per case, with the stop
    # parameters follow formed for the iterate; the unchanged iterate
    # appends nothing, and no case raises or warns (the gap sandwich is
    # not formed where tau <= 0)
    problem, start = box_problem
    it = box_run.iterates[3]
    assert it.mu >= 1.0
    sp = dd.stop_params(problem, start, it.x, it.tau, it.y)
    violations = []
    path_module._check_invariants(problem, start, it, sp, violations)
    assert violations == []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path_module._check_invariants(problem, start, change(it), sp, violations)
    assert caught == []
    assert any(v.startswith(message) for v in violations), violations


def test_check_invariants_skips_the_sandwich_off_the_dual_cone(soc_problem, soc_run):
    # y negated leaves D*, where the objective gap is +inf: interiority is
    # reported lost, the sandwich is not checked, and nothing raises or
    # warns.  On the box, the dual domain is the whole line
    problem, start = soc_problem
    for it in soc_run.iterates:
        it = replace(it, y=-it.y)
        sp = dd.stop_params(problem, start, it.x, it.tau, it.y)
        assert sp.objective_gap == np.inf
        violations = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            path_module._check_invariants(problem, start, it, sp, violations)
        assert caught == []
        assert f"interiority lost at mu={it.mu:.3e}" in violations
        assert not any("gap sandwich" in v for v in violations), violations


def test_dual_equation_residual_has_one_owner(soc_problem, soc_run, monkeypatch):
    # the follower's dual residual, the model's dual_residual and the
    # restoration all read the model's one residual function: patching it
    # moves all three
    problem, start = soc_problem
    it = soc_run.iterates[3]
    assert path_module.dual_equation_residual is model_module.dual_equation_residual
    original = model_module.dual_equation_residual
    before = (path_module.residuals(problem, start, it).r_dual,
              dual_residual(problem, start, it.tau, it.y),
              path_module._restore_dual_equality(problem, start, it.tau, it.y))
    shift = np.linspace(1e-3, 2e-3, problem.n)

    def shifted(*args):
        return original(*args) + shift
    for module in (model_module, path_module):
        monkeypatch.setattr(module, "dual_equation_residual", shifted)
    r = original(problem, start, it.tau, it.y) + shift
    Q, r_inv_t = problem.qr_factors
    after = (path_module.residuals(problem, start, it).r_dual,
             dual_residual(problem, start, it.tau, it.y),
             path_module._restore_dual_equality(problem, start, it.tau, it.y))
    assert np.array_equal(after[0], r) and not np.array_equal(before[0], r)
    assert after[1] == math.sqrt(r.dot(r)) and before[1] < 1e-3
    assert np.array_equal(after[2], it.y - Q @ (r_inv_t @ r))
    assert not np.array_equal(after[2], before[2])


@pytest.mark.parametrize("fixture,run", [("box_problem", "box_run"),
                                         ("soc_problem", "soc_run")])
def test_membership_and_invariants_share_the_dual_tolerance(fixture, run, request):
    # y moved along w with A'w a unit vector, so that the dual residual
    # lies just below, then just above, DUAL_EQ_TOL * (1 + ||c||): in_qdd
    # and the per-iterate invariant accept the first point, reject the second
    problem, start = request.getfixturevalue(fixture)
    it = request.getfixturevalue(run).iterates[3]
    tol = DUAL_EQ_TOL * (1.0 + np.linalg.norm(problem.c))
    assert problem.dual_eq_tol == tol
    assert dual_residual(problem, start, it.tau, it.y) < 1e-6 * tol
    Q, r_inv_t = problem.qr_factors
    w = Q @ (r_inv_t @ np.full(problem.n, problem.n ** -0.5))
    for scale, accepted in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
        y = it.y + (scale * tol) * w
        assert (dual_residual(problem, start, it.tau, y) <= tol) == accepted
        assert dd.model.in_qdd(problem, start, it.x, it.tau, y) == accepted
        violations = []
        path_module._check_invariants(problem, start, replace(it, y=y),
                                      dd.stop_params(problem, start, it.x, it.tau, y), violations)
        dual_flagged = [v for v in violations
                        if v.startswith("dual equality residual above tolerance at mu=")]
        assert (dual_flagged == []) == accepted, violations


def test_iteration_limit_status(box_problem):
    problem, start = box_problem
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6, max_iters=2))
    assert result.report.status == "IterationLimit"
    assert result.report.exit_code == 5
    # with no iteration allowed, the anchor alone is traced: no slope to fit
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6, max_iters=0))
    assert result.report.status == "IterationLimit"
    assert result.report.diagnostics["iterations"] == 0
    assert result.report.diagnostics["mu_log_slope"] == 0.0


@pytest.mark.parametrize("eps", [1e-110, np.float64(1e-110)], ids=["float", "numpy"])
def test_tiny_eps_has_no_mu_cap(box_problem, eps):
    # theta eps^3 underflows to 0.0 below eps ~ 1e-108: the cap is then
    # +inf, not a ZeroDivisionError (nor, for a numpy eps, a RuntimeWarning)
    problem, start = box_problem
    result = dd.follow(problem, start, dd.FollowerOptions(eps=eps, max_iters=3))
    assert result.report.status == "IterationLimit"


@pytest.mark.parametrize("eps", [1e-110, np.float64(1e-110)], ids=["float", "numpy"])
def test_tiny_eps_overflow_is_numerical_failure(box_problem, eps):
    # with no stop in reach, tau grows until a Python float's tau**3
    # raises OverflowError, which follow reports like any numerical trouble
    problem, start = box_problem
    result = dd.follow(problem, start, dd.FollowerOptions(eps=eps))
    assert result.report.status == "NumericalFailure"
    assert result.report.diagnostics["reason"].startswith("OverflowError")
    assert result.report.diagnostics["iterations"] < dd.FollowerOptions().max_iters


@pytest.fixture
def overflow_problem():
    # the anchor passes validation and make_start, but the first tangent's
    # A'HA overflows
    problem = dd.validate_problem([[1e200]], [1e-200], [dd.box(0, 0.0, 1.0)])
    return problem, dd.make_start(problem)


def test_numpy_overflow_in_a_step_is_numerical_failure(overflow_problem):
    # follow reports numpy's FloatingPointError, and no RuntimeWarning
    # escapes it
    result = dd.follow(*overflow_problem)
    assert result.report.status == "NumericalFailure"
    assert result.report.diagnostics["reason"].startswith("FloatingPointError: overflow")
    assert result.report.diagnostics["iterations"] == 0


@pytest.mark.parametrize("source,options,status", [
    ("box_problem", {"eps": 1e-6}, "EpsSolution"),
    ("inf_problem", {"eps": 1e-6}, "InfeasibilityCertificate"),
    ("unb_problem", {"eps": 1e-6}, "UnboundednessCertificate"),
    ("tangent_problem", {"eps": 1e-2, "max_iters": 300}, "IllConditioned"),
    ("inst_soc.dd", {"eps": 1e-6}, "NumericalFailure"),
    ("inst_box.dd", {"eps": 1e-6, "max_iters": 2}, "IterationLimit"),
    ("overflow_problem", {}, "NumericalFailure"),
])
def test_stop_params_formed_once_per_iterate(source, options, status, request,
                                             instance_path, monkeypatch):
    # follow forms each recorded iterate's stop parameters once, and every
    # report on an iterate reads them: the final report's gap, P_feas and
    # D_feas are the trace's last row.  Only the re-verification of an
    # EpsSolution's optimal pair forms them again, from the certificate
    if source.endswith(".dd"):
        problem, start = parse_problem_file(instance_path(source))
    else:
        problem, start = request.getfixturevalue(source)
    probe = Probe(monkeypatch)
    probe.count(dd.status, "stop_params")
    result = dd.follow(problem, start, dd.FollowerOptions(**options))
    assert result.report.status == status
    assert probe["stop_params"] == len(result.trace) + (status == "EpsSolution")
    last, diagnostics = result.trace[-1], result.report.diagnostics
    assert ((diagnostics["gap"], diagnostics["p_feas"], diagnostics["d_feas"])
            == (last.gap, last.p_feas, last.d_feas))


def test_feasibility_measure_bound_on_box(box_run, box_problem):
    # strictly feasible case: tau - 1 >= sigma_f * mu - 1/sigma_f at every
    # iterate satisfying support(y) + y_tau <= 0
    problem, start = box_problem
    sigma_f = oracle_sigma_f(OracleInstance(problem, box=((-3.0, 3.0),)), start)
    assert feasibility_bound_failures(problem, start, box_run.iterates, sigma_f) == []


def _random_strictly_feasible_problem(rng):
    """Random mixed-atom instance made strictly primal-dual feasible by
    construction: bounds/offsets placed around a random image point, and
    c = -A'y for a random dual-interior y."""
    n = int(rng.integers(1, 4))
    kinds = rng.choice(["halfline_lower", "halfline_upper", "box", "soc"],
                       size=rng.integers(1, 4))
    atoms, coord, y_int = [], 0, []
    for kind in kinds:
        if kind == "soc":
            k = int(rng.integers(2, 4))
            atoms.append(dd.soc(range(coord, coord + k), rng.normal(size=k)))
            tail = rng.normal(size=k - 1)
            y_int.extend([-(np.linalg.norm(tail) + rng.uniform(0.2, 2.0)), *tail])
            coord += k
        elif kind == "halfline_lower":
            atoms.append(dd.halfline_lower(coord, rng.normal(), rng.normal()))
            y_int.append(-rng.uniform(0.2, 2.0))
            coord += 1
        elif kind == "halfline_upper":
            atoms.append(dd.halfline_upper(coord, rng.normal(), rng.normal()))
            y_int.append(rng.uniform(0.2, 2.0))
            coord += 1
        else:
            lo = rng.normal()
            atoms.append(dd.box(coord, lo, lo + rng.uniform(0.5, 3.0), rng.normal()))
            y_int.append(rng.normal())
            coord += 1
    m = coord
    if m < n:
        return None
    A = rng.normal(size=(m, n))
    barrier = dd.DomainBarrier(atoms, m)
    # anchor a strictly interior image point and shift offsets onto it
    x_int = rng.normal(size=n)
    z_target = np.zeros(m)
    for atom in atoms:
        idx = np.asarray(atom.coords)
        if atom.kind == "soc":
            w = np.concatenate([[np.linalg.norm(rng.normal(size=len(idx) - 1)) + 1.0],
                                rng.normal(size=len(idx) - 1)])
            w[0] += np.linalg.norm(w[1:])
            z_target[idx] = w - atom.offset_vec
        elif atom.kind == "halfline_lower":
            z_target[idx] = atom.lower - atom.offset_vec + rng.uniform(0.3, 2.0)
        elif atom.kind == "halfline_upper":
            z_target[idx] = atom.upper - atom.offset_vec - rng.uniform(0.3, 2.0)
        else:
            z_target[idx] = 0.5 * (atom.lower + atom.upper) - atom.offset_vec
    shift = z_target - A @ x_int
    shifted_atoms = []
    for atom in atoms:
        idx = np.asarray(atom.coords)
        new_off = atom.offset_vec + shift[idx]
        if atom.kind == "soc":
            shifted_atoms.append(dd.soc(atom.coords, new_off))
        elif atom.kind == "halfline_lower":
            shifted_atoms.append(dd.halfline_lower(atom.coords[0], atom.lower, new_off[0]))
        elif atom.kind == "halfline_upper":
            shifted_atoms.append(dd.halfline_upper(atom.coords[0], atom.upper, new_off[0]))
        else:
            shifted_atoms.append(dd.box(atom.coords[0], atom.lower, atom.upper, new_off[0]))
    c = -A.T @ np.asarray(y_int)
    try:
        problem = dd.validate_problem(A, c, shifted_atoms)
    except dd.RankDeficient:
        return None
    assert problem.barrier.interior(A @ x_int, "primal")
    assert problem.barrier.interior(np.asarray(y_int), "conjugate")
    return problem


def test_random_strictly_feasible_instances_solve_clean():
    rng = np.random.default_rng(7)
    solved = 0
    while solved < 10:
        problem = _random_strictly_feasible_problem(rng)
        if problem is None:
            continue
        start = dd.make_start(problem)
        result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6))
        assert result.report.status == "EpsSolution", result.report.diagnostics
        assert result.invariant_violations == []
        solved += 1


def test_known_optimum_linear_instance():
    # min x1 + x2 over x1 >= 1, x2 >= 2, x1 + x2 <= 5: optimum 3 at (1, 2),
    # strictly feasible on both sides
    problem = dd.validate_problem(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0],
        [dd.halfline_lower(0, 1.0), dd.halfline_lower(1, 2.0), dd.halfline_upper(2, 5.0)])
    start = dd.make_start(problem)
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-8))
    assert result.report.status == "EpsSolution"
    assert result.invariant_violations == []
    assert result.report.objective_primal == pytest.approx(3.0, abs=1e-6)
    assert result.report.objective_estimate == pytest.approx(3.0, abs=1e-6)
    assert np.allclose(result.report.x, [1.0, 2.0], atol=1e-4)


def test_known_optimum_cone_instance():
    # min x2 over x2 >= ||(x1, 1)|| and x1 >= 1/2: optimum sqrt(5)/2 at
    # x1 = 1/2; dual optimum matches (maximize y3 + y2/2 on the unit disk)
    problem = dd.validate_problem(
        [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [0.0, 1.0],
        [dd.soc([0, 1, 2], [0.0, 0.0, 1.0]), dd.halfline_lower(3, 0.5)])
    start = dd.make_start(problem)
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-8))
    assert result.report.status == "EpsSolution"
    assert result.invariant_violations == []
    optimum = np.sqrt(1.25)
    assert result.report.objective_primal == pytest.approx(optimum, abs=1e-6)
    assert result.report.objective_estimate == pytest.approx(optimum, abs=1e-6)
    assert result.report.x[0] == pytest.approx(0.5, abs=1e-4)


@pytest.fixture(scope="module")
def mixed_problem():
    # one halfline, one box and one cone block in a single product, dense A
    rng = np.random.default_rng(11)
    atoms = [dd.halfline_lower(0, -1.0, 0.5), dd.box(1, 0.0, 2.0),
             dd.soc([2, 3, 4], [0.0, 0.1, -0.2])]
    A = rng.normal(size=(5, 2))
    y_int = np.array([-0.5, 0.3, -2.0, 0.5, 0.7])
    problem = dd.validate_problem(A, -A.T @ y_int, atoms)
    return problem, dd.make_start(problem)


@pytest.fixture(scope="module")
def mixed_run(mixed_problem):
    problem, start = mixed_problem
    return dd.follow(problem, start, dd.FollowerOptions(eps=1e-6))


def test_mixed_atom_product_solves_clean(mixed_run):
    result = mixed_run
    assert result.report.status == "EpsSolution"
    assert result.invariant_violations == []
    # primal value and dual estimate agree at termination
    assert result.report.objective_primal == pytest.approx(
        result.report.objective_estimate, abs=1e-5)


def test_two_point_tau_bound_across_iterates(box_run, box_problem, soc_run, soc_problem):
    # for any two tracked points:  mu_a*tau_b^2 + mu_b*tau_a^2
    #   <= xi/(xi-1-kappa) * tau_a*tau_b*(mu_a + mu_b)
    for run, (problem, _) in ((box_run, box_problem), (soc_run, soc_problem)):
        coef = problem.xi / (problem.xi - 1.0 - problem.kappa)
        pts = run.iterates[:: max(1, len(run.iterates) // 12)]
        for a in pts:
            for b in pts:
                lhs = a.mu * b.tau**2 + b.mu * a.tau**2
                rhs = coef * a.tau * b.tau * (a.mu + b.mu)
                assert lhs <= rhs * (1.0 + 1e-9)


def test_zero_gap_pair_bounds_mu_on_box(box_run, box_problem):
    # (x, y) = (0, -1) is primal-dual feasible with zero duality gap, so
    # mu <= [(xi*theta + <y0 - y, z0 - Ax>) / ((xi-1)*theta - kappa*sqrt(theta))] * tau
    problem, start = box_problem
    xbar = np.zeros(1)
    ybar = np.array([-1.0])
    assert dd.support_function(problem, ybar) + float(problem.c @ xbar) == pytest.approx(0.0)
    coef = (problem.xi * problem.theta
            + float((start.y0 - ybar) @ (start.z0 - problem.A @ xbar))) \
        / ((problem.xi - 1.0) * problem.theta - problem.kappa * np.sqrt(problem.theta))
    for it in box_run.iterates:
        assert it.mu <= coef * it.tau * (1.0 + 1e-9) + 1e-9
