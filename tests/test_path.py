"""Predictor-corrector mechanics and end-to-end follower behavior."""

from dataclasses import replace

import numpy as np
import pytest

import ddsolve as dd
import ddsolve.path as path_module
from ddsolve.model import make_iterate, shifted_image
from oracles import OracleInstance, oracle_sigma_f
from ddsolve.path import _kkt_solve


def test_residuals_vanish_at_initial_point(box_problem):
    problem, start = box_problem
    res = dd.residuals(problem, start, np.zeros(1), 1.0, start.y0, 1.0)
    assert np.allclose(res.r_dual, 0.0, atol=1e-14)
    assert np.allclose(res.r_cent, 0.0, atol=1e-14)
    assert res.r_gap == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("fixture", ["box_problem", "inf_problem", "soc_problem"])
def test_residuals_at_doubled_parameter(fixture, request):
    # at the mu=1 anchor evaluated with mu=2: the centering residual is
    # y0 - 2*Phi'(z0) = -y0 and the gap residual collapses to theta*xi
    problem, start = request.getfixturevalue(fixture)
    res = dd.residuals(problem, start, np.zeros(problem.n), 1.0, start.y0, 2.0)
    assert np.allclose(res.r_cent, -start.y0, atol=1e-12)
    assert res.r_gap == pytest.approx(problem.theta * problem.xi, rel=1e-12)


def test_residuals_raise_outside_domain(box_problem):
    problem, start = box_problem
    with pytest.raises(dd.DomainViolation):
        dd.residuals(problem, start, np.array([5.0]), 1.0, start.y0, 1.0)
    with pytest.raises(dd.DomainViolation):
        dd.residuals(problem, start, np.zeros(1), -1.0, start.y0, 1.0)


def test_corrector_fixed_point_on_path(box_problem):
    problem, start = box_problem
    point = make_iterate(problem, start, np.zeros(1), 1.0, start.y0)
    out = dd.corrector_step(problem, start, point, 1.0)
    assert np.allclose(out.x, point.x, atol=1e-12)
    assert out.tau == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.y, point.y, atol=1e-12)


def test_corrector_returns_to_known_path_point(box_problem):
    # the mu=1 path point is (0, 1, y0) by construction and unique; a
    # perturbed start must come back to it
    problem, start = box_problem
    x = np.array([1e-3])
    point = dd.Iterate(x=x, tau=1.0, y=start.y0.copy(), mu=1.0, proximity=np.nan)
    opts = dd.FollowerOptions(corrector_max_steps=5)
    out = dd.corrector_step(problem, start, point, 1.0, opts)
    assert out.proximity <= 0.5 * problem.kappa
    assert abs(out.x[0]) <= 1e-8
    assert abs(out.tau - 1.0) <= 1e-8
    assert abs(out.y[0] - start.y0[0]) <= 1e-8


def test_corrector_stall_raises(box_problem):
    problem, start = box_problem
    x = np.array([1e-3])
    point = dd.Iterate(x=x, tau=1.0, y=start.y0.copy(), mu=1.0, proximity=np.nan)
    with pytest.raises(dd.CorrectorStall):
        dd.corrector_step(problem, start, point, 1.0, dd.FollowerOptions(corrector_max_steps=1))


@pytest.mark.parametrize("x,tau,message", [
    (5.0, 1.0, "shifted image point left the domain interior"),
    (0.0, -1.0, "tau must be positive"),
])
def test_corrector_rejects_start_outside_domain(box_problem, x, tau, message):
    problem, start = box_problem
    point = dd.Iterate(x=np.array([x]), tau=tau, y=start.y0.copy(), mu=1.0, proximity=np.nan)
    with pytest.raises(dd.DomainViolation, match=message):
        dd.corrector_step(problem, start, point, 1.0)


@pytest.mark.parametrize("fixture,run", [("box_problem", "box_run"),
                                         ("inf_problem", "inf_run"),
                                         ("unb_problem", "unb_run")])
def test_scaled_residuals_small_at_iterates(fixture, run, request):
    problem, start = request.getfixturevalue(fixture)
    result = request.getfixturevalue(run)
    for it in result.iterates[1:]:
        res = dd.residuals(problem, start, it.x, it.tau, it.y, it.mu)
        assert res.scaled_norm(problem, start, it.x, it.tau, it.y, it.mu) <= 1e-8


def test_predictor_tangent_satisfies_dual_equation(box_problem):
    problem, start = box_problem
    point = make_iterate(problem, start, np.zeros(1), 1.0, start.y0)
    u = shifted_image(problem, start, point.x, point.tau)
    g = problem.barrier.grad(u, "primal")
    tx, ttau, ty = _kkt_solve(
        problem, start, point.x, point.tau, point.y, point.mu, u, g,
        np.zeros(problem.n), g / point.tau,
        -problem.theta * problem.xi / point.tau**2)
    resid = problem.A.T @ ty + ttau * problem.c
    assert np.max(np.abs(resid)) <= 1e-9


def test_predictor_increases_mu_and_respects_neighborhood(box_problem):
    problem, start = box_problem
    point = make_iterate(problem, start, np.zeros(1), 1.0, start.y0)
    predicted, mu_new = dd.predictor_step(problem, start, point)
    assert mu_new > 1.0
    assert dd.proximity_at(problem, start, predicted.x, predicted.tau, predicted.y,
                           mu_new) <= 2.0 * problem.kappa
    # composition: the corrector restores the inner neighborhood
    corrected = dd.corrector_step(problem, start, predicted, mu_new)
    assert corrected.proximity <= 0.5 * problem.kappa


def test_predictor_interiority_preserved(soc_problem):
    problem, start = soc_problem
    point = make_iterate(problem, start, np.zeros(problem.n), 1.0, start.y0)
    for _ in range(5):
        predicted, mu_new = dd.predictor_step(problem, start, point)
        u = shifted_image(problem, start, predicted.x, predicted.tau)
        assert problem.barrier.min_margin(u, "primal") > 0.0
        assert problem.barrier.min_margin(predicted.y, "conjugate") > 0.0
        point = dd.corrector_step(problem, start, predicted, mu_new)


def _first_order_predictor(problem, start, point, options=dd.FollowerOptions()):
    """Reference first-order predictor: trial points p + dmu * t, dmu
    halved from the fraction-to-boundary cap along the tangent t until
    proximity at mu + dmu is within the outer radius."""
    mu, x, tau, y = point.mu, point.x, point.tau, point.y
    u = shifted_image(problem, start, x, tau)
    g = problem.barrier.grad(u, "primal")
    tx, ttau, ty = _kkt_solve(problem, start, x, tau, y, mu, u, g, np.zeros(problem.n),
                              g / tau, -problem.theta * problem.xi / tau**2)
    dmu = options.predictor_trial_factor * mu
    if ttau < 0.0:
        dmu = min(dmu, options.boundary_fraction * tau / (-ttau))
    dmu = min(dmu, options.boundary_fraction
              * problem.barrier.step_to_boundary(y, ty, "conjugate"))
    du = problem.A @ tx - start.z0 * (ttau / tau**2)
    dmu = min(dmu, options.boundary_fraction
              * problem.barrier.step_to_boundary(u, du, "primal"))
    while True:
        xn, taun, yn = x + dmu * tx, tau + dmu * ttau, y + dmu * ty
        if (taun > 0.0 and problem.barrier.interior(yn, "conjugate")
                and problem.barrier.interior(shifted_image(problem, start, xn, taun), "primal")):
            prox = dd.proximity_at(problem, start, xn, taun, yn, mu + dmu)
            if prox <= options.predictor_radius * problem.kappa:
                return xn, taun, yn, mu + dmu, prox
        dmu *= 0.5


def _predict_and_correct(problem, start, steps):
    """``steps`` iterations of the follower's loop with one tangent memo;
    yields (point, predicted, mu_new) per iteration."""
    point = make_iterate(problem, start, np.zeros(problem.n), 1.0, start.y0)
    memo = {}
    for _ in range(steps):
        predicted, mu_new = dd.predictor_step(problem, start, point, memo=memo)
        yield point, predicted, mu_new
        point = dd.corrector_step(problem, start, predicted, mu_new)


@pytest.mark.parametrize("fixture", ["box_problem", "inf_problem", "soc_problem"])
def test_predictor_without_previous_tangent_is_first_order(fixture, request):
    # a direct call, and the first call of a run, step along the tangent
    # exactly as the first-order predictor does
    problem, start = request.getfixturevalue(fixture)
    points = [point for point, _, _ in _predict_and_correct(problem, start, 4)]
    for point in points:
        xr, taur, yr, mur, proxr = _first_order_predictor(problem, start, point)
        for memo in (None, {}):
            predicted, mu_new = dd.predictor_step(problem, start, point, memo=memo)
            assert np.array_equal(predicted.x, xr) and np.array_equal(predicted.y, yr)
            assert (predicted.tau, predicted.mu, mu_new, predicted.proximity) == \
                (taur, mur, mur, proxr)


@pytest.mark.parametrize("fixture", ["box_problem", "soc_problem", "tangent_problem"])
def test_curve_points_keep_dual_equation_and_neighborhood(fixture, request):
    # after the first iteration the trial points lie on the second-order
    # curve; each accepted one keeps the dual linear equation of the point
    # it left, lies beyond its mu at its own path parameter, and is within
    # the outer radius there
    problem, start = request.getfixturevalue(fixture)
    curve_points = 0
    for k, (point, predicted, mu_new) in enumerate(_predict_and_correct(problem, start, 8)):
        first_order = dd.predictor_step(problem, start, point)[0]
        if k == 0:
            assert np.array_equal(predicted.x, first_order.x)
            continue
        assert not np.array_equal(predicted.x, first_order.x)
        curve_points += 1
        moved = (problem.A.T @ (predicted.y - point.y)
                 + (predicted.tau - point.tau) * problem.c)
        assert np.max(np.abs(moved)) <= 1e-9
        own = dd.mu_of(problem, start, predicted.x, predicted.tau, predicted.y)
        assert predicted.mu == mu_new == own > point.mu
        prox = dd.proximity_at(problem, start, predicted.x, predicted.tau, predicted.y, own)
        assert prox == predicted.proximity <= 2.0 * problem.kappa
    assert curve_points == 7


@pytest.mark.parametrize("fixture", ["box_problem", "inf_problem", "soc_problem"])
def test_curve_bending_back_is_not_accepted(fixture, request):
    # a previous tangent five times this one, one unit of s back, bends the
    # curve back along the path for the larger trial steps; those points
    # are near the path at a smaller own mu and must be passed over
    problem, start = request.getfixturevalue(fixture)
    point = list(_predict_and_correct(problem, start, 4))[-1][0]
    memo = {}
    dd.predictor_step(problem, start, point, memo=memo)
    s, vel = memo["tangent"]
    predicted, mu_new = dd.predictor_step(problem, start, point,
                                          memo={"tangent": (s - 1.0, 5.0 * vel)})
    own = dd.mu_of(problem, start, predicted.x, predicted.tau, predicted.y)
    assert predicted.mu == mu_new == own > point.mu


def _two_cone_problem(rng, n=12, k=12):
    """Two SOC(k) atoms on a random n-column embedding, strictly primal-dual
    feasible by construction as in _random_strictly_feasible_problem."""
    A = rng.normal(size=(2 * k, n))
    x_int = rng.normal(size=n)
    atoms, y_int = [], []
    for first in (0, k):
        w = rng.normal(size=k)
        w[0] = np.linalg.norm(w[1:]) + rng.uniform(0.5, 2.0)
        atoms.append(dd.soc(range(first, first + k), w - A[first:first + k] @ x_int))
        tail = rng.normal(size=k - 1)
        y_int.extend([-(np.linalg.norm(tail) + rng.uniform(0.2, 2.0)), *tail])
    problem = dd.validate_problem(A, -A.T @ np.asarray(y_int), atoms)
    assert problem.barrier.interior(A @ x_int, "primal")
    assert problem.barrier.interior(np.asarray(y_int), "conjugate")
    return problem


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_two_cone_instance_solves_in_few_iterations(seed):
    # the first-order predictor takes 77 to 150 iterations on these seeds
    problem = _two_cone_problem(np.random.default_rng(seed))
    result = dd.follow(problem, dd.default_z0(problem), dd.FollowerOptions(eps=1e-6))
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
        mus = [row.mu for row in result.trace]
        assert all(b > a for a, b in zip(mus, mus[1:]))
        assert result.mu_log_slope > 0.0
        assert result.report.diagnostics["mu_log_slope"] == pytest.approx(result.mu_log_slope)


@pytest.mark.parametrize("xi,kappa", [(3.0, 0.5), (1.5, 0.25), (2.0, 0.1)])
def test_follower_with_other_neighborhood_constants(xi, kappa):
    problem = dd.validate_problem([[1.0]], [1.0], [dd.box(0, 0.0, 1.0)],
                                  xi=xi, kappa=kappa)
    start = dd.default_z0(problem)
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6))
    assert result.report.status == "EpsSolution"
    assert result.invariant_violations == []
    floor = (xi - 1.0 - kappa) / (2.0 * xi)
    for it in result.iterates:
        if it.mu >= 1.0:
            assert it.tau >= floor - 1e-8


class _GramCounter(np.ndarray):
    """An embedding matrix that counts the products A'A formed from it:
    matrix products whose operands are both views of it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and all(isinstance(v, _GramCounter) for v in inputs):
            type(self).products += 1
        plain = [np.asarray(v) if isinstance(v, _GramCounter) else v for v in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("fixture,run,eps", [("box_problem", "box_run", 1e-6),
                                             ("inf_problem", "inf_run", 1e-6),
                                             ("soc_problem", "soc_run", 1e-4)])
def test_evaluation_budget(fixture, run, eps, request, monkeypatch):
    # every Newton point is evaluated once: one primal gradient per
    # residuals call and per predictor tangent, one primal Hessian per
    # KKT solve, and A'A formed once per problem, not per corrector step
    base, start = request.getfixturevalue(fixture)
    reference = request.getfixturevalue(run)
    problem = replace(base, A=base.A.view(_GramCounter))
    monkeypatch.setattr(_GramCounter, "products", 0)
    counts = dict.fromkeys(["grad", "hess", "residuals", "tangents", "kkt"], 0)

    def count_primal(name):
        original = getattr(dd.barriers.DomainBarrier, name)

        def wrapped(self, z, side="primal"):
            counts[name] += side == "primal"
            return original(self, z, side)
        monkeypatch.setattr(dd.barriers.DomainBarrier, name, wrapped)

    def count_calls(name, key):
        original = getattr(path_module, name)

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(path_module, name, wrapped)

    count_primal("grad")
    count_primal("hess")
    count_calls("residuals", "residuals")
    count_calls("predictor_step", "tangents")
    count_calls("_kkt_solve", "kkt")

    result = dd.follow(problem, start, dd.FollowerOptions(eps=eps))
    # the counting wrappers do not perturb the run
    assert result.trace == reference.trace
    assert counts["residuals"] > 0 and counts["tangents"] == len(result.trace) - 1
    assert counts["grad"] == counts["residuals"] + counts["tangents"]
    assert counts["hess"] == counts["kkt"]
    assert _GramCounter.products == 1
    dd.follow(problem, start, dd.FollowerOptions(eps=1e-6, max_iters=3))
    assert _GramCounter.products == 1


@pytest.mark.parametrize("fixture,run", [("box_problem", "box_run"),
                                         ("inf_problem", "inf_run"),
                                         ("soc_problem", "soc_run")])
def test_reused_evaluations_match_public_functions(fixture, run, request):
    # the follower hands each point's shifted image on instead of forming
    # it again; the public function, forming everything itself, must give
    # every recorded proximity bit for bit
    problem, start = request.getfixturevalue(fixture)
    for it in request.getfixturevalue(run).iterates:
        assert dd.proximity_at(problem, start, it.x, it.tau, it.y, it.mu) == it.proximity


def test_iteration_limit_status(box_problem):
    problem, start = box_problem
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6, max_iters=2))
    assert result.report.status == "IterationLimit"
    assert result.report.exit_code == 5


def test_feasibility_measure_bound_on_box(box_run, box_problem):
    # strictly feasible case: tau - 1 >= sigma_f * mu - 1/sigma_f at every
    # iterate satisfying support(y) + y_tau <= 0
    problem, start = box_problem
    inst = OracleInstance(problem, box=((-3.0, 3.0),))
    sigma_f = oracle_sigma_f(inst, start)
    assert sigma_f > 0.0
    qualifying = 0
    for it in box_run.iterates:
        y_tau = start.y_tau0 + it.tau * float(problem.c @ it.x)
        ds = dd.support_function(problem, it.y)
        if np.isfinite(ds) and ds + y_tau <= 0.0:
            qualifying += 1
            assert it.tau - 1.0 >= sigma_f * it.mu - 1.0 / sigma_f - 1e-8
    assert qualifying > 0


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
        start = dd.default_z0(problem)
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
    start = dd.default_z0(problem)
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
    start = dd.default_z0(problem)
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-8))
    assert result.report.status == "EpsSolution"
    assert result.invariant_violations == []
    optimum = np.sqrt(1.25)
    assert result.report.objective_primal == pytest.approx(optimum, abs=1e-6)
    assert result.report.objective_estimate == pytest.approx(optimum, abs=1e-6)
    assert result.report.x[0] == pytest.approx(0.5, abs=1e-4)


def test_mixed_atom_product_solves_clean():
    # one halfline, one box and one cone block in a single product, dense A
    rng = np.random.default_rng(11)
    atoms = [dd.halfline_lower(0, -1.0, 0.5), dd.box(1, 0.0, 2.0),
             dd.soc([2, 3, 4], [0.0, 0.1, -0.2])]
    A = rng.normal(size=(5, 2))
    y_int = np.array([-0.5, 0.3, -2.0, 0.5, 0.7])
    problem = dd.validate_problem(A, -A.T @ y_int, atoms)
    start = dd.default_z0(problem)
    result = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6))
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
