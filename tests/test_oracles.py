"""Grid/bisection oracles versus analytic ground truth."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import ddsolve as dd
from ddsolve.model import dual_residual
from oracles import (
    NewtonDivergence,
    OracleInstance,
    compute_xbar1,
    exact_dual_residual_sq,
    exact_mu_forms,
    false_passes,
    feasibility_bound_failures,
    mu_forms_agree,
    oracle_sigma_f,
    oracle_sigma_p,
    oracle_tp,
)


@pytest.fixture(scope="module")
def inf_inst(inf_problem):
    problem, _ = inf_problem
    return OracleInstance(problem, box=((-3.0, 3.0),))


@pytest.fixture(scope="module")
def box_inst(box_problem):
    problem, _ = box_problem
    return OracleInstance(problem, box=((-3.0, 3.0),))


def test_sigma_p_infeasible_matches_analytic(inf_inst):
    # minimize (x - z1)^2 + (-x - z2)^2 over z1 >= 0, z2 >= 1: optimum at
    # x = -1/2 with distance 1/sqrt(2)
    assert oracle_sigma_p(inf_inst) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-3)


def test_sigma_p_zero_on_feasible(box_inst, unb_problem):
    assert oracle_sigma_p(box_inst) == pytest.approx(0.0, abs=1e-6)
    inst = OracleInstance(unb_problem[0], box=((-3.0, 3.0),))
    assert oracle_sigma_p(inst) == pytest.approx(0.0, abs=1e-6)


def test_tp_finite_on_infeasible(inf_inst, inf_problem):
    # x + 1/t >= 0 and -x + 2/t >= 1 admit a common x exactly when t <= 3
    _, start = inf_problem
    tp = oracle_tp(inf_inst, start.z0)
    assert tp == pytest.approx(3.0, abs=1e-3)


def test_tp_infinite_on_feasible(box_inst, box_problem):
    _, start = box_problem
    assert np.isinf(oracle_tp(box_inst, start.z0))


def test_sigma_p_bounded_by_z0_over_tp(inf_inst, inf_problem):
    # sigma_p <= ||z0|| / t_p(z0)
    _, start = inf_problem
    sigma_p = oracle_sigma_p(inf_inst)
    tp = oracle_tp(inf_inst, start.z0)
    assert sigma_p <= float(np.linalg.norm(start.z0)) / tp + 1e-3


def test_center_point_box(box_inst, box_problem):
    # minimize -ln x - ln(1-x) + x: stationarity gives x^2 - 3x + 1 = 0,
    # interior root (3 - sqrt(5))/2
    problem, _ = box_problem
    center = compute_xbar1(box_inst)
    assert center.x[0] == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, abs=1e-9)
    # first-order optimality A'y = -c
    assert np.max(np.abs(problem.A.T @ center.y + problem.c)) <= 1e-8
    # <y, Ax> + y_tau = -xi*theta by definition
    lhs = float(center.y @ (problem.A @ center.x)) + center.y_tau
    assert lhs == pytest.approx(-problem.xi * problem.theta, rel=1e-12)
    # support(y) + y_tau <= -(xi - 1) * theta
    ds = dd.support_function(problem, center.y)
    assert ds + center.y_tau <= -(problem.xi - 1.0) * problem.theta + 1e-10


def test_center_diverges_without_interior(inf_inst):
    with pytest.raises(NewtonDivergence):
        compute_xbar1(inf_inst)


def test_sigma_f_box_analytic(box_inst, box_problem):
    # condition (2) binds first: (x* - alpha/2)/(1 - alpha) >= 0 fails at
    # alpha = 2 x* = 3 - sqrt(5)
    problem, start = box_problem
    sigma_f = oracle_sigma_f(box_inst, start)
    assert sigma_f > 0.0
    assert sigma_f == pytest.approx(3.0 - np.sqrt(5.0), abs=1e-6)


def test_sigma_f_admissible_set_is_interval(box_inst, box_problem):
    # dense alpha scan: admissible then inadmissible, no alternation
    problem, start = box_problem
    center = compute_xbar1(box_inst)
    z_center = problem.A @ center.x

    def admissible(alpha):
        y = center.y - alpha * start.y0
        if problem.barrier.min_margin(y, "conjugate") < 0.0:
            return False
        z = (z_center - alpha * start.z0) / (1.0 - alpha)
        if problem.barrier.min_margin(z, "primal") < 0.0:
            return False
        ds = dd.support_function(problem, y)
        return bool(np.isfinite(ds) and ds + center.y_tau - alpha * start.y_tau0 <= 0.0)

    assert admissible(0.0)
    flags = [admissible(a) for a in np.linspace(0.0, 0.999, 400)]
    switches = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    assert switches == 1


def test_two_dimensional_oracle_grid():
    # cone + halfline instance with two variables: exercises the meshgrid
    # search path and the feasibility-measure bound away from 1-d cases
    problem = dd.validate_problem(
        [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [0.0, 1.0],
        [dd.soc([0, 1, 2], [0.0, 0.0, 1.0]), dd.halfline_lower(3, 0.5)])
    start = dd.make_start(problem)
    inst = OracleInstance(problem, box=((-3.0, 3.0), (-3.0, 3.0)))
    center = compute_xbar1(inst)
    assert np.max(np.abs(problem.A.T @ center.y + problem.c)) <= 1e-8
    assert oracle_sigma_p(inst) == pytest.approx(0.0, abs=1e-6)
    assert np.isinf(oracle_tp(inst, start.z0))
    sigma_f = oracle_sigma_f(inst, start)
    run = dd.follow(problem, start, dd.FollowerOptions(eps=1e-8))
    assert feasibility_bound_failures(problem, start, run.iterates, sigma_f) == []


def test_oracle_instance_size_limits(box_problem):
    problem, _ = box_problem
    with pytest.raises(ValueError):
        OracleInstance(problem, box=((-1.0, 1.0), (-1.0, 1.0)))
    big = dd.validate_problem(np.eye(5), np.ones(5),
                              [dd.halfline_lower(i) for i in range(5)])
    with pytest.raises(ValueError):
        OracleInstance(big, box=tuple(((-1.0, 1.0),) * 5))


def test_exact_dual_residual_matches_fraction_arithmetic():
    # entries spread over 2^-60..2^60, so the integers carry wide shifts
    rng = np.random.default_rng(11)
    m, n = 5, 3
    wide = lambda *shape: rng.standard_normal(shape) * 2.0 ** rng.integers(-60, 60, shape)
    problem = dd.validate_problem(wide(m, n), wide(n), [dd.halfline_lower(i, 0.0)
                                                          for i in range(m)])
    start = replace(dd.make_start(problem), y0=wide(m))
    y, tau = wide(m), 1.0 + 2.0 ** -30
    F = lambda v: Fraction(float(v))
    r = [sum(F(problem.A[i, j]) * (F(y[i]) - F(start.y0[i])) for i in range(m))
         + (F(tau) - 1) * F(problem.c[j]) for j in range(n)]
    assert exact_dual_residual_sq(problem, start, tau, y) == sum(v * v for v in r)
    empty = dd.validate_problem(np.zeros((1, 0)), [], [dd.halfline_lower(0, 0.0)])
    assert exact_dual_residual_sq(empty, dd.make_start(empty), tau, [-1.0]) == 0


def test_false_pass_is_a_float_pass_the_exact_residual_fails():
    # A = fl(1/3), y0 = 0, c = -1: with tau - 1 = 1e9 and y = 3e9 the
    # product A y rounds to 1e9 and the float residual is 0, while the
    # exact one is 3e9 fl(1/3) - 1e9 = -5.6e-8, above the tolerance 2e-9;
    # with tau = 2 and y = 3 the exact residual -5.6e-17 is within it; and
    # y = 5e9 fails both checks
    problem = dd.validate_problem([[1.0 / 3.0]], [-1.0], [dd.halfline_lower(0, -1.0)])
    start = replace(dd.make_start(problem), y0=np.zeros(1))
    point = lambda tau, y: dd.Iterate(x=np.zeros(1), tau=tau, y=np.array([y]), mu=1.0,
                                      proximity=np.nan)
    iterates = [point(1e9 + 1.0, 3e9), point(2.0, 3.0), point(1e9 + 1.0, 5e9)]
    assert [dual_residual(problem, start, it.tau, it.y) for it in iterates[:2]] == [0.0, 0.0]
    assert exact_dual_residual_sq(problem, start, 1e9 + 1.0, [3e9]) > problem.dual_eq_tol**2
    assert false_passes(problem, start, iterates) == 1


@pytest.mark.parametrize("fixture,run", [("box_problem", "box_run"), ("soc_problem", "soc_run")])
def test_exact_mu_forms_fail_off_the_dual_equation(fixture, run, request):
    # f1 and f2 are one rational and f2 - f3 = -tau <r, x> / (xi theta),
    # r = A'y - A'y0 + (tau - 1) c with A'y0 as formed: the forms agree on
    # the run's last iterate, and a y off the dual equation by 1e-6
    # relative puts f3 further from f2 than the 1e-9 bound
    problem, start = request.getfixturevalue(fixture)
    it = request.getfixturevalue(run).iterates[-1]
    F = lambda v: [Fraction(a) for a in np.asarray(v, dtype=float).ravel().tolist()]
    tau, xith = Fraction(it.tau), Fraction(problem.xi * problem.theta)
    for y, agree in ((it.y, True), (it.y * (1.0 + 1e-6), False)):
        f1, f2, f3 = exact_mu_forms(problem, start, it.x, it.tau, y)
        r = [sum(a * b for a, b in zip(F(column), F(y))) - d + (tau - 1) * c
             for column, d, c in zip(problem.A.T, F(start.aty0), F(problem.c))]
        assert f1 == f2
        assert f2 - f3 == -tau * sum(a * b for a, b in zip(r, F(it.x))) / xith
        assert mu_forms_agree(f1, f2, f3) is agree
    # floats are checked in float arithmetic against the same bound
    assert mu_forms_agree(1.0, 1.0 + 0.5e-9, 1.0) and not mu_forms_agree(1.0, 1.0 + 2e-9, 1.0)
