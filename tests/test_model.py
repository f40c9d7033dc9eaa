"""Problem validation, start data, and the path scalar functionals."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ddsolve as dd
from ddsolve.model import (_cholesky_full_rank, dual_residual, make_iterate, mu_of, scaled_dual,
                           shifted_image)
from conftest import caller_rows
from oracles import gap_sandwich_failures, mu_forms_agree
from probe import Probe


def mu_forms(problem, start, x, tau, y):
    """All three algebraic forms of the path parameter (they agree on Q)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = float(tau)
    xith = problem.xi * problem.theta
    u = shifted_image(problem, start, x, tau)
    cx = float(problem.c @ x)
    f1 = tau / xith * (-start.y_tau0 - tau * cx - float(y @ u))
    f2 = -(float(y @ start.z0) + tau * (start.y_tau0 + float(y @ (problem.A @ x)))
           + tau * tau * cx) / xith
    f3 = mu_of(problem, start, x, tau, y)
    return f1, f2, f3


def test_validate_two_halflines():
    problem = dd.validate_problem([[1.0], [-1.0]], [1.0],
                                  [dd.halfline_lower(0, 0.0), dd.halfline_lower(1, 1.0)])
    assert problem.theta == 2.0
    assert problem.m == 2 and problem.n == 1


def test_validate_rank_deficient():
    with pytest.raises(dd.RankDeficient):
        dd.validate_problem([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0],
                            [dd.halfline_lower(0), dd.halfline_lower(1)])
    with pytest.raises(dd.RankDeficient):
        # wide embedding always has a kernel
        dd.validate_problem([[1.0, 2.0]], [0.0, 0.0], [dd.halfline_lower(0)])


def svd_rank_message(A):
    """The SVD's rank decision: its RankDeficient message, or None."""
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        return f"smallest singular value {sv[-1]:.3e} below 1e-10 * ||A|| = {1e-10 * sv[0]:.3e}"
    return None


def with_singular_values(rng, m, s):
    """An m x len(s) matrix with singular values s and random singular vectors."""
    U, _ = np.linalg.qr(rng.standard_normal((m, len(s))))
    V, _ = np.linalg.qr(rng.standard_normal((len(s), len(s))))
    return (U * s) @ V.T


def test_cholesky_screen_never_accepts_what_the_svd_rejects():
    # singular values log-uniform over 14 decades, up to 60 x 60, scaled
    # by a power of two; the screen may leave any A to the SVD, but it
    # accepts only A the SVD accepts, and every A with
    # sigma_min > 1e-3 sigma_max
    rng = np.random.default_rng(20)
    accepted = 0
    for _ in range(3000):
        m = int(rng.integers(1, 61))
        s = 10.0 ** rng.uniform(-14.0, 0.0, int(rng.integers(1, m + 1)))
        A = np.ldexp(with_singular_values(rng, m, s), int(rng.integers(-60, 61)))
        if _cholesky_full_rank(A):
            accepted += 1
            assert svd_rank_message(A) is None
        else:
            sv = np.linalg.svd(A, compute_uv=False)
            assert sv[-1] <= 1e-3 * sv[0]
    assert accepted > 100


def test_cholesky_screen_leaves_large_a_to_the_svd():
    # past (m + n) n eps < 1e-9 the rounding bound fails, and the screen
    # returns before it reads A: a zero-stride view allocates nothing
    assert not _cholesky_full_rank(np.broadcast_to(1.0, (2000, 1500)))


@pytest.mark.parametrize("scale", [0, 500, -500])
def test_validate_well_conditioned_without_svd(monkeypatch, scale):
    # B'B of A * 2^500 would overflow and that of A * 2^-500 underflow
    # without the screen's exact power-of-two scaling
    A = np.ldexp(with_singular_values(np.random.default_rng(3), 30, [1.0, 0.5, 0.2, 0.1]),
                 scale)
    probe = Probe(monkeypatch)
    probe.count(np.linalg, "svd")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        problem = dd.validate_problem(A, np.zeros(4), [dd.halfline_lower(i) for i in range(30)])
    assert caught == [] and probe["svd"] == 0
    assert problem.n == 4


def test_rank_decisions_near_the_threshold_are_the_svds(monkeypatch):
    # test_validate_rank_deficient's square case, an exact zero column,
    # and sigma_min / sigma_max near 1e-9 (accepted) and 1e-11 (rejected)
    rng = np.random.default_rng(5)
    cases = [np.ones((2, 2)), np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])]
    cases += [with_singular_values(rng, 8, [1.0, 0.3, ratio]) for ratio in (1e-9, 1e-11)]
    messages = [svd_rank_message(A) for A in cases]
    assert [message is None for message in messages] == [False, False, True, False]
    probe = Probe(monkeypatch)
    probe.count(np.linalg, "svd")
    for A, message in zip(cases, messages):
        atoms = [dd.halfline_lower(i) for i in range(A.shape[0])]
        if message is None:
            dd.validate_problem(A, np.zeros(A.shape[1]), atoms)
        else:
            with pytest.raises(dd.RankDeficient) as raised:
                dd.validate_problem(A, np.zeros(A.shape[1]), atoms)
            assert str(raised.value) == message
    assert probe["svd"] == len(cases)


def test_validate_atom_coverage():
    atoms = [dd.halfline_lower(0), dd.halfline_lower(1)]
    with pytest.raises(dd.AtomCoverage):
        dd.validate_problem(np.ones((3, 1)), [1.0], atoms)
    with pytest.raises(dd.AtomCoverage):
        dd.validate_problem(np.ones((2, 1)), [1.0],
                            [dd.halfline_lower(0), dd.halfline_lower(0)])


def test_validate_rejects_a_problem_without_atoms():
    # m = 0 gives theta = 0, and mu_of's 0/0 made the follower's anchor
    # raise DomainViolation
    with pytest.raises(dd.AtomCoverage, match="at least one atom"):
        dd.validate_problem(np.zeros((0, 0)), np.zeros(0), [])


def test_validate_rejects_a_c_of_the_wrong_shape():
    with pytest.raises(dd.AtomCoverage, match=r"c has shape \(2,\), expected \(1,\)"):
        dd.validate_problem([[1.0]], [1.0, 2.0], [dd.halfline_lower(0)])


def test_validate_bad_constants():
    atoms = [dd.halfline_lower(0)]
    with pytest.raises(dd.BadConstants):
        dd.validate_problem([[1.0]], [1.0], atoms, xi=1.0)
    with pytest.raises(dd.BadConstants):
        dd.validate_problem([[1.0]], [1.0], atoms, xi=2.0, kappa=1.5)
    with pytest.raises(dd.BadConstants):
        # an infinite xi passes xi - 1 - kappa > 0 but makes mu NaN
        dd.validate_problem([[1.0]], [1.0], atoms, xi=np.inf)
    with pytest.raises(dd.BadConstants):
        # a finite xi whose xi * theta overflows made y_tau0 -inf and mu NaN;
        # the box has theta 2, where one halfline's theta 1 cannot overflow
        dd.validate_problem([[1.0]], [1.0], [dd.box(0, 0.0, 1.0)], xi=9e307)


def test_validate_rejects_non_finite_data():
    atoms = [dd.halfline_lower(0)]
    for A, c in (([[np.nan]], [1.0]), ([[np.inf]], [1.0]), ([[1.0]], [np.nan])):
        with pytest.raises(dd.ValidationError, match="non-finite"):
            dd.validate_problem(A, c, atoms)


def test_per_problem_constants(inf_problem):
    # the problem's are formed on first use, the start's by make_start;
    # each equals its defining expression bit for bit, and the QR factors
    # of A are a factorization: Q R = A to rounding, Q with orthonormal
    # columns, and R^-T the transpose of the inverse of the triangular R
    problem, start = inf_problem
    larger = dd.validate_problem(np.random.default_rng(7).normal(size=(9, 4)), np.zeros(4),
                                 [dd.halfline_lower(i) for i in range(9)])
    for p in (problem, larger):
        Q, r_inv_t = p.qr_factors
        Q_ref, R = np.linalg.qr(p.A)
        assert np.array_equal(Q, Q_ref)
        assert np.array_equal(R, np.triu(R))
        assert np.allclose(Q @ R, p.A, rtol=0.0, atol=1e-14 * np.max(np.abs(p.A)))
        assert np.allclose(Q.T @ Q, np.eye(p.n), rtol=0.0, atol=1e-14)
        assert np.array_equal(r_inv_t, np.linalg.inv(R).T)
        assert np.allclose(r_inv_t.T @ R, np.eye(p.n), rtol=0.0, atol=1e-14)
    assert problem.c_inf == 1.0
    aty0 = problem.A.T @ start.y0
    assert np.array_equal(start.aty0, aty0)
    assert start.aty0_inf == float(np.max(np.abs(aty0)))
    assert start.z0_norm == float(np.linalg.norm(start.z0))


def test_default_start_box(box_problem):
    problem, start = box_problem
    assert start.z0[0] == pytest.approx(0.5)  # midpoint rule
    assert start.y0[0] == pytest.approx(0.0)


def test_default_start_halfline():
    problem = dd.validate_problem([[1.0]], [1.0], [dd.halfline_lower(0, 0.0)], xi=2.0)
    start = dd.make_start(problem)
    assert start.z0[0] == pytest.approx(1.0)
    assert start.y0[0] == pytest.approx(-1.0)
    # y_tau0 = -<y0, z0> - xi*theta = 1 - xi (theta = 1 here)
    assert start.y_tau0 == pytest.approx(1.0 - 2.0)


def test_default_start_soc_offset(soc_problem):
    problem, start = soc_problem
    assert np.allclose(start.z0, [2.0, 0.0, -1.0])  # offset subtracted
    assert np.allclose(start.z0 + [0.0, 0.0, 1.0], [2.0, 0.0, 0.0])


def test_explicit_z0_must_be_interior(box_problem):
    problem, _ = box_problem
    with pytest.raises(dd.DomainViolation):
        dd.make_start(problem, [1.5])
    start = dd.make_start(problem, [0.25])
    assert start.z0[0] == 0.25


def test_explicit_z0_must_have_the_image_shape(box_problem):
    problem, _ = box_problem
    with pytest.raises(dd.DomainViolation, match=r"z0 has shape \(2,\), expected \(1,\)"):
        dd.make_start(problem, [0.5, 0.5])


@pytest.mark.parametrize("fixture", ["box_problem", "inf_problem", "unb_problem", "soc_problem"])
def test_mu_is_one_at_initial_point(fixture, request):
    problem, start = request.getfixturevalue(fixture)
    mu = dd.mu_of(problem, start, np.zeros(problem.n), 1.0, start.y0)
    assert mu == pytest.approx(1.0, abs=1e-12)


def test_mu_forms_agree_along_runs(box_run, box_problem, soc_run, soc_problem):
    for run, (problem, start) in ((box_run, box_problem), (soc_run, soc_problem)):
        for it in run.iterates:
            assert mu_forms_agree(*mu_forms(problem, start, it.x, it.tau, it.y))


def test_mu_matches_symbolic_on_unb_point(unb_problem):
    # hand-built homogenized point on the unbounded instance, evaluated
    # against a direct transcription of the parameter formula
    problem, start = unb_problem
    tau = 1.5
    y = np.array([start.y0[0] + (tau - 1.0)])  # A'y - A'y0 = -(tau-1)c with c = -1
    x = np.array([2.0])
    assert dd.model.in_qdd(problem, start, x, tau, y)
    direct = -(y @ start.z0 + tau * (start.y_tau0
               + (problem.A.T @ start.y0 + problem.c) @ x)) / (problem.xi * problem.theta)
    assert dd.mu_of(problem, start, x, tau, y) == pytest.approx(float(direct), rel=1e-12)


def test_proximity_zero_at_initial_point(box_problem):
    problem, start = box_problem
    prox = dd.model.proximity(problem, start, np.zeros(1), 1.0, start.y0)
    assert prox == pytest.approx(0.0, abs=1e-12)


def test_proximity_matches_dense_algebra(box_problem):
    # perturbed off-path point, proximity recomputed with explicit dense
    # inverse-Hessian algebra
    problem, start = box_problem
    x, tau = np.array([0.1]), 1.25
    y = np.array([start.y0[0] - (tau - 1.0) * problem.c[0]])
    assert dd.model.in_qdd(problem, start, x, tau, y)
    mu = dd.mu_of(problem, start, x, tau, y)
    v = (tau / mu) * y
    u = shifted_image(problem, start, x, tau)
    resid = u - problem.barrier.grad(v, "conjugate")
    H = problem.barrier.hess(v, "conjugate").dense()
    expected = float(np.sqrt(resid @ np.linalg.solve(H, resid)))
    assert dd.model.proximity(problem, start, x, tau, y) == pytest.approx(expected, rel=1e-12)
    assert expected > 0.0


def test_proximity_requires_membership(unb_problem):
    # scaling y alone breaks the dual linear equation
    problem, start = unb_problem
    with pytest.raises(dd.DomainViolation):
        dd.model.proximity(problem, start, np.zeros(1), 1.0, 10.0 * start.y0)


def _dual_outside(problem, start, where):
    """y0 with the sign of its interval or cone part flipped: outside D*
    there, and still interior elsewhere."""
    y = start.y0.copy()
    for atom in problem.atoms:
        if (atom.kind == "soc") == (where == "cone"):
            y[list(atom.coords)] *= -1.0
    return y


@pytest.mark.parametrize("fixture,where", [
    ("inf_problem", "interval"), ("soc_problem", "cone"),
    ("tangent_problem", "interval"), ("tangent_problem", "cone"),
], ids=["interval-only", "cone-only", "mixed-interval", "mixed-cone"])
def test_proximity_at_rejects_a_dual_point_outside(fixture, where, request):
    # the conjugate gradient's DomainViolation is raised again with the
    # dual point's message; at tau = 0, v = 0 is on the boundary, and it is
    # rejected before tau itself is checked
    problem, start = request.getfixturevalue(fixture)
    message = "scaled dual point left the dual cone interior"
    outside = _dual_outside(problem, start, where)
    assert not problem.barrier.interior(outside, "conjugate")
    for tau, y in ((1.0, outside), (1.0, np.full(problem.m, np.nan)), (0.0, start.y0)):
        with pytest.raises(dd.DomainViolation, match=message):
            dd.proximity_at(problem, start.z0, tau, y, 1.0)
        with pytest.raises(dd.DomainViolation, match=message):
            scaled_dual(problem, tau, y, 1.0)


@pytest.mark.parametrize("fixture,run", [("inf_problem", "inf_run"),
                                         ("soc_problem", "soc_run"),
                                         ("tangent_problem", "tangent_run")])
def test_proximity_at_equals_its_checked_parts(fixture, run, request):
    # bit for bit: proximity_at against its formula written out, the
    # inverse conjugate-Hessian norm of u - conj_grad(v) with the shifted
    # image u and the checked scaled dual v, at each iterate's own mu and
    # at twice and half of it
    problem, start = request.getfixturevalue(fixture)
    for it in request.getfixturevalue(run).iterates:
        for mu in (it.mu, 2.0 * it.mu, 0.5 * it.mu):
            grad, metric = problem.barrier.grad_hess(scaled_dual(problem, it.tau, it.y, mu),
                                                     "conjugate")
            u = shifted_image(problem, start, it.x, it.tau)
            expected = math.sqrt(max(metric.inv_quad(u - grad), 0.0))
            assert dd.proximity_at(problem, u, it.tau, it.y, mu) == expected


def test_support_function_values(inf_problem):
    problem, _ = inf_problem
    assert dd.support_function(problem, [-1.0, -1.0]) == pytest.approx(-1.0)
    assert dd.support_function(problem, [0.0, 0.0]) == pytest.approx(0.0)
    assert np.isinf(dd.support_function(problem, [0.5, -1.0]))


def test_gap_bounds_initial_point(box_problem):
    problem, start = box_problem
    mu = dd.mu_of(problem, start, np.zeros(1), 1.0, start.y0)
    gb = dd.gap_bounds(problem, start, 1.0, mu)
    sp = dd.stop_params(problem, start, np.zeros(1), 1.0, start.y0)
    assert gb.lower <= sp.objective_gap <= gb.upper
    # width is exactly (2*kappa*sqrt(theta) + theta) * mu / tau^2
    width = (2.0 * problem.kappa * np.sqrt(problem.theta) + problem.theta)
    assert gb.upper - gb.lower == pytest.approx(width, rel=1e-12)


def test_gap_bounds_hold_along_runs(box_run, box_problem, unb_run, unb_problem):
    for run, (problem, start) in ((box_run, box_problem), (unb_run, unb_problem)):
        assert gap_sandwich_failures(problem, start, run.iterates) == []


def test_tau_floor_constant():
    # (xi - 1 - kappa) / (2 xi) with the default constants
    assert (2.0 - 1.0 - 0.25) / (2.0 * 2.0) == pytest.approx(0.1875)


def test_qdd_dual_equality_tolerance(unb_problem):
    problem, start = unb_problem
    tau = 1.5
    y_exact = np.array([start.y0[0] + (tau - 1.0)])
    assert dd.model.in_qdd(problem, start, np.array([1.0]), tau, y_exact)
    assert not dd.model.in_qdd(problem, start, np.array([1.0]), tau, y_exact + 1e-6)
    # a non-member fails before its dual residual is formed
    assert not dd.model.in_qdd(problem, start, np.array([1.0]), -tau, y_exact)
    assert dual_residual(problem, start, tau, y_exact) <= 1e-12


def _proximity_at(problem, start, point):
    """proximity_at at the point's tau, y and mu, with z0 as the image."""
    return dd.proximity_at(problem, start.z0, point.tau, point.y, point.mu)


BOTH_FORMS = (0.0, -1.0, np.float64(0.0), np.float64(-1.0))

# tau > 0, model.positive_tau: each public caller and the values it was
# tried on.  tau = 0 divided by zero, and tau = -1 gave the mirrored image
# A x - z0, gap bounds for a point outside Q and a negative P_feas, which
# passes P_feas <= eps.  On the box the conjugate domain is the whole
# line, so proximity_at's v = (tau/mu) y0 passes its dual check and tau
# itself is then rejected
TAU_TABLE = [
    ("proximity_at", _proximity_at, (0.0, -1.0)),
    ("shifted_image", lambda p, s, pt: shifted_image(p, s, pt.x, pt.tau), BOTH_FORMS),
    ("gap_bounds", lambda p, s, pt: dd.gap_bounds(p, s, pt.tau, pt.mu), BOTH_FORMS),
    ("stop_params", lambda p, s, pt: dd.stop_params(p, s, pt.x, pt.tau, pt.y),
     (0.0, -1.0, np.nan)),
]

# mu > 0, model._scale_dual: each public caller, at mu = 0, -1 and NaN.
# They gave the strict projection a bare ZeroDivisionError and
# check_status a ZeroDivisionError or no status.  The path steps ask
# nothing: they take only the follower points ``follow`` forms
MU_TABLE = [(name, call, (0.0, -1.0, np.nan)) for name, call in [
    ("proximity_at", _proximity_at),
    ("scaled_dual", lambda p, s, pt: scaled_dual(p, pt.tau, pt.y, pt.mu)),
    ("strict", dd.strict_infeasibility_certificate),
    ("check_status", lambda p, s, pt: dd.check_status(
        p, s, [pt], [], 1e-6, sp=dd.stop_params(p, s, pt.x, pt.tau, pt.y))),
]]


@pytest.mark.parametrize("call,value,rule", caller_rows(TAU_TABLE, "tau")
                         + caller_rows(MU_TABLE, "mu"))
def test_each_caller_needs_a_positive_tau_and_mu(box_problem, call, value, rule):
    # on the anchor with tau or mu replaced by the row's value
    problem, start = box_problem
    point = replace(make_iterate(problem, start, np.zeros(1), 1.0, start.y0), **{rule: value})
    message = {"tau": "tau must be positive", "mu": "path parameter must be positive"}[rule]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dd.DomainViolation, match=f"{message}, got {value}"):
            call(problem, start, point)
