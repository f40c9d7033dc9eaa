"""Stop parameters, termination precedence, certificates and verification."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import ddsolve as dd
import ddsolve.path as path_module
from ddsolve import status as status_module
from ddsolve.model import make_iterate
from ddsolve.status import (
    Certificate,
    VerificationReport,
    check_status,
    stop_params,
    verify_certificate,
)
from conftest import build_box, build_inf, build_soc, caller_rows
from oracles import (false_infeasibility_failures, infeasibility_certificate_failures, mu_cap,
                     unboundedness_certificate_failures)


def test_stop_params_formulas(box_problem):
    problem, start = box_problem
    sp = stop_params(problem, start, np.zeros(1), 4.0, np.array([-1.0]))
    assert sp.p_feas == pytest.approx(0.5 / 4.0)  # ||z0|| / tau
    # gap numerator: <c,x> + support(y)/tau = 0 + 0 = 0 for y <= 0 on the box
    assert sp.gap == pytest.approx(0.0)


def test_stop_params_dual_feasibility_zero(box_problem):
    # A'y = -tau c exactly makes D_feas vanish
    problem, start = box_problem
    tau = 3.0
    y = np.array([-3.0])
    sp = stop_params(problem, start, np.zeros(1), tau, y)
    assert sp.d_feas == pytest.approx(0.0, abs=1e-15)


def test_stop_params_infinite_support_sentinel(inf_problem):
    # support = +inf maps to the gap sentinel 1
    problem, start = inf_problem
    sp = stop_params(problem, start, np.zeros(1), 1.0, np.array([1.0, -1.0]))
    assert sp.gap == 1.0


def test_p_feas_decays_with_tau(box_problem):
    problem, start = box_problem
    values = [stop_params(problem, start, np.zeros(1), t, np.array([-1.0])).p_feas
              for t in (1.0, 10.0, 1e4)]
    assert values[0] > values[1] > values[2]
    assert values[2] == pytest.approx(0.5e-4)


def test_check_status_none_early(box_problem):
    problem, start = box_problem
    point = make_iterate(problem, start, np.zeros(1), 1.0, start.y0)
    sp = stop_params(problem, start, point.x, point.tau, point.y)
    assert check_status(problem, start, [point], [], 1e-6, sp=sp) is None


def test_eps_solution_branch(box_run, box_problem):
    problem, start = box_problem
    report = box_run.report
    assert report.status == "EpsSolution"
    assert report.exit_code == 0
    assert report.certificate.kind == "optimal-pair"
    assert report.verification.passed
    assert abs(report.objective_primal) <= 1e-5


@pytest.mark.parametrize("fixture,run,status", [
    ("box_problem", "box_run", "EpsSolution"),
    ("inf_problem", "inf_run", "InfeasibilityCertificate"),
    ("unb_problem", "unb_run", "UnboundednessCertificate"),
])
def test_certificate_failing_verification_is_numerical_failure(fixture, run, status,
                                                               request, monkeypatch):
    # a report never claims a status its certificate fails: check_status
    # returns NumericalFailure without the certificate, keeping the
    # verification that failed and the point's report fields
    problem, start = request.getfixturevalue(fixture)
    point = request.getfixturevalue(run).iterates[-1]
    sp = stop_params(problem, start, point.x, point.tau, point.y)
    honest = check_status(problem, start, [point], [], 1e-6, sp=sp)
    assert honest.status == status

    def failing(problem, start, cert):
        rep = VerificationReport()
        rep.add("forced failure", False, 1.0)
        rep.add("forced pass", True, 0.0)
        return rep
    monkeypatch.setattr(status_module, "verify_certificate", failing)
    report = check_status(problem, start, [point], [], 1e-6, sp=sp)
    assert report.status == "NumericalFailure" and report.exit_code == 5
    assert report.certificate is None
    assert report.diagnostics["reason"] == "certificate failed verification: forced failure"
    assert [c.name for c in report.verification.checks] == ["forced failure", "forced pass"]
    assert np.array_equal(report.x, honest.x)
    assert np.array_equal(report.y_scaled, honest.y_scaled)
    assert report.objective_primal == honest.objective_primal
    assert report.objective_estimate == honest.objective_estimate
    assert report.diagnostics == {**honest.diagnostics, "reason": report.diagnostics["reason"]}


def test_infeasibility_branch(inf_run, inf_problem):
    problem, start = inf_problem
    report = inf_run.report
    assert report.status == "InfeasibilityCertificate"
    assert report.exit_code == 1
    cert = report.certificate
    assert cert.kind == "infeasibility" and not cert.strict
    assert dd.support_function(problem, cert.y) < 0.0
    assert report.verification.passed


def test_unboundedness_branch(unb_run, unb_problem):
    report = unb_run.report
    assert report.status == "UnboundednessCertificate"
    assert report.exit_code == 2
    assert report.objective_primal <= -1e6
    assert report.verification.passed


def test_ill_conditioned_via_mu_cap(tangent_run, tangent_problem):
    # dual-infeasible tangent instance with zero infeasibility measure:
    # nothing fires until mu crosses 1/(theta eps^3)
    problem, start = tangent_problem
    report = tangent_run.report
    assert report.status == "IllConditioned"
    assert report.exit_code == 3
    assert tangent_run.iterates[-1].mu >= mu_cap(problem, 1e-2)
    assert report.verification.passed  # eps-feasible pair checks
    assert tangent_run.invariant_violations == []
    # the dual objective estimate is exact here: every dual-cone point has
    # zero support, and the true optimal value is 0
    assert report.objective_estimate == pytest.approx(0.0, abs=1e-12)


def test_ill_conditioned_precedence_synthetic(box_problem, box_run):
    # a huge path parameter alone must not preempt an eps-solution
    problem, start = box_problem
    point = make_iterate(problem, start, np.zeros(1), 1.0, start.y0)
    fake = dd.Iterate(x=point.x, tau=point.tau, y=point.y, mu=1e30, proximity=0.0)
    report = check_status(problem, start, [fake], [], 1e-2,
                          sp=stop_params(problem, start, fake.x, fake.tau, fake.y))
    assert report is not None and report.status == "IllConditioned"
    assert report.x is not None and report.y_scaled is not None
    # the start point is not eps-feasible (P_feas = ||z0|| = 0.5), and the
    # report records that instead of passing the check unconditionally
    assert "P_feas <= eps" in report.verification.failed_names()
    # the other half: an eps-solution at the same huge mu stays EpsSolution
    final = box_run.iterates[-1]
    fake = dd.Iterate(x=final.x, tau=final.tau, y=final.y, mu=1e30, proximity=0.0)
    report = check_status(problem, start, [fake], [], 1e-6,
                          sp=stop_params(problem, start, fake.x, fake.tau, fake.y))
    assert report is not None and report.status == "EpsSolution"
    assert report.verification.passed


def test_strict_infeasibility_projection(inf_run, inf_problem):
    problem, start = inf_problem
    cert = dd.strict_infeasibility_certificate(problem, start, inf_run.iterates[-1])
    assert infeasibility_certificate_failures(problem, start, cert) == []
    # analytic kernel of A' is span{(1,1)}: certificate proportional to (-1,-1)
    assert cert.y[0] == pytest.approx(cert.y[1], rel=1e-9)


def test_strict_infeasibility_refused_on_feasible(box_run, box_problem):
    assert false_infeasibility_failures(*box_problem, box_run.iterates) == []


def test_strict_infeasibility_refused_outside_the_dual_cone(soc_run, soc_problem):
    # at the anchor of the cone instance the projection is formed but
    # lands outside D*
    problem, start = soc_problem
    with pytest.raises(dd.ProjectionOutsideCone, match="projection margin .* is not positive"):
        dd.strict_infeasibility_certificate(problem, start, soc_run.iterates[0])


def test_strict_unboundedness_projection(unb_run, unb_problem):
    problem, start = unb_problem
    cert = dd.strict_unboundedness_certificate(problem, start, unb_run.iterates[-1], 1e-6)
    assert unboundedness_certificate_failures(problem, start, cert, 1e-6) == []


def test_strict_unboundedness_projection_with_active_cut(unb_run, unb_problem):
    # at the anchor the unconstrained projection misses <c, x> <= -1/eps,
    # so the projection takes the cut as one more equality
    problem, start = unb_problem
    cert = dd.strict_unboundedness_certificate(problem, start, unb_run.iterates[0], 1e-6)
    assert unboundedness_certificate_failures(problem, start, cert, 1e-6) == []


def test_strict_unboundedness_reports_a_singular_normal_matrix(unb_run, unb_problem,
                                                               monkeypatch):
    problem, start = unb_problem

    def singular(M, rhs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(dd.ProjectionOutsideDomain,
                       match="projection system singular: Singular matrix") as info:
        dd.strict_unboundedness_certificate(problem, start, unb_run.iterates[-1], 1e-6)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_strict_unboundedness_reports_an_overflowing_projection():
    # with c at 1e300 the cut's c' (A'HA)^-1 c overflows: numpy warned, and
    # the projection then failed on its margin
    problem = dd.validate_problem([[0.0], [3.0], [3.0]], [1e300], [dd.soc([0, 1, 2])])
    start = dd.make_start(problem, [1.0, 0.5, -0.5])
    run = dd.follow(problem, start, dd.FollowerOptions(eps=1e-4, max_iters=60))
    assert run.report.status == "UnboundednessCertificate"
    with pytest.raises(dd.ProjectionOutsideDomain, match="projection overflowed: overflow"):
        dd.strict_unboundedness_certificate(problem, start, run.iterates[-1], 1e-4)


def test_strict_unboundedness_fixed_point(unb_run, unb_problem):
    # the shifted image point already satisfies the objective inequality,
    # so the projection returns it unchanged
    problem, start = unb_problem
    it = unb_run.iterates[-1]
    u = problem.A @ it.x + start.z0 / it.tau
    cert = dd.strict_unboundedness_certificate(problem, start, it, 1e-6)
    assert np.allclose(problem.A @ cert.x, u, rtol=1e-12)


def test_verify_hand_built_certificates(inf_problem, unb_problem):
    problem, start = inf_problem
    good = Certificate(kind="infeasibility", strict=True, eps=np.nan,
                       y=np.array([-1.0, -1.0]))
    assert verify_certificate(problem, start, good).passed
    bad = Certificate(kind="infeasibility", strict=True, eps=np.nan,
                      y=np.array([-1.0, 1.0]))
    rep = verify_certificate(problem, start, bad)
    assert not rep.passed  # A'y = -2, not 0
    assert any("ATy" in name for name in rep.failed_names())

    problem_u, start_u = unb_problem
    xhat = Certificate(kind="unboundedness", strict=True, eps=1e-6,
                       x=np.array([1e6]))
    assert verify_certificate(problem_u, start_u, xhat).passed
    unknown = Certificate(kind="optimal", strict=False, eps=1e-6)
    rep = verify_certificate(problem_u, start_u, unknown)
    assert rep.failed_names() == ["unknown certificate kind optimal"]


@pytest.mark.parametrize("atoms,c,kind", [
    ([dd.box(0, 0.0, 1.0), dd.box(1, 0.0, 1.0)], [1.0, 0.0], "optimal-pair"),
    ([dd.halfline_lower(0, 0.0), dd.box(1, 0.0, 1.0)], [-1.0, 0.0], "unboundedness"),
])
def test_tampered_point_of_certificate_with_tau_fails(atoms, c, kind):
    # moving x along a coordinate c does not weigh keeps <c, x> and every
    # stop parameter, but puts A x + z0/tau 9.5 outside the second box
    problem = dd.validate_problem(np.eye(2), c, atoms)
    start = dd.make_start(problem)
    cert = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6)).report.certificate
    assert cert.kind == kind and not cert.strict and cert.tau > 0.0
    assert verify_certificate(problem, start, cert).passed
    tampered = Certificate(kind=cert.kind, strict=False, eps=cert.eps,
                           x=cert.x + np.array([0.0, 10.0]), y=cert.y, tau=cert.tau)
    assert float(problem.c @ tampered.x) == float(problem.c @ cert.x)
    rep = verify_certificate(problem, start, tampered)
    assert rep.failed_names() == ["Ax + z0/tau in domain (margins >= 0)"]
    assert [ch.value for ch in rep.checks if not ch.passed][0] == pytest.approx(-9.5, abs=1e-5)


@pytest.mark.parametrize("atoms,c,kind", [
    ([dd.box(0, 0.0, 1.0), dd.box(1, 0.0, 1.0)], [1.0, 0.0], "optimal-pair"),
    ([dd.halfline_lower(0, 0.0), dd.box(1, 0.0, 1.0)], [-1.0, 0.0], "unboundedness"),
])
def test_certificate_with_negative_tau_fails(atoms, c, kind):
    # a negative tau makes P_feas = ||z0||/tau negative, so it passes
    # P_feas <= eps, and flips the sign of z0/tau in the image; the pair
    # and the weak unbounded point must fail on tau itself.  At tau = 0
    # nothing may be divided by it: every check that needs 1/tau fails
    problem = dd.validate_problem(np.eye(2), c, atoms)
    start = dd.make_start(problem)
    cert = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6)).report.certificate
    assert cert.kind == kind and not cert.strict
    rep = verify_certificate(problem, start, cert)
    assert rep.passed and [ch.name for ch in rep.checks].count("tau > 0") == 1
    needs_tau = {"Ax + z0/tau in domain (margins >= 0)", "gap <= eps", "P_feas <= eps",
                 "D_feas <= eps"}
    for tau in (-cert.tau, -1e7, 0.0):
        rep = verify_certificate(problem, start, replace(cert, tau=tau))
        assert "tau > 0" in rep.failed_names()
        assert [ch.value for ch in rep.checks if ch.name == "tau > 0"] == [tau]
        assert needs_tau & {ch.name for ch in rep.checks} <= set(rep.failed_names())
    # a certificate without a tau, the field's default, fails the same
    # checks, with a NaN value
    rep = verify_certificate(problem, start, replace(cert, tau=None))
    check, = [ch for ch in rep.checks if ch.name == "tau > 0"]
    assert not check.passed and np.isnan(check.value)
    assert needs_tau & {ch.name for ch in rep.checks} <= set(rep.failed_names())


def test_margin_checks_fail_on_a_nan_entry(inf_problem, box_run, box_problem):
    # a NaN coordinate has no margin: min_margin propagates it, and the
    # membership checks read it as failed
    problem, start = inf_problem
    direction = Certificate(kind="infeasibility", strict=True, eps=np.nan,
                            y=np.array([-1.0, -1.0]))
    assert verify_certificate(problem, start, direction).passed
    for strict in (True, False):
        rep = verify_certificate(problem, start, replace(direction, strict=strict, eps=1e-6,
                                                         y=np.array([np.nan, -1.0])))
        check, = [ch for ch in rep.checks if ch.name == "y in dual cone (margins >= 0)"]
        assert not check.passed and np.isnan(check.value)

    problem, start = box_problem
    pair = box_run.report.certificate
    assert pair.kind == "optimal-pair" and verify_certificate(problem, start, pair).passed
    rep = verify_certificate(problem, start, replace(pair, x=np.array([np.nan])))
    check, = [ch for ch in rep.checks if ch.name == "Ax + z0/tau in domain (margins >= 0)"]
    assert not check.passed and np.isnan(check.value)


IMAGE = "Ax + z0/tau in domain (margins >= 0)"
_TINY_TAU = Certificate(kind="optimal-pair", strict=False, eps=1e-6, tau=1e-320)
OVERFLOWING = {
    # ||A'y|| = 1e200 of a weak infeasibility direction: its sum of
    # squares overflows, its norm does not
    "weak-infeasibility": (build_inf, None,
                           Certificate(kind="infeasibility", strict=False, eps=1e-6,
                                       y=np.array([-1e200, -1e-300])), "||A'y|| <= eps", 1e200),
    # tau = 1e-320 overflows z0/tau: an image that is not finite is
    # outside D, and is not formed
    "pair-box": (build_box, None, replace(_TINY_TAU, x=np.zeros(1), y=np.zeros(1)),
                 IMAGE, np.nan),
    "unboundedness-box": (build_box, None,
                          replace(_TINY_TAU, kind="unboundedness", x=np.zeros(1)), IMAGE, np.nan),
    # an anchor whose cone tail is 0: the infinite head read as a margin
    # of +inf, and the check passed
    "pair-soc": (build_soc, [2.0, 0.0, 0.0], replace(_TINY_TAU, x=np.zeros(2), y=np.zeros(3)),
                 IMAGE, np.nan),
    "unboundedness-soc": (build_soc, [2.0, 0.0, 0.0],
                          replace(_TINY_TAU, kind="unboundedness", x=np.zeros(2)), IMAGE, np.nan),
    # an infinite x meets the overflowed z0/tau as -inf + inf
    "unboundedness-infinite-x": (build_box, None,
                                 replace(_TINY_TAU, kind="unboundedness", x=np.array([-np.inf])),
                                 IMAGE, np.nan),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_overflowing_certificate_fails_without_a_warning(case):
    # the suite's error::RuntimeWarning filter makes a warning fail the row
    build, z0, cert, name, value = OVERFLOWING[case]
    problem = build()
    rep = verify_certificate(problem, dd.make_start(problem, z0), cert)
    check, = [ch for ch in rep.checks if ch.name == name]
    assert not check.passed and np.array_equal(check.value, value, equal_nan=True)
    if cert.kind == "optimal-pair":
        # an image not formed leaves the stop parameters unformed too
        assert rep.failed_names()[-3:] == ["gap <= eps", "P_feas <= eps", "D_feas <= eps"]


def _certificate(case, request):
    """(problem, start, certificate) for each kind; all but the strict
    unbounded point of a bounded problem verify."""
    if case == "bounded-unboundedness":
        # min x over x in [0, 1] and x >= 0: bounded, so <c, x> = 0.5 fails
        problem = dd.validate_problem([[1.0], [1.0]], [1.0],
                                      [dd.box(0, 0.0, 1.0), dd.halfline_lower(1, 0.0)])
        return (problem, dd.make_start(problem),
                Certificate(kind="unboundedness", strict=True, eps=0.5, x=np.array([0.5])))
    fixture = {"pair": "box", "infeasibility": "inf", "unboundedness": "unb",
               "strict-infeasibility": "inf", "strict-unboundedness": "unb"}[case]
    problem, start = request.getfixturevalue(f"{fixture}_problem")
    point = request.getfixturevalue(f"{fixture}_run").iterates[-1]
    if case == "strict-infeasibility":
        cert = dd.strict_infeasibility_certificate(problem, start, point)
    elif case == "strict-unboundedness":
        cert = dd.strict_unboundedness_certificate(problem, start, point, 1e-6)
    else:
        cert = request.getfixturevalue(f"{fixture}_run").report.certificate
    return problem, start, cert


READS_EPS = {"||A'y|| <= eps", "<c,x> <= -1/eps", "gap <= eps", "P_feas <= eps",
             "D_feas <= eps"}


@pytest.mark.parametrize("case,eps", [
    ("bounded-unboundedness", -1.0),   # <c,x> <= -1/eps read 0.5 <= 1 and passed
    ("bounded-unboundedness", 0.0),    # -1/eps divided by zero
    ("pair", 5.0),                     # every stop parameter passed <= 5
    ("infeasibility", 5.0),
    ("unboundedness", -1.0),
    ("pair", None),                    # compared with 0.0 < eps: TypeError
    ("infeasibility", "0.1"),
    ("unboundedness", None),
    ("bounded-unboundedness", "0.1"),
])
def test_verification_fails_an_eps_outside_the_unit_interval(case, eps, request):
    # the same rows with the same values; each row that reads eps fails,
    # and an eps that is not a real number is outside the interval
    problem, start, cert = _certificate(case, request)
    valid = verify_certificate(problem, start, cert)
    rep = verify_certificate(problem, start, replace(cert, eps=eps))
    assert [(ch.name, ch.value) for ch in rep.checks] == [(ch.name, ch.value)
                                                          for ch in valid.checks]
    assert rep.failed_names() == [ch.name for ch in valid.checks
                                  if ch.name in READS_EPS or not ch.passed]
    assert not rep.passed


# eps in (0, 1), status.require_eps: each public caller and the values it
# was tried on; strict_unboundedness_certificate's rows are the test below
EPS_TABLE = [
    ("check_status", lambda p, s, pt, eps: check_status(
        p, s, [pt], [], eps, sp=stop_params(p, s, pt.x, pt.tau, pt.y)), (2.0,)),
    ("follow", lambda p, s, pt, eps: dd.follow(p, s, dd.FollowerOptions(eps=eps)),
     (-1.0, 0.0, 1.0, np.nan)),
]
# follow's other option, beside them
MAX_ITERS_TABLE = [("follow", lambda p, s, pt, n: dd.follow(p, s, dd.FollowerOptions(max_iters=n)),
                    (-2, 2.5, True))]


@pytest.mark.parametrize("call,value,rule", caller_rows(EPS_TABLE, "eps")
                         + caller_rows(MAX_ITERS_TABLE, "max_iters"))
def test_bad_eps_and_max_iters_are_refused_before_any_work(call, value, rule, unb_run,
                                                           unb_problem, monkeypatch):
    # ValueError, and follow builds no iterate and takes no step
    for name in ("make_iterate", "predictor_step"):
        monkeypatch.setattr(path_module, name, lambda *args: pytest.fail("follow started work"))
    message = {"eps": "eps must lie in", "max_iters": "max_iters must be a non-negative integer"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message[rule]):
            call(*unb_problem, unb_run.iterates[-1], value)


@pytest.mark.parametrize("eps", [0.0, -1.0, 1.0, np.nan])
def test_strict_unboundedness_needs_eps_in_the_unit_interval(eps, unb_run, unb_problem,
                                                             monkeypatch):
    # eps = 0 divided by zero, and eps = -1 gave a certificate the verifier
    # passed; the checks of the eps table's rows
    test_bad_eps_and_max_iters_are_refused_before_any_work(
        dd.strict_unboundedness_certificate, eps, "eps", unb_run, unb_problem, monkeypatch)


@pytest.mark.parametrize("case,missing,kept", [
    ("strict-infeasibility", "y", ()),
    ("infeasibility", "y", ()),
    ("strict-unboundedness", "x", ()),
    ("unboundedness", "x", ("tau > 0",)),
    ("pair", "x", ("tau > 0",)),
    ("pair", "y", ("tau > 0", "Ax + z0/tau in domain (margins >= 0)")),
    ("strict-unboundedness", "x-longer", ()),
    ("strict-infeasibility", "y-longer", ()),
    ("infeasibility", "y-shorter", ()),
    ("unboundedness", "x-longer", ("tau > 0",)),
    ("pair", "x-longer", ("tau > 0",)),
    ("pair", "y-shorter", ("tau > 0", "Ax + z0/tau in domain (margins >= 0)")),
    ("pair", "tau-text", ()),
    ("unboundedness", "tau-text", ("<c,x> <= -1/eps",)),
    ("strict-infeasibility", "y-strings", ()),
    ("infeasibility", "y-strings", ()),
    ("strict-unboundedness", "x-strings", ()),
    ("unboundedness", "x-strings", ("tau > 0",)),
    ("pair", "x-strings", ("tau > 0",)),
    ("pair", "y-strings", ("tau > 0", "Ax + z0/tau in domain (margins >= 0)")),
])
def test_certificate_without_its_payload_fails(case, missing, kept, request):
    # a missing x or y raised from the products that read it, and so did
    # one of the wrong length or of text entries, or a tau that is not a
    # number; each check that needs it now fails with a NaN value, as a
    # missing tau does
    problem, start, cert = _certificate(case, request)
    valid = verify_certificate(problem, start, cert)
    assert valid.passed
    field, _, fault = missing.partition("-")
    value = {"": None, "longer": lambda v: np.append(v, -1.0), "shorter": lambda v: v[:-1],
             "text": "1.0", "strings": lambda v: ["a"] * len(v)}[fault]
    value = value(getattr(cert, field)) if callable(value) else value
    rep = verify_certificate(problem, start, replace(cert, **{field: value}))
    assert [ch.name for ch in rep.checks] == [ch.name for ch in valid.checks]
    for check, reference in zip(rep.checks, valid.checks):
        if check.name in kept:
            assert check == reference
        else:
            assert not check.passed and np.isnan(check.value)


def test_emitted_certificates_always_verify(box_run, inf_run, unb_run, tangent_run):
    for run in (box_run, inf_run, unb_run, tangent_run):
        if run.report.verification is not None:
            assert run.report.verification.passed


def test_exact_eps_certificate_form_at_termination(inf_run, inf_problem):
    # the terminal scaled dual point satisfies the stronger certificate
    # form with the -1 threshold, not merely negative support
    problem, _ = inf_problem
    it = inf_run.iterates[-1]
    scaled = (it.tau / it.mu) * it.y
    assert dd.support_function(problem, scaled) < -1.0
    assert (it.tau / it.mu) * float(np.linalg.norm(problem.A.T @ it.y)) <= 1e-6


def test_boundary_ray_unboundedness_weak_only():
    # min -x1 with (x1, x1, x2) in the cone: unbounded along a ray on the
    # cone boundary.  The weak certificate fires; the strict projection
    # must refuse rather than claim an interior ray point
    problem = dd.validate_problem([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, 0.0],
                                  [dd.soc([0, 1, 2])])
    start = dd.make_start(problem)
    run = dd.follow(problem, start, dd.FollowerOptions(eps=1e-4, max_iters=300))
    assert run.report.status == "UnboundednessCertificate"
    assert run.report.objective_primal <= -1e4
    assert run.invariant_violations == []
    with pytest.raises(dd.ProjectionOutsideDomain):
        dd.strict_unboundedness_certificate(problem, start, run.iterates[-1], 1e-4)


def test_asymptotically_feasible_infeasible_hits_cap():
    # (x, x, 1) is never in the cone but approaches it as x grows: the
    # infeasibility measure is zero, so no certificate can fire and the
    # run ends at the path-parameter cap
    problem = dd.validate_problem([[1.0], [1.0], [0.0]], [1.0],
                                  [dd.soc([0, 1, 2], [0.0, 0.0, 1.0])])
    start = dd.make_start(problem)
    run = dd.follow(problem, start, dd.FollowerOptions(eps=1e-2, max_iters=300))
    assert run.report.status == "IllConditioned"
    assert run.iterates[-1].mu >= mu_cap(problem, 1e-2)
    assert run.invariant_violations == []


def test_dual_estimate_bracket_on_tangent(tangent_run, tangent_problem):
    # both problems feasible in the perturbed sense: late dual estimates
    # -support(y)/tau must not exceed the value of any feasible point, and
    # any dual-cone support bound must not exceed late primal values
    problem, start = tangent_problem
    x_feas = np.array([1.0, 0.0, 1.0])      # on the tangent ray
    assert problem.barrier.min_margin(problem.A @ x_feas, "primal") >= 0.0
    cx_feas = float(problem.c @ x_feas)     # = 0, the optimal value
    late = tangent_run.iterates[len(tangent_run.iterates) // 2:]
    for it in late:
        est = -dd.support_function(problem, it.y) / it.tau
        assert est <= cx_feas + 1e-9
