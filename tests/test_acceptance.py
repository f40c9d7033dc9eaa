"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines inline.
"""

import time

import numpy as np

import ddsolve as dd
from ddsolve.model import shifted_image
from oracles import (OracleInstance, false_infeasibility_failures, feasibility_bound_failures,
                     gap_sandwich_failures, infeasibility_certificate_failures, mu_cap,
                     mu_growth_failures, oracle_sigma_f, oracle_sigma_p, oracle_tp,
                     repeat_run_failures, tau_floor_failures, unboundedness_certificate_failures)
from ddsolve.status import Certificate, stop_params, verify_certificate

from test_barriers import (ATOM_CASES, fenchel_young_failures, finite_difference_failures,
                           monotone_gradient_failures, round_trip_failures, sample_dual_interior,
                           sample_interior, sample_member, theta_failures)

PRIMAL, CONJUGATE = "primal", "conjugate"


def _report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {desc}")
    for msg in failures:
        print(f"    {msg}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_barrier_calculus():
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for kind, atom in sorted(ATOM_CASES.items()):
        for _ in range(100):
            z = sample_interior(atom, rng)
            w = sample_dual_interior(atom, rng)
            member = sample_member(atom, rng)
            a, b = sample_interior(atom, rng), sample_interior(atom, rng)
            found = (round_trip_failures(atom, z) + fenchel_young_failures(atom, z)
                     + theta_failures(atom, w, member)
                     + monotone_gradient_failures(atom, a, b, PRIMAL))
            if found:
                break
        # derivatives against central differences at a well-conditioned point
        found += finite_difference_failures(atom, sample_interior(atom, rng, scale=1.0), PRIMAL)
        failures += [f"{kind}: {msg}" for msg in found]
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(1, "barrier calculus properties on 100 random points per atom kind", failures)


def test_criterion_2_path_invariants(box_problem, box_run, inf_problem, inf_run,
                                     unb_problem, unb_run, soc_problem, soc_run):
    failures = []
    for name, (problem, start), run in (
            ("box", box_problem, box_run), ("inf", inf_problem, inf_run),
            ("unb", unb_problem, unb_run), ("soc", soc_problem, soc_run)):
        found = (gap_sandwich_failures(problem, start, run.iterates)
                 + tau_floor_failures(problem, run.iterates))
        for it in run.iterates:
            if not dd.model.in_qdd(problem, start, it.x, it.tau, it.y):
                found.append(f"membership lost at mu={it.mu:.3e}")
            if not it.proximity <= problem.kappa:
                found.append(f"proximity {it.proximity:.3e} > kappa at mu={it.mu:.3e}")
        if run.invariant_violations:
            found.append(f"follower recorded {run.invariant_violations}")
        failures += [f"{name}: {msg}" for msg in found]
    _report(2, "membership, proximity <= kappa, gap sandwich, tau floor on all runs", failures)


def test_criterion_3_solvable_case(box_problem):
    problem, start = box_problem
    failures = []
    t0 = time.perf_counter()
    run = dd.follow(problem, start, dd.FollowerOptions(eps=1e-6))
    elapsed = time.perf_counter() - t0
    if run.report.status != "EpsSolution":
        failures.append(f"status {run.report.status}")
    iters = len(run.trace) - 1
    if iters > 200:
        failures.append(f"{iters} iterations > 200")
    if abs(run.report.objective_primal) > 1e-5:
        failures.append(f"objective {run.report.objective_primal:.2e} not within 1e-5 of 0")
    final = run.iterates[-1]
    sp = stop_params(problem, start, final.x, final.tau, final.y)
    if sp.max() > 1e-6:
        failures.append(f"stop parameters {sp} above 1e-6")
    sigma_f = oracle_sigma_f(OracleInstance(problem, box=((-3.0, 3.0),)), start)
    failures += feasibility_bound_failures(problem, start, run.iterates, sigma_f)
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(3, "box instance: eps-solution, objective, and tau growth bound", failures)


def test_criterion_4_infeasibility(inf_problem, inf_run, box_problem, box_run):
    problem, start = inf_problem
    failures = []
    if inf_run.report.status != "InfeasibilityCertificate":
        failures.append(f"status {inf_run.report.status}")
    try:
        cert = dd.strict_infeasibility_certificate(problem, start, inf_run.iterates[-1])
        failures += infeasibility_certificate_failures(problem, start, cert)
        direction = cert.y / np.linalg.norm(cert.y)
        if np.max(np.abs(direction - np.array([-1.0, -1.0]) / np.sqrt(2.0))) > 1e-9:
            failures.append(f"certificate direction {cert.y} not proportional to (-1,-1)")
    except dd.SolverError as exc:
        failures.append(f"strict projection failed: {exc}")
    # negative control: no infeasibility certificate from the feasible box
    failures += false_infeasibility_failures(*box_problem, box_run.iterates)
    _report(4, "infeasible instance: weak status plus exact projected certificate", failures)


def test_criterion_5_unboundedness(unb_problem, unb_run):
    problem, start = unb_problem
    failures = []
    if unb_run.report.status != "UnboundednessCertificate":
        failures.append(f"status {unb_run.report.status}")
    if not unb_run.report.objective_primal <= -1e6:
        failures.append(f"objective {unb_run.report.objective_primal:.3e} > -1e6")
    try:
        cert = dd.strict_unboundedness_certificate(problem, start, unb_run.iterates[-1], 1e-6)
        failures += unboundedness_certificate_failures(problem, start, cert, 1e-6)
    except dd.SolverError as exc:
        failures.append(f"strict projection failed: {exc}")
    _report(5, "unbounded instance: weak status plus projected interior ray point", failures)


def test_criterion_6_ill_conditioned(soc_problem, soc_run, tangent_problem, tangent_run):
    failures = []
    # (a) soc instance, unattained optimum with zero duality gap: eps-optimal
    # pairs exist for every eps, so EpsSolution takes precedence over the cap
    problem, start = soc_problem
    eps = 1e-4
    cap = mu_cap(problem, eps)
    if soc_run.report.status != "EpsSolution":
        failures.append(f"soc: status {soc_run.report.status} at "
                        f"mu={soc_run.iterates[-1].mu:.3e}, expected EpsSolution")
    if not all(it.mu < cap for it in soc_run.iterates):
        failures.append(f"soc: an iterate reached the mu cap {cap:.3e}")
    reached = [stop_params(problem, start, it.x, it.tau, it.y).max() <= eps
               for it in soc_run.iterates]
    if not reached[-1] or any(reached[:-1]):
        failures.append("soc: run did not stop at its first eps-solution iterate")
    # eps-feasible pair must be reported and structurally valid
    rep = soc_run.report
    if rep.x is None or rep.y_scaled is None:
        failures.append("report carries no primal-dual pair")
    else:
        tau = soc_run.iterates[-1].tau
        pair = Certificate(kind="optimal-pair", strict=False, eps=eps,
                           x=rep.x, y=rep.y_scaled, tau=tau)
        check = verify_certificate(problem, start, pair)
        if not check.passed:
            failures.append(f"soc: reported pair fails {check.failed_names()}")
        u = shifted_image(problem, start, rep.x, tau)
        if problem.barrier.min_margin(u, PRIMAL) < 0.0:
            failures.append("reported pair is not shifted-feasible")
        if problem.barrier.min_margin(rep.y_scaled, CONJUGATE) < 0.0:
            failures.append("reported dual point left the dual cone")
    # dual objective estimates: bounded by any feasible value, eventually monotone
    x_feas = np.array([0.0, 1.0])           # x2 >= ||(x1, 1)|| holds with equality
    y_feas = np.array([-1.0, 1.0, 0.0])     # the boundary dual point
    cx_feas = float(problem.c @ x_feas)
    neg_support_feas = -dd.support_function(problem, y_feas)
    estimates = [-dd.support_function(problem, it.y) / it.tau for it in soc_run.iterates]
    if not all(np.isfinite(estimates)):
        failures.append("dual estimate not finite along the run")
    if max(estimates) > cx_feas + 1e-9:
        failures.append(f"dual estimate exceeds feasible value {cx_feas}")
    tail = estimates[len(estimates) // 2:]
    if not all(b <= a + 1e-12 for a, b in zip(tail, tail[1:])):
        failures.append("late dual estimates are not monotone")
    late = soc_run.iterates[3 * len(soc_run.iterates) // 4:]
    for it in late:
        cx = float(problem.c @ it.x)
        est = -dd.support_function(problem, it.y) / it.tau
        if not neg_support_feas <= cx + 1e-6:
            failures.append(f"bracket: -support(y_feas) > <c,x> at mu={it.mu:.3e}")
            break
        if not cx <= est + 1e-9:
            failures.append(f"bracket: <c,x> > dual estimate at mu={it.mu:.3e}")
            break
        if not est <= cx_feas + 1e-9:
            failures.append(f"bracket: dual estimate > feasible value at mu={it.mu:.3e}")
            break
    # (b) tangent-slice cone instance: the gap stays near 0.71, so no
    # eps-status can fire and the mu cap is the only trigger
    problem, start = tangent_problem
    eps = 1e-2
    cap = mu_cap(problem, eps)
    final = tangent_run.iterates[-1]
    if tangent_run.report.status != "IllConditioned":
        failures.append(f"tangent: status {tangent_run.report.status}, "
                        f"expected IllConditioned")
    if not final.mu >= cap:
        failures.append(f"tangent: final mu {final.mu:.3e} below the cap {cap:.3e}")
    sp = stop_params(problem, start, final.x, final.tau, final.y)
    if not (sp.p_feas <= eps and sp.d_feas <= eps):
        failures.append(f"tangent: pair not eps-feasible, P_feas {sp.p_feas:.3e}, "
                        f"D_feas {sp.d_feas:.3e}")
    u = shifted_image(problem, start, final.x, final.tau)
    if problem.barrier.min_margin(u, PRIMAL) < 0.0:
        failures.append("tangent: pair is not shifted-feasible")
    if problem.barrier.min_margin(final.y / final.tau, CONJUGATE) < 0.0:
        failures.append("tangent: dual point left the dual cone")
    est = tangent_run.report.objective_estimate
    if est is None or abs(est) > 1e-12:
        failures.append(f"tangent: objective estimate {est} is not the optimum 0")
    _report(6, "soc instance: verified eps-solution below the mu cap with bracket; "
               "tangent instance: mu-cap termination with eps-feasible pair", failures)


def test_criterion_7_oracle_consistency(inf_problem, box_problem, unb_problem):
    failures = []
    inf_p, inf_s = inf_problem
    inst = OracleInstance(inf_p, box=((-3.0, 3.0),))
    sigma_p = oracle_sigma_p(inst)
    if abs(sigma_p - 1.0 / np.sqrt(2.0)) > 1e-3:
        failures.append(f"sigma_p {sigma_p:.6f} != 1/sqrt(2)")
    for name, (problem, start) in (("inf", inf_problem), ("box", box_problem),
                                   ("unb", unb_problem)):
        oi = OracleInstance(problem, box=((-3.0, 3.0),))
        sp = oracle_sigma_p(oi)
        tp = oracle_tp(oi, start.z0)
        bound = float(np.linalg.norm(start.z0)) / tp if np.isfinite(tp) else 0.0
        if not sp <= bound + 1e-3:
            failures.append(f"{name}: sigma_p {sp:.4f} > ||z0||/t_p {bound:.4f}")
    _report(7, "grid oracles match analytic values and the t_p bound", failures)


def test_criterion_8_mu_growth(box_run, inf_run, unb_run, soc_run):
    failures = []
    for name, run in (("box", box_run), ("inf", inf_run),
                      ("unb", unb_run), ("soc", soc_run)):
        failures += [f"{name}: {msg}" for msg in mu_growth_failures(run)]
    _report(8, "log mu strictly increasing with positive fitted slope, reported", failures)


def test_criterion_9_determinism(instance_path, tmp_path, capsys):
    failures = []
    for name, eps in (("inst_box.dd", "1e-6"), ("inst_soc.dd", "1e-4")):
        found = repeat_run_failures(instance_path(name), eps, tmp_path, capsys)
        failures += [f"{name}: {msg}" for msg in found]
    _report(9, "two invocations produce bit-identical reports and traces", failures)
