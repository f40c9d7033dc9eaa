"""Ill-posed families beyond toy size: a medium instance with one ill-posed
block appended.

:func:`append_block` adds new variables and image rows to a
``tests/test_medium.py`` instance, so the rest of the problem stays
strictly feasible and the block alone decides which statuses the paper
allows.
"""

from dataclasses import replace

import numpy as np
import pytest

import ddsolve as dd
from oracles import mu_cap
from test_medium import MEDIUM_CASES, mixed_feasible


def append_block(problem, B, atoms, c):
    """``problem`` with the block's j variables and k image rows appended:
    A becomes [[A, 0], [0, B]] for the k x j matrix ``B``, c gains the j
    entries ``c``, and ``atoms``, whose coordinates count from the block's
    first row, cover the new rows."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    (m, n), (k, j) = problem.A.shape, B.shape
    A = np.block([[problem.A, np.zeros((m, j))], [np.zeros((k, n)), B]])
    shifted = [replace(atom, coords=tuple(m + i for i in atom.coords)) for atom in atoms]
    return dd.validate_problem(A, np.concatenate([problem.c, c]),
                               [*problem.atoms, *shifted], problem.xi, problem.kappa)


def weakly_infeasible(case):
    """``case`` with one more variable t, the block (t, t, 1) in SOC and
    cost +t.  No t is feasible, but (t, t, 1) lies within 1/(2t) of the
    cone, so the infeasibility is weak."""
    return append_block(mixed_feasible(*MEDIUM_CASES[case]), [[1.0], [1.0], [0.0]],
                        [dd.soc([0, 1, 2], [0.0, 0.0, 1.0])], [1.0])


def test_weak_block_alone_stalls_on_a_named_clause():
    """The block (t, t, 1) in SOC with cost +t alone, at eps 1e-8: past
    mu 1e22 a settled corrector point's v = (tau/mu) y leaves D* at its
    own mu, which fails the exit test, so the corrector steps on and the
    run ends in a CorrectorStall that names its clause, not in the
    proximity's DomainViolation."""
    problem = dd.validate_problem([[1.0], [1.0], [0.0]], [1.0],
                                  [dd.soc([0, 1, 2], [0.0, 0.0, 1.0])])
    report = dd.follow(problem, dd.make_start(problem), dd.FollowerOptions(eps=1e-8)).report
    assert report.status == "NumericalFailure"
    assert report.diagnostics["iterations"] == 66
    assert report.diagnostics["mu"] == pytest.approx(1.151337e22, rel=1e-6)
    assert report.diagnostics["reason"] == ("CorrectorStall: scaled residual 6.697e+00 still "
                                            "falling from 8.282e+00 after 50 Newton steps")


def test_weakly_infeasible_block_ends_ill_conditioned():
    """No exact infeasibility certificate exists: A'y = 0 forces
    y = (-r, r, 0) on the block, whose support is 0.  Approximate ones
    exist at every eps, along (-r, r - d, sqrt(2 r d)) as r grows, and
    the primal is eps-feasible at every eps.  So the paper allows an
    eps-infeasibility certificate or IllConditioned; NumericalFailure is
    a fault.  On mixed-60 at eps 1e-3 the run ends IllConditioned after
    69 iterations, at mu 2.30e7 against the cap 1/(theta eps^3) = 1.92e7.

    Not asserted: the report's ``P_feas <= eps`` check fails, because
    tau grows only like mu^(1/3) and the cap leaves P_feas above eps.
    Whether the cap or P_feas should change is an open question.
    """
    eps = 1e-3
    problem = weakly_infeasible("mixed-60")
    report = dd.follow(problem, dd.make_start(problem), dd.FollowerOptions(eps=eps)).report
    assert report.status == "IllConditioned", report.diagnostics
    assert report.diagnostics["mu"] >= mu_cap(problem, eps)
