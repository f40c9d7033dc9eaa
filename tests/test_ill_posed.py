"""Ill-posed families beyond toy size: a medium instance with one ill-posed
block appended.

:func:`append_block` adds new variables and image rows to a
``tests/test_medium.py`` instance, so the rest of the problem stays
strictly feasible and the block alone decides which statuses the paper
allows.
"""

from dataclasses import replace

import numpy as np

import ddsolve as dd
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
    assert report.diagnostics["mu"] >= 1.0 / (problem.theta * eps**3)
