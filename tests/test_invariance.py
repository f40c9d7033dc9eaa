"""Metamorphic tests: a problem and an equivalent form of it solve alike.

The path depends on the data only through the image A x + z0/tau and the
dual point y, so relabelling the image coordinates, reordering the atoms,
permuting or scaling the columns of A, and mirroring an interval atom
through zero each map the path onto itself.  Each transform below takes a
``tests/test_medium.py`` case to such a form, solves it at eps 1e-6 and
1e-8 from its default start and compares the run with the untransformed
one at the same eps: the same status, the iteration count within 2 and
the final mu within ``MU_BAND`` (``MU_BAND_1E8`` at 1e-8); and the
optimal-pair certificate, mapped back to the original variables,
verifies against the original problem.  The same transforms
take ``tests/test_strict_medium.py``'s strictly infeasible and unbounded
m = 100 instances through ``cli.run_solve(strict=True)``: the same status,
a succeeded strict projection, the iteration count within 2, and the
strict certificate, mapped back, verifies against the original problem.

Column scales stay within 1e±3: at 1e±6 the rank screen of
``validate_problem``, which is not scale-invariant, rejects these cases.
"""

import dataclasses
from functools import cache

import numpy as np
import pytest

import ddsolve as dd
import test_strict_medium as strict_medium
from ddsolve import cli
from test_medium import MEDIUM_CASES, mixed_feasible

EPS = 1e-6
RNG_SEED = 15
# relative difference of the final mu.  tests/noise.py's rounding noise
# moves the final mu of an untransformed run by up to 1.34e-7 (12 seeds,
# 3 cases), so two noisy runs may differ by 2.7e-7; the band is about four
# times that
MU_BAND = 1e-6
# at eps 1e-8 the same noise moves it by up to 9.9e-6 (12 seeds, 3 cases),
# so two noisy runs may differ by 2.0e-5; the band is four times that
MU_BAND_1E8 = 8e-5
# exponent range of the column scales D = 10^U(-s, s)
SCALE_EXPONENT = 3.0


def _identity(v):
    return v


def _relabel(problem, rng):
    """Image coordinate j becomes coordinate inv[j]: A's rows permuted."""
    perm = rng.permutation(problem.m)
    inv = np.argsort(perm)
    atoms = [dd.BarrierAtom(a.kind, [int(inv[j]) for j in a.coords], a.offset, a.lower, a.upper)
             for a in problem.atoms]
    return (dd.validate_problem(problem.A[perm], problem.c, atoms),
            _identity, lambda y: y[inv])


def _shuffle_atoms(problem, rng):
    atoms = [problem.atoms[k] for k in rng.permutation(len(problem.atoms))]
    return dd.validate_problem(problem.A, problem.c, atoms), _identity, _identity


def _permute_columns(problem, rng):
    """x'_j = x_perm[j]: the columns of A and the entries of c permuted."""
    perm = rng.permutation(problem.n)

    def x_back(x):
        out = np.empty_like(x)
        out[perm] = x
        return out
    return (dd.validate_problem(problem.A[:, perm], problem.c[perm], problem.atoms),
            x_back, _identity)


def _scale_columns(problem, rng):
    """x = D x' with D = 10^U(-s, s): A D and D c."""
    d = 10.0 ** rng.uniform(-SCALE_EXPONENT, SCALE_EXPONENT, problem.n)
    return (dd.validate_problem(problem.A * d, d * problem.c, problem.atoms),
            lambda x: d * x, _identity)


MIRRORED = {"halfline_lower": "halfline_upper", "halfline_upper": "halfline_lower",
            "box": "box"}


def _mirror(problem, rng):
    """Each halfline and box through zero: its row of A negated, lower and
    upper swapped and negated, its offset negated; the cones as they are."""
    sign = np.ones(problem.m)
    atoms = []
    for a in problem.atoms:
        if a.kind == "soc":
            atoms.append(a)
            continue
        sign[a.coords[0]] = -1.0
        atoms.append(dd.BarrierAtom(MIRRORED[a.kind], a.coords, (-a.offset[0],),
                                    lower=None if a.upper is None else -a.upper,
                                    upper=None if a.lower is None else -a.lower))
    return (dd.validate_problem(sign[:, None] * problem.A, problem.c, atoms),
            _identity, lambda y: sign * y)


TRANSFORMS = {"relabel-image": _relabel, "shuffle-atoms": _shuffle_atoms,
              "permute-columns": _permute_columns, "scale-columns": _scale_columns,
              "mirror-intervals": _mirror}


def solve(problem, eps):
    """(start, report) of the run from the default start at ``eps``."""
    start = dd.make_start(problem)
    return start, dd.follow(problem, start, dd.FollowerOptions(eps=eps)).report


@cache
def original(case, eps):
    problem = mixed_feasible(*MEDIUM_CASES[case])
    return (problem, *solve(problem, eps))


def _solves_alike(case, transform, eps, band):
    """The transformed case at ``eps`` against the original at ``eps``,
    the final mu within ``band`` relative."""
    problem, start, report = original(case, eps)
    rng = np.random.default_rng([RNG_SEED, sorted(MEDIUM_CASES).index(case),
                                 list(TRANSFORMS).index(transform)])
    changed, x_back, y_back = TRANSFORMS[transform](problem, rng)
    _, got = solve(changed, eps)
    assert (got.status, report.status) == ("EpsSolution", "EpsSolution")
    assert abs(got.diagnostics["iterations"] - report.diagnostics["iterations"]) <= 2
    mu, want = got.diagnostics["mu"], report.diagnostics["mu"]
    assert abs(mu - want) <= band * want
    cert = got.certificate
    mapped = dd.Certificate(kind=cert.kind, strict=cert.strict, eps=cert.eps,
                            x=x_back(cert.x), y=y_back(cert.y), tau=cert.tau)
    verification = dd.verify_certificate(problem, start, mapped)
    assert verification.passed, verification.failed_names()


@pytest.mark.parametrize("transform", list(TRANSFORMS))
@pytest.mark.parametrize("case", sorted(MEDIUM_CASES))
def test_equivalent_problem_solves_alike(case, transform):
    _solves_alike(case, transform, EPS, MU_BAND)


@pytest.mark.parametrize("transform", list(TRANSFORMS))
@pytest.mark.parametrize("case", sorted(MEDIUM_CASES))
def test_equivalent_problem_solves_alike_at_1e_8(case, transform):
    _solves_alike(case, transform, 1e-8, MU_BAND_1E8)


STRICT_CASES = [(seed, kind) for size, seed, kind in strict_medium.CASES if size == "m100"]


def solve_strict(problem):
    """(start, report) of ``cli.run_solve(strict=True)`` from the default
    start at EPS."""
    start = dd.make_start(problem)
    return start, cli.run_solve(problem, start, EPS, strict=True)


@cache
def original_strict(seed, kind):
    inst = strict_medium.build("m100", seed, kind)
    problem = dd.validate_problem(inst.A, inst.c, inst.atoms)
    return (inst.expected, problem, *solve_strict(problem))


@pytest.mark.parametrize("transform", list(TRANSFORMS))
@pytest.mark.parametrize("seed,kind", STRICT_CASES, ids=[f"{k}-{s}" for s, k in STRICT_CASES])
def test_equivalent_problem_certifies_alike(seed, kind, transform):
    expected, problem, start, report = original_strict(seed, kind)
    rng = np.random.default_rng([RNG_SEED, seed, STRICT_CASES.index((seed, kind)),
                                 list(TRANSFORMS).index(transform)])
    changed, x_back, y_back = TRANSFORMS[transform](problem, rng)
    _, got = solve_strict(changed)
    assert (got.status, report.status) == (expected, expected)
    assert got.diagnostics["strict_projection"] == "succeeded"
    assert abs(got.diagnostics["iterations"] - report.diagnostics["iterations"]) <= 2
    cert = strict_medium.certificate(got)
    assert cert.strict
    mapped = dataclasses.replace(cert, x=None if cert.x is None else x_back(cert.x),
                                 y=None if cert.y is None else y_back(cert.y))
    verification = dd.verify_certificate(problem, start, mapped)
    assert verification.passed, verification.failed_names()
