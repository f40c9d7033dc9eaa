"""Strictly feasible mixed instances beyond toy size must solve.

Each instance is built around a primal witness A x_bar strictly inside
every atom and a dual witness y_bar strictly inside the dual cone, with
c = -A'y_bar, so it has an attained optimum and an eps-solution exists at
every eps.

``mixed_feasible`` builds these instances, asserting both witnesses, and
the strictly feasible instances of ``tests/digest.py`` and of the
invariance, ill-posed and path tests.  The one other builder is
``tests/test_path.py``'s generator of random n <= 3 mixes, which stays
while the dual-equality check passes or fails by rounding past mu 1e6
(ROADMAP decision D4): the same test drawn from this builder ends with two
such violations on one of its ten instances.
"""

import numpy as np
import pytest

import ddsolve as dd


def _cone_point(rng, k, sign=1.0):
    """A point of sign*K whose head exceeds the tail norm by 0.5 to 2."""
    tail = rng.normal(size=k - 1)
    return sign * np.concatenate([[np.linalg.norm(tail) + rng.uniform(0.5, 2.0)], tail])


def mixed_feasible(seed, n, n_scalar, soc_dims):
    """Halflines and boxes on the first ``n_scalar`` image coordinates,
    then one cone per entry of ``soc_dims``; all data drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    m = n_scalar + sum(soc_dims)
    A = rng.normal(size=(m, n))
    x_bar = rng.normal(size=n)
    z = A @ x_bar
    y = np.empty(m)
    atoms = []
    for i, kind in enumerate(rng.integers(3, size=n_scalar)):
        offset = float(rng.normal())
        w = float(z[i]) + offset
        if kind == 0:
            atoms.append(dd.halfline_lower(i, w - rng.uniform(0.3, 2.0), offset))
            y[i] = -rng.uniform(0.2, 2.0)
        elif kind == 1:
            atoms.append(dd.halfline_upper(i, w + rng.uniform(0.3, 2.0), offset))
            y[i] = rng.uniform(0.2, 2.0)
        else:
            atoms.append(dd.box(i, w - rng.uniform(0.3, 1.5), w + rng.uniform(0.3, 1.5), offset))
            y[i] = rng.normal()
    coord = n_scalar
    for k in soc_dims:
        idx = list(range(coord, coord + k))
        atoms.append(dd.soc(idx, _cone_point(rng, k) - z[idx]))
        y[idx] = _cone_point(rng, k, sign=-1.0)
        coord += k
    problem = dd.validate_problem(A, -A.T @ y, atoms)
    assert problem.barrier.interior(z, "primal")
    assert problem.barrier.interior(y, "conjugate")
    return problem


# (seed, n, n_scalar, soc_dims): m = 60 mixed, m = 100 halflines and boxes
# only, m = 100 mixed
MEDIUM_CASES = {
    "mixed-60": (2, 15, 36, (8, 8, 8)),
    "interval-100": (0, 20, 100, ()),
    "mixed-100": (2, 20, 60, (10, 10, 10, 10)),
}


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
@pytest.mark.parametrize("case", sorted(MEDIUM_CASES))
def test_medium_feasible_instance_solves(case, eps):
    problem = mixed_feasible(*MEDIUM_CASES[case])
    result = dd.follow(problem, dd.make_start(problem), dd.FollowerOptions(eps=eps))
    assert result.report.status == "EpsSolution", result.report.diagnostics
