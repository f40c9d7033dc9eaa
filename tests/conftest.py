"""Shared fixtures: the canonical instances and their solver runs."""

import random
from pathlib import Path

import numpy as np
import pytest

import ddsolve as dd
import ddsolve.path as path_module

INSTANCE_DIR = Path(__file__).resolve().parents[1] / "instances"


def build_box():
    # min x over the unit box: strictly primal-dual feasible, optimum 0
    return dd.validate_problem([[1.0]], [1.0], [dd.box(0, 0.0, 1.0)])


def build_inf():
    # x >= 0 and -x >= 1: strictly infeasible, certificate direction (-1,-1)
    return dd.validate_problem([[1.0], [-1.0]], [1.0],
                               [dd.halfline_lower(0, 0.0), dd.halfline_lower(1, 1.0)])


def build_unb():
    # min -x over x >= 0: strictly unbounded
    return dd.validate_problem([[1.0]], [-1.0], [dd.halfline_lower(0, 0.0)])


def build_soc():
    # min -x1 + x2 over x2 >= ||(x1, 1)||: infimum 0, never attained;
    # the only dual-feasible point sits on the dual cone boundary
    return dd.validate_problem([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]], [-1.0, 1.0],
                               [dd.soc([0, 1, 2], [0.0, 0.0, 1.0])])


def build_cone_inf():
    # (0, x, 0) + (-1, 0, 0) in the cone needs -1 >= |x|: infeasible, and
    # y = (-1, 0, 0) has A'y = 0, dual margin 1 and support -1
    return dd.validate_problem([[0.0], [1.0], [0.0]], [1.0],
                               [dd.soc([0, 1, 2], [-1.0, 0.0, 0.0])])


def build_tangent():
    # x1 >= ||(x2, x3)||, x1 - x3 pinned to 0 by a halfline pair; min -x2.
    # The feasible set is the tangent ray x2 = 0: optimum 0 attained, dual
    # infeasible with zero dual-infeasibility measure (ill-conditioned)
    A = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, -1], [1, 0, -1]]
    atoms = [dd.soc([0, 1, 2]), dd.halfline_lower(3, 0.0), dd.halfline_upper(4, 0.0)]
    return dd.validate_problem(A, [0.0, -1.0, 0.0], atoms)


MANY_ATOM_SEEDS = (0, 1)


def many_atom_document(seed: int, shuffled: bool) -> tuple:
    """(document, atoms): a problem file of 32 atoms, eight of each kind,
    and the atoms the API constructors build for it.  The halflines come
    first, in a seeded order, then the boxes and the cones.  Coordinates
    are handed out in atom order, or in a seeded permutation when
    ``shuffled``, so each group's selector is a slice or an index array.
    Each bound and offset entry is an int or a float, and a quarter of the
    offsets are left out."""
    rng = random.Random(seed)
    halflines = ["halfline_lower", "halfline_upper"] * 8
    rng.shuffle(halflines)
    kinds = halflines + ["box"] * 8 + ["soc"] * 8
    dims = [rng.randint(2, 4) if kind == "soc" else 1 for kind in kinds]
    image = list(range(sum(dims)))
    if shuffled:
        rng.shuffle(image)

    def number():
        return rng.randint(-3, 3) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0)

    entries, atoms, first = [], [], 0
    for kind, k in zip(kinds, dims):
        coords, first = image[first:first + k], first + k
        entry = {"type": kind, "coords": [i + 1 for i in coords]}
        offset = [number() for _ in coords] if rng.random() < 0.75 else None
        if offset is not None:
            entry["offset"] = offset if kind == "soc" else offset[0]
        if kind == "soc":
            atoms.append(dd.soc(coords, offset))
        elif kind == "box":
            lower = number()
            entry["bounds"] = [lower, lower + rng.choice([1, 2.5])]
            atoms.append(dd.box(coords[0], *entry["bounds"], *(offset or ())))
        else:
            entry["bounds"] = number()
            build = dd.halfline_lower if kind == "halfline_lower" else dd.halfline_upper
            atoms.append(build(coords[0], entry["bounds"], *(offset or ())))
        entries.append(entry)
    m, n = len(image), 3
    document = {"n": n, "m": m, "A": [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(m)],
                "c": [rng.gauss(0.0, 1.0) for _ in range(n)], "atoms": entries}
    return document, atoms


def caller_rows(table, rule: str) -> list:
    """A pytest row (call, bad value, rule) per (name, call, bad values)
    entry of the input ``rule``'s ``table`` and per value."""
    return [pytest.param(call, value, rule, id=f"{rule}-{name}-{type(value).__name__}-{value}")
            for name, call, values in table for value in values]


def follower_point(problem, start, x, tau, y):
    """The follower point at (x, tau, y), built as ``follow`` builds its
    mu = 1 anchor: one ``path._evaluate``, then ``path._at_own_mu``, which
    puts it at its own mu with its proximity there.  ``residuals`` and
    ``predictor_step`` take such points; a corrector starts from the
    Newton point ``path._evaluate(..., newton=True)`` forms."""
    point = path_module._evaluate(problem, start, x, tau, y, np.nan)
    return path_module._at_own_mu(problem, start, point)


# The instance and eps of the box_run and soc_run fixtures;
# tests/noise_plugin.py's seed_counts reruns these two runs from here.
BOX_RUN = build_box, 1e-6
SOC_RUN = build_soc, 1e-4


def started(build):
    """``build()``'s problem and its default start, as the ``*_problem``
    fixtures hold them."""
    problem = build()
    return problem, dd.make_start(problem)


def follow_at(problem_start, eps):
    """The follower's run from a ``started`` pair at ``eps``."""
    problem, start = problem_start
    return dd.follow(problem, start, dd.FollowerOptions(eps=eps))


@pytest.fixture(scope="session")
def box_problem():
    return started(BOX_RUN[0])


@pytest.fixture(scope="session")
def inf_problem():
    return started(build_inf)


@pytest.fixture(scope="session")
def unb_problem():
    return started(build_unb)


@pytest.fixture(scope="session")
def soc_problem():
    return started(SOC_RUN[0])


@pytest.fixture(scope="session")
def cone_inf_problem():
    return started(build_cone_inf)


@pytest.fixture(scope="session")
def tangent_problem():
    return started(build_tangent)


@pytest.fixture(scope="session")
def box_run(box_problem):
    return follow_at(box_problem, BOX_RUN[1])


@pytest.fixture(scope="session")
def inf_run(inf_problem):
    return follow_at(inf_problem, 1e-6)


@pytest.fixture(scope="session")
def unb_run(unb_problem):
    return follow_at(unb_problem, 1e-6)


@pytest.fixture(scope="session")
def soc_run(soc_problem):
    return follow_at(soc_problem, SOC_RUN[1])


@pytest.fixture(scope="session")
def cone_inf_run(cone_inf_problem):
    return follow_at(cone_inf_problem, 1e-6)


@pytest.fixture(scope="session")
def tangent_run(tangent_problem):
    problem, start = tangent_problem
    return dd.follow(problem, start, dd.FollowerOptions(eps=1e-2, max_iters=300))


@pytest.fixture
def instance_path():
    def lookup(name):
        return str(INSTANCE_DIR / name)
    return lookup
