"""Shared fixtures: the four canonical instances and their solver runs."""

from pathlib import Path

import pytest

import ddsolve as dd

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


def build_tangent():
    # x1 >= ||(x2, x3)||, x1 - x3 pinned to 0 by a halfline pair; min -x2.
    # The feasible set is the tangent ray x2 = 0: optimum 0 attained, dual
    # infeasible with zero dual-infeasibility measure (ill-conditioned)
    A = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, -1], [1, 0, -1]]
    atoms = [dd.soc([0, 1, 2]), dd.halfline_lower(3, 0.0), dd.halfline_upper(4, 0.0)]
    return dd.validate_problem(A, [0.0, -1.0, 0.0], atoms)


# The instance and eps of the box_run and soc_run fixtures; tests/noise.py
# reruns these two runs from here.
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
    problem = build_inf()
    return problem, dd.default_z0(problem)


@pytest.fixture(scope="session")
def unb_problem():
    problem = build_unb()
    return problem, dd.default_z0(problem)


@pytest.fixture(scope="session")
def soc_problem():
    return started(SOC_RUN[0])


@pytest.fixture(scope="session")
def tangent_problem():
    problem = build_tangent()
    return problem, dd.default_z0(problem)


@pytest.fixture(scope="session")
def box_run(box_problem):
    return follow_at(box_problem, BOX_RUN[1])


@pytest.fixture(scope="session")
def inf_run(inf_problem):
    problem, start = inf_problem
    return dd.follow(problem, start, dd.FollowerOptions(eps=1e-6))


@pytest.fixture(scope="session")
def unb_run(unb_problem):
    problem, start = unb_problem
    return dd.follow(problem, start, dd.FollowerOptions(eps=1e-6))


@pytest.fixture(scope="session")
def soc_run(soc_problem):
    return follow_at(soc_problem, SOC_RUN[1])


@pytest.fixture(scope="session")
def tangent_run(tangent_problem):
    problem, start = tangent_problem
    return dd.follow(problem, start, dd.FollowerOptions(eps=1e-2, max_iters=300))


@pytest.fixture
def instance_path():
    def lookup(name):
        return str(INSTANCE_DIR / name)
    return lookup
