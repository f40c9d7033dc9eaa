"""Print the iteration counts behind the paper's complexity claim.

    PYTHONPATH=src python tests/complexity.py
    PYTHONPATH=src python tests/complexity.py --shapes scalar-10 cones-40 --eps 1e-4
    PYTHONPATH=src python tests/complexity.py --kinds infeasible unbounded

The path-following bound for a barrier of parameter theta is of order
sqrt(theta) ln(1/eps) iterations.  By default this script solves
``tests/test_medium.py``'s ``mixed_feasible`` instances over a grid of
shapes and accuracies.  With ``--kinds`` it solves ``bench/families.py``'s
instances of those kinds instead (``feasible``, ``infeasible``,
``unbounded``), each built from ``np.random.default_rng`` of its shape's
seed, so the certificate statuses get the same table.  One row per case:

  case, family     the shape at its eps, and the instance family;
  theta, m, n      the barrier parameter and the size of A;
  status, ok       the report's status, and whether it is the family's
                   expected one;
  iters, decades   the report's iterations, and log10 of the last
                   iterate's mu (the anchor's is 1);
  it/dec           iterations per decade of mu;
  newton/it        corrector Newton steps (KKT solves) per iteration;
  to-k/2           Newton steps per corrector before its first point
                   within kappa/2 at its own mu, the corrector's target;
  trials/it        predictor trial points per iteration, accepted or not;
  caps p/d/t/f     how many predictor steps had their first trial set by
                   the primal boundary, the dual boundary, tau's bound or
                   the PREDICTOR_TRIAL_FACTOR * mu cap;
  first, accept    the medians of the first trial's and the accepted
                   trial's dmu/mu;
  ratio            the median of accepted / first per predictor step;
  prox             the median accepted proximity (the bound is 2 kappa).

The last five columns read the predictor steps that returned; to-k/2
reads the correctors that returned.

The shapes are all-scalar instances (halflines and boxes, theta from
about 13 to about 650, n = m/5), two-cone instances (theta = 4 at
m = 40, 100 and 400, n = 20), which separate theta from m, and mixed-100
(60 scalars and four 10-dimensional cones, n = 20); each is solved at
eps 1e-4, 1e-6 and 1e-8.  The summary gives, per family that expects an
``EpsSolution``, the least-squares exponent of iterations per decade in
theta over its all-scalar ``EpsSolution`` rows, and per family the
largest ratio of iterations to sqrt(theta) ln(1/eps).
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import ddsolve as dd
from ddsolve import barriers, path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))
sys.path.insert(0, str(TESTS.parent / "bench"))
import families  # noqa: E402
from probe import Probe  # noqa: E402
from test_medium import mixed_feasible  # noqa: E402

# label: (seed, n, n_scalar, soc_dims), smallest first
SHAPES = {
    "scalar-10": (0, 2, 10, ()),
    "scalar-40": (0, 8, 40, ()),
    "scalar-160": (0, 32, 160, ()),
    "scalar-480": (0, 96, 480, ()),
    "cones-40": (0, 20, 0, (20, 20)),
    "cones-100": (0, 20, 0, (50, 50)),
    "cones-400": (0, 20, 0, (200, 200)),
    "mixed-100": (0, 20, 60, (10,) * 4),
}
EPS = (1e-4, 1e-6, 1e-8)
MIXED = "mixed_feasible"
BUILDERS = {families.FEASIBLE: families.feasible, families.INFEASIBLE: families.infeasible,
            families.UNBOUNDED: families.unbounded}
EXPECTED = {MIXED: "EpsSolution", **families.EXPECTED_STATUS}
CAPS = ("primal", "dual", "tau", "factor")
HEADER = (f"{'case':<17} {'family':<14} {'theta':>6} {'m':>4} {'n':>3} {'status':<24} "
          f"{'ok':<3} {'iters':>5} {'decades':>7} {'it/dec':>6} {'newton/it':>9} "
          f"{'to-k/2':>6} {'trials/it':>9} {'caps p/d/t/f':>14} {'first':>7} {'accept':>7} "
          f"{'ratio':>6} {'prox':>6}")


def build(shape: str, family: str) -> dd.Problem:
    """The ``family`` instance of ``SHAPES[shape]``."""
    seed, n, n_scalar, soc_dims = SHAPES[shape]
    if family == MIXED:
        return mixed_feasible(seed, n, n_scalar, soc_dims)
    inst = BUILDERS[family](np.random.default_rng(seed), f"{family}-{shape}", n, n_scalar,
                            soc_dims)
    return dd.validate_problem(inst.A, inst.c, inst.atoms)


def own_proximity(problem, start, point) -> float:
    """The proximity at a corrector point's own mu, as its exit test forms
    it; +inf where that raises, as the exit test reads it."""
    try:
        return path._at_own_mu(problem, start, point).proximity
    except (dd.SolverError, ArithmeticError):
        return math.inf


def capped_by(dmu: float, cap: float, bounds: dict) -> str:
    """Which of the predictor's caps set its first trial ``dmu``: the
    fraction-to-boundary ``bounds`` by side, the trial factor's ``cap``,
    or else tau's bound."""
    return ("primal" if dmu == bounds[barriers.PRIMAL]
            else "dual" if dmu == bounds[barriers.CONJUGATE]
            else "factor" if dmu == cap else "tau")


def median(values) -> float:
    return float(np.median(values)) if values else math.nan


def solve(shape: str, eps: float, family: str = MIXED) -> dict:
    """One case's row fields: the ``family`` instance of ``SHAPES[shape]``
    solved at ``eps``, with what each predictor and corrector step did."""
    problem = build(shape, family)
    with pytest.MonkeyPatch.context() as patch:
        probe = Probe(patch)
        probe.count(path, "residuals", "own", inside="corrector_step",
                    keep=lambda out, *args: own_proximity(*args))
        # a corrector that returns ends its points' run of "own" here
        probe.count(path, "corrector_step", keep=lambda *_: len(probe.kept["own"]))
        probe.count(path, "predictor_step",
                    keep=lambda out, problem, start, point, previous: (
                        (out[0].mu - point.mu) / point.mu, out[0].proximity))
        probe.count(barriers.DomainBarrier, "step_to_boundary", "bounds",
                    inside="predictor_step",
                    keep=lambda out, barrier, z, dz, side: (
                        side, path.BOUNDARY_FRACTION * out))
        # the predictor's one _step_bound call forms its last two bounds
        probe.count(path, "_step_bound", "first", inside="predictor_step",
                    keep=lambda dmu, problem, start, point, dx, dtau, dy, cap: (
                        dmu / point.mu, capped_by(dmu, cap, dict(probe.kept["bounds"][-2:]))))
        probe.count(path, "_kkt_solve", "newton", inside="corrector_step")
        probe.count(path, "member_image", "trials", inside="predictor_step")
        result = dd.follow(problem, dd.make_start(problem), dd.FollowerOptions(eps=eps))
    iters = result.report.diagnostics["iterations"]
    decades = math.log10(result.trace[-1].mu)
    target = path.CORRECTOR_TARGET * problem.kappa
    own, ends = probe.kept["own"], probe.kept["corrector_step"]
    to_target = [next(k for k, prox in enumerate(own[a:b]) if prox <= target)
                 for a, b in zip([0] + ends[:-1], ends)]
    steps = list(zip(probe.kept["first"], probe.kept["predictor_step"]))
    return {"case": f"{shape}@{eps:g}", "family": family, "scalar": not SHAPES[shape][3],
            "theta": problem.theta, "m": problem.A.shape[0], "n": problem.n, "eps": eps,
            "status": result.report.status, "ok": result.report.status == EXPECTED[family],
            "iters": iters, "decades": decades,
            "per_decade": iters / decades if decades > 0.0 else math.nan,
            "newton": probe["newton"] / max(iters, 1),
            "to_target": sum(to_target) / len(to_target) if to_target else math.nan,
            "trials": probe["trials"] / max(iters, 1),
            "caps": [sum(capped == c for (_, capped), _ in steps) for c in CAPS],
            "first": median([f for (f, _), _ in steps]),
            "accepted": median([a for _, (a, _) in steps]),
            "ratio": median([a / f for (f, _), (a, _) in steps]),
            "proximity": median([prox for _, (_, prox) in steps])}


def row_line(row: dict) -> str:
    caps = "/".join(str(c) for c in row["caps"])
    return (f"{row['case']:<17} {row['family']:<14} {row['theta']:>6.0f} {row['m']:>4} "
            f"{row['n']:>3} {row['status']:<24} {'yes' if row['ok'] else 'no':<3} "
            f"{row['iters']:>5} {row['decades']:>7.2f} {row['per_decade']:>6.2f} "
            f"{row['newton']:>9.2f} {row['to_target']:>6.2f} {row['trials']:>9.2f} "
            f"{caps:>14} {row['first']:>7.3f} {row['accepted']:>7.3f} {row['ratio']:>6.3f} "
            f"{row['proximity']:>6.3f}")


def summary_lines(rows: list) -> list:
    """Per family that expects an EpsSolution, the fitted exponent of
    iterations per decade in theta over its all-scalar EpsSolution rows
    (nan unless two thetas are among them); per family, the largest
    iterations / (sqrt(theta) ln(1/eps)) over its rows."""
    lines = []
    for family in dict.fromkeys(r["family"] for r in rows):
        own = [r for r in rows if r["family"] == family]
        if EXPECTED[family] == "EpsSolution":
            solved = [r for r in own if r["scalar"] and r["status"] == "EpsSolution"
                      and r["per_decade"] > 0.0]
            thetas = np.log([r["theta"] for r in solved])
            exponent = (float(np.polyfit(thetas, np.log([r["per_decade"] for r in solved]),
                                         1)[0])
                        if len(set(thetas)) > 1 else math.nan)
            lines.append(f"exponent of it/dec in theta {exponent:.3f} over {len(solved)} "
                         f"all-scalar {family} rows")
        ratio = max(r["iters"] / (math.sqrt(r["theta"]) * math.log(1.0 / r["eps"]))
                    for r in own)
        lines.append(f"largest iters / (sqrt(theta) ln(1/eps)) {ratio:.3f} over {family} rows")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shapes", nargs="+", choices=list(SHAPES), default=list(SHAPES),
                        help="instance shapes (default all)")
    parser.add_argument("--eps", nargs="+", type=float, default=list(EPS),
                        help="accuracies (default 1e-4 1e-6 1e-8)")
    parser.add_argument("--kinds", nargs="+", choices=list(BUILDERS), default=[MIXED],
                        help="bench/families.py kinds to solve (default: the "
                             "mixed_feasible instances of tests/test_medium.py)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    print(HEADER)
    rows = []
    for family in args.kinds:
        for shape in args.shapes:
            for eps in args.eps:
                rows.append(solve(shape, eps, family))
                print(row_line(rows[-1]), flush=True)
    for line in summary_lines(rows):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
