"""Print the iteration counts behind the paper's complexity claim.

    PYTHONPATH=src python tests/complexity.py
    PYTHONPATH=src python tests/complexity.py --shapes scalar-10 cones-40 --eps 1e-4

The path-following bound for a barrier of parameter theta is of order
sqrt(theta) ln(1/eps) iterations.  This script solves
``tests/test_medium.py``'s ``mixed_feasible`` instances over a grid of
shapes and accuracies and prints one row per case:

  theta, m, n      the barrier parameter and the size of A;
  status, iters    the report's status and iterations;
  decades          log10 of the last iterate's mu (the anchor's is 1);
  it/dec           iterations per decade of mu;
  newton/it        corrector Newton steps (KKT solves) per iteration;
  trials/it        predictor trial points per iteration, accepted or not.

The shapes are all-scalar instances (halflines and boxes, theta from
about 13 to about 650, n = m/5) and two-cone instances (theta = 4 at
m = 40, 100 and 400, n = 20), which separate theta from m; each is
solved at eps 1e-4, 1e-6 and 1e-8.  The last two lines give the
least-squares exponent of iterations per decade in theta over the
all-scalar ``EpsSolution`` rows, and the largest ratio of iterations to
sqrt(theta) ln(1/eps) over all rows.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import ddsolve as dd
from ddsolve import path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))
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
}
EPS = (1e-4, 1e-6, 1e-8)
HEADER = (f"{'case':<20} {'theta':>7} {'m':>4} {'n':>4} {'status':<17} {'iters':>5} "
          f"{'decades':>7} {'it/dec':>6} {'newton/it':>9} {'trials/it':>9}")


def solve(shape: str, eps: float) -> dict:
    """One case's row fields: the instance ``SHAPES[shape]`` solved at
    ``eps``, its corrector Newton steps and predictor trials counted."""
    problem = mixed_feasible(*SHAPES[shape])
    with pytest.MonkeyPatch.context() as patch:
        probe = Probe(patch)
        probe.count(path, "corrector_step")
        probe.count(path, "predictor_step")
        probe.count(path, "_kkt_solve", "newton", inside="corrector_step")
        probe.count(path, "member_image", "trials", inside="predictor_step")
        result = dd.follow(problem, dd.make_start(problem), dd.FollowerOptions(eps=eps))
    iters = result.report.diagnostics["iterations"]
    decades = math.log10(result.trace[-1].mu)
    return {"case": f"{shape}@{eps:g}", "scalar": not SHAPES[shape][3], "theta": problem.theta,
            "m": problem.A.shape[0], "n": problem.n, "eps": eps,
            "status": result.report.status, "iters": iters,
            "decades": decades, "per_decade": iters / decades if decades > 0.0 else math.nan,
            "newton": probe["newton"] / max(iters, 1), "trials": probe["trials"] / max(iters, 1)}


def row_line(row: dict) -> str:
    return (f"{row['case']:<20} {row['theta']:>7.0f} {row['m']:>4} {row['n']:>4} "
            f"{row['status']:<17} {row['iters']:>5} {row['decades']:>7.2f} "
            f"{row['per_decade']:>6.2f} {row['newton']:>9.2f} {row['trials']:>9.2f}")


def summary_lines(rows: list) -> list:
    """The fitted exponent of iterations per decade in theta over the
    all-scalar EpsSolution rows (nan unless two thetas are among them),
    and the largest iterations / (sqrt(theta) ln(1/eps)) over all rows."""
    solved = [r for r in rows if r["scalar"] and r["status"] == "EpsSolution"
              and r["per_decade"] > 0.0]
    thetas = np.log([r["theta"] for r in solved])
    exponent = (float(np.polyfit(thetas, np.log([r["per_decade"] for r in solved]), 1)[0])
                if len(set(thetas)) > 1 else math.nan)
    ratio = max(r["iters"] / (math.sqrt(r["theta"]) * math.log(1.0 / r["eps"])) for r in rows)
    return [f"exponent of it/dec in theta {exponent:.3f} over {len(solved)} all-scalar rows",
            f"largest iters / (sqrt(theta) ln(1/eps)) {ratio:.3f}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shapes", nargs="+", choices=list(SHAPES), default=list(SHAPES),
                        help="instance shapes (default all)")
    parser.add_argument("--eps", nargs="+", type=float, default=list(EPS),
                        help="accuracies (default 1e-4 1e-6 1e-8)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    print(HEADER)
    rows = []
    for shape in args.shapes:
        for eps in args.eps:
            rows.append(solve(shape, eps))
            print(row_line(rows[-1]), flush=True)
    for line in summary_lines(rows):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
