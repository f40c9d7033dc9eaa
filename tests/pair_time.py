"""Time two checkouts of the solver against each other on the same problems.

    python tests/pair_time.py PARENT CHANGE --workload certify --pairs 20

PARENT and CHANGE are checkout roots, each with ``src/ddsolve``.  Both
packages are loaded into this one process under distinct names, so they
share the interpreter, the numpy build and the machine's state.

The instances are generated once, through ``bench/families.py`` with the
workload definitions of ``bench/harness.py`` (both only read), and written
as problem files that both sides parse.  Each pair makes one pass per
side: that side's set-up, then its solves, each solve on the problem the
side set up in the last pass of its set-up.  The side that goes first
alternates from pair to pair, so a drift in the host's speed or a
warm-cache advantage falls on both.  Both halves are timed as the
benchmark times them, through ``calibrate.timed_calls`` on one calibrated
clock (``bench/calibrate.py``, only read), which scales each timed call's
wall time by the speed probes on either side of it and of its safe
points.  A side's set-up is timed as ``setup_s`` is:
``harness.SETUP_REPEATS`` back-to-back repeats, each setting up every
instance ``setup_passes`` times over; the median repeat, per set-up, is
the side's time in the pair.  The set-up is ``cli.parse_problem_file`` on
a CLI workload and ``validate_problem`` plus ``make_start`` otherwise, on
the data each side parsed once beforehand.  Each solve is one timed call,
as ``solve_s`` times it: up to the report JSON of
``cli.run_solve(strict=True)`` on a CLI workload, and ``follow``
otherwise, whose ``on_iterate`` is the clock's safe point.

Printed: the median over all solve pairs of the change's time divided by
the parent's, the number of pairs, each side's median solve time, and the
rule of a claimed gain: in how many pairs the change's median solve was
faster than the parent's, and the parent's per-solve IQR, the distance
between the quartiles of its pair medians (0 for one pair).  A last line
gives the same figures for the set-up, one time per side and pair.  Only
public API is used, like ``tests/digest.py``, which shows that a perf
change keeps the output; this tool, over more than ten pairs, shows its
gain.
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
from functools import partial
from pathlib import Path

# one BLAS thread unless the caller says otherwise, as bench/run.py does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import calibrate  # noqa: E402
import harness  # noqa: E402

INSTANCES = 8   # solved per pair and side: 160 solve pairs at 20 pairs


def load_side(root: Path, name: str):
    """The ``cli`` module and package of ``root/src/ddsolve``, imported as
    package ``name``."""
    init = root / "src" / "ddsolve" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no solver sources under {root}/src/ddsolve")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli"), package


def set_up_seconds(side, workload, data, clock) -> tuple:
    """Seconds per set-up of ``data`` as ``setup_s`` times it, and the
    (problem, start) pairs of the last pass: the median of
    ``harness.SETUP_REPEATS`` back-to-back repeats, each setting up every
    entry of ``data`` ``workload.setup_passes`` times, timed by ``clock``,
    the benchmark's calibrated clock.  ``data`` holds problem files on a
    CLI workload and (A, c, atoms) triples otherwise."""
    cli, dd = side

    def set_up_passes(_, split):
        for _ in range(workload.setup_passes):
            if workload.via_cli:
                prepared = [cli.parse_problem_file(f) for f in data]
            else:
                prepared = []
                for A, c, atoms in data:
                    problem = dd.validate_problem(A, c, atoms)
                    prepared.append((problem, dd.make_start(problem)))
            split()
        return prepared

    setups, _, repeats = calibrate.timed_calls(clock, set_up_passes,
                                               range(harness.SETUP_REPEATS))
    return statistics.median(repeats) / (workload.setup_passes * len(data)), setups[-1]


def set_up_data(side, workload, files) -> list:
    """What ``set_up_seconds`` reads for each file: the file itself on a CLI
    workload, otherwise the side's own parse of its (A, c, atoms)."""
    if workload.via_cli:
        return list(files)
    cli, _ = side
    return [(p.A, p.c, p.atoms) for p, _ in map(cli.parse_problem_file, files)]


def solve_one(side, workload, pair, split) -> None:
    """One solve of the (problem, start) ``pair`` as ``harness.solve_one``
    makes it, ``split`` called after every accepted iterate of ``follow``."""
    cli, dd = side
    problem, start = pair
    if workload.via_cli:
        cli.run_solve(problem, start, harness.EPS, strict=True).to_json()
    else:
        dd.follow(problem, start, dd.FollowerOptions(eps=harness.EPS), lambda row: split())


def pair_times(sides, workload, files, pairs: int, clock) -> tuple:
    """(parent, change) seconds per set-up of each pair, and calibrated
    seconds of every solve pair, pair by pair, all timed by ``clock``."""
    data = [set_up_data(side, workload, files) for side in sides]
    setups, solves = [], []
    for p in range(pairs):
        setup, solve = [0.0, 0.0], [None, None]
        for i in (0, 1) if p % 2 == 0 else (1, 0):
            setup[i], prepared = set_up_seconds(sides[i], workload, data[i], clock)
            solve[i] = calibrate.timed_calls(clock, partial(solve_one, sides[i], workload),
                                             prepared)[2]
        setups.append(tuple(setup))
        solves += zip(*solve)
    return setups, solves


def pair_medians(times, per_pair: int) -> list:
    """(parent, change) median seconds of each pair."""
    chunks = [times[i:i + per_pair] for i in range(0, len(times), per_pair)]
    return [tuple(statistics.median(t[i] for t in chunk) for i in (0, 1)) for chunk in chunks]


def iqr(values) -> float:
    """Third quartile less the first, by the default (exclusive) method of
    ``statistics.quantiles``, as the BENCH_*.json files take them; 0 for a
    single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(times, per_pair: int) -> tuple:
    """(median change/parent ratio, parent median s, change median s,
    pairs the change was faster in, parent IQR of the pair medians)."""
    medians = pair_medians(times, per_pair)
    return (statistics.median(change / parent for parent, change in times),
            statistics.median(t[0] for t in times), statistics.median(t[1] for t in times),
            sum(change < parent for parent, change in medians),
            iqr([parent for parent, _ in medians]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS), required=True)
    parser.add_argument("--pairs", type=int, default=20, help="pairs (default 20)")
    parser.add_argument("--seed", type=int, default=1, help="instance seed (default 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.pairs < 1:
        raise SystemExit("--pairs must be at least 1")
    if args.seed < 0:
        raise SystemExit("--seed must be at least 0")
    workload = harness.WORKLOADS[args.workload]
    sides = (load_side(args.parent.resolve(), "ddsolve_parent"),
             load_side(args.change.resolve(), "ddsolve_change"))
    with tempfile.TemporaryDirectory() as tmp:
        instances = harness.make_instances(workload, args.seed, INSTANCES)
        files = harness.write_problem_files(instances, Path(tmp))
        setups, solves = pair_times(sides, workload, files, args.pairs,
                                    calibrate.CalibratedClock())
    ratio, parent, change, faster, spread = compare(solves, len(files))
    print(f"workload {args.workload}: {args.pairs} pairs of {len(files)} solves per side")
    print(f"median per-solve ratio change/parent {ratio:.4f}")
    print(f"median solve s parent {parent:.6f} change {change:.6f}")
    print(f"change faster in {faster} of {args.pairs} pairs; parent per-solve IQR {spread:.6f}")
    ratio, parent, change, faster, spread = compare(setups, 1)
    print(f"set-up: median per-set-up ratio change/parent {ratio:.4f}; median s parent "
          f"{parent:.6f} change {change:.6f}; change faster in {faster} of {args.pairs} "
          f"pairs; parent per-set-up IQR {spread:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
