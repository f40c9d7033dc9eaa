"""Time the follower's inner functions on a benchmark workload's solves.

    python tests/layers.py --workload soc-wide --seed 1 --solves 3

The instances are the benchmark's: ``bench/harness.make_instances``
builds them, ``harness.write_problem_files`` writes them to a temporary
directory, ``harness.set_up`` turns them into (problem, start) pairs and
``harness.solve_one`` solves each, as the benchmark's untraced pass does.
All of ``bench/`` is only imported.  Each solve, and each call of a
function in ``FUNCTIONS``, is a span of ``bench/spans.py``'s
``SpanRecorder``, wrapped by ``spans.instrumented`` with ``FUNCTIONS`` in
place of the benchmark's targets, and ``SpanTable`` aggregates them.

One row per function, of its outermost calls, children included: calls
per solve, microseconds per call and share of the solve wall time.
``BlockMetric.matvec`` counts only the metric products a ``_kkt_solve``
applies.  The rows nest (``proximity_at`` runs inside ``_at_own_mu``), so
the shares do not add up; the last row, ``rest``, is the share of the
solve time spent outside every function listed.  The wrappers cost about
a microsecond per call, which the shares include.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

# one BLAS thread unless the caller says otherwise, as bench/run.py does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import harness  # noqa: E402
import spans  # noqa: E402

SOLVE = "solve"
MATVEC = "BlockMetric.matvec"
KKT = "_kkt_solve"
# (row and span name, module, attribute or "Class.method"), as spans.TARGETS
# lists its targets, in printed order
FUNCTIONS = (
    (KKT, "ddsolve.path", "_kkt_solve"),
    (MATVEC, "ddsolve.barriers", "BlockMetric.matvec"),
    ("_evaluate", "ddsolve.path", "_evaluate"),
    ("residuals", "ddsolve.path", "residuals"),
    ("_at_own_mu", "ddsolve.path", "_at_own_mu"),
    ("proximity_at", "ddsolve.model", "proximity_at"),
    ("member_image", "ddsolve.model", "member_image"),
    ("_step_bound", "ddsolve.path", "_step_bound"),
    ("status.stop_params", "ddsolve.status", "stop_params"),
    ("_check_invariants", "ddsolve.path", "_check_invariants"),
)


def solve_spans(workload, seed: int, solves: int):
    """The ``SpanTable`` of ``solves`` instances of ``workload`` at
    ``seed``, each solve a ``SOLVE`` span around the functions' spans."""
    instances = harness.make_instances(workload, seed, solves)
    with tempfile.TemporaryDirectory() as tmp:
        files = harness.write_problem_files(instances, Path(tmp))
        pairs = harness.set_up(workload, instances, files)
    recorder = spans.SpanRecorder()
    # the benchmark's own instrumentation, pointed at these functions
    with mock.patch.object(spans, "TARGETS", FUNCTIONS), spans.instrumented(recorder):
        for problem, start in pairs:
            with recorder.span(SOLVE):
                harness.solve_one(workload, problem, start)
    return recorder.table()


def rows(table, solves: int) -> list:
    """(name, calls per solve, us per call, share of solve time) per
    function, then ("rest", None, None, share)."""
    total = table.inclusive_s(SOLVE)
    out = []
    for name, *_ in FUNCTIONS:
        if name == MATVEC:
            kkt = table.names.index(KKT) if KKT in table.names else -2
            inside = table.mask(MATVEC) & (table.parent_name == kkt)
            calls, seconds = int(inside.sum()), float(table.duration[inside].sum())
        else:
            calls, seconds = table.calls(name), table.inclusive_s(name)
        out.append((name, calls / solves, 1e6 * seconds / calls if calls else 0.0,
                    seconds / total))
    # a matvec outside every listed function is part of the rest
    top = (table.parent_name == table.names.index(SOLVE)) & ~table.mask(MATVEC)
    out.append(("rest", None, None, 1.0 - float(table.duration[top].sum()) / total))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1, help="instance seed (default 1)")
    parser.add_argument("--solves", type=int, default=4, help="instances solved (default 4)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.solves < 1:
        raise SystemExit("--solves must be at least 1")
    if args.seed < 0:
        raise SystemExit("--seed must be at least 0")
    table = solve_spans(harness.WORKLOADS[args.workload], args.seed, args.solves)
    print(f"workload {args.workload}: seed {args.seed}, {args.solves} solves, "
          f"{table.inclusive_s(SOLVE) / args.solves:.6f} s per solve")
    print(f"{'function':<20} {'calls/solve':>12} {'us/call':>10} {'share':>7}")
    for name, calls, us, share in rows(table, args.solves):
        if calls is None:
            print(f"{name:<20} {'-':>12} {'-':>10} {share:>7.3f}")
        else:
            print(f"{name:<20} {calls:>12.1f} {us:>10.1f} {share:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
