"""Print sha256 digests of the solver's outputs, to show that a change
keeps them bit for bit.

    PYTHONPATH=src python tests/digest.py
    PYTHONPATH=src python tests/digest.py --runs           # a line per run first
    PYTHONPATH=src python tests/digest.py --parent ../parent

Three digests, one line of counts and a parse digest:

  cli       stdout, exit code and --trace CSV of
            ``ddsolve solve <f> --eps E --strict --trace`` for every
            ``instances/*.dd`` at eps 1e-4, 1e-6 and 1e-8;
  iterates  the float64 bytes of every iterate's x, tau, y, mu and
            proximity, and the invariant messages, of those runs and of
            the three ``tests/test_medium.py`` cases at eps 1e-6;
  reports   the report JSON (``run_solve``, not strict) of the same runs,
            then that of ``run_solve`` on the five ``tests/conftest.py``
            problems at eps 1e-2, 1e-3 and 1e-6, ``max_iters`` 0, 2, 5
            and 100, each with and without ``strict``: 120 short runs
            that reach every status;
  counts    the status histogram and the total iterations and invariant
            violations of the iterate runs and of six two-cone runs,
            ``mixed_feasible(seed, 40, 0, (40, 40))`` for seeds 0-5 at
            eps 1e-6.  A change that moves only rounding changes the
            digests; it is judged on these summed counts instead.
            ``counted_runs`` solves each of these 21 runs once, the
            cone runs first, and ``counts_line`` formats the line; the
            iterates and reports digests read the same solves, and
            ``tests/noise_plugin.py`` reads both under its noise;
  parse     what ``cli.parse_problem_file`` makes of the first 4,000
            seed-7 documents of ``tests/fuzz.py`` and of the
            ``tests/conftest.py`` many-atom documents: the error's type,
            text and field, or the float64 bytes of the problem's A and
            c, its atoms' fields, xi, kappa and the start, so a parser
            rewrite shows that it keeps every message and every accepted
            problem.  Warnings are not part of it; the fuzz checks those.

``--runs`` prints, before those five lines, one line per run that the
iterates digest or the counts line reads: its label, status, iterations,
invariant violations and the sha256 of its iterates, hashed as the
iterates digest hashes them, then one line per short ``run_solve`` run
that only the reports digest reads: its label, status, exit code and the
sha256 of its report JSON, then one line per parsed document: its label
and the sha256 of its outcome.  Each run's line ends with its report's
failure class, ``reason=`` and the reason's text before its first ":"
(``CorrectorStall``, say), as ``bench/harness.failure_reason`` keys a
stall, or ``reason=-`` where the report gives no reason.
``--parent ROOT`` runs this script with ``--runs`` twice, on this
checkout's ``src`` and on ``ROOT/src``, and prints only the runs and
documents whose lines differ, each side's line prefixed "change: " or
"parent: ", and exits 1 if it printed any; a change that moves no bit
prints nothing and exits 0.

Only public API is used, so the script runs against any checkout's
``src`` put first on PYTHONPATH; compare its output between two of them.
A RuntimeWarning in any run is an error, as it is in the test suite, so
a change that makes a digested run warn fails here.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

import ddsolve as dd
from ddsolve import cli

TESTS = Path(__file__).resolve().parent
INSTANCES = sorted((TESTS.parent / "instances").glob("*.dd"))
FILE_EPS = (1e-4, 1e-6, 1e-8)
MEDIUM_EPS = 1e-6
CONE_SEEDS = range(6)   # counted, not digested
SMALL_EPS = (1e-2, 1e-3, 1e-6)
SMALL_MAX_ITERS = (0, 2, 5, 100)

PARSE_SEED, PARSE_COUNT = 7, 4000

sys.path.insert(0, str(TESTS))
import fuzz  # noqa: E402
from conftest import (MANY_ATOM_SEEDS, build_box, build_inf, build_soc,  # noqa: E402
                      build_tangent, build_unb, many_atom_document)
from test_medium import MEDIUM_CASES, mixed_feasible  # noqa: E402


def _runs():
    """(label, problem, start, eps) of every run digested."""
    for path in INSTANCES:
        for eps in FILE_EPS:
            problem, start = cli.parse_problem_file(path)
            yield f"{path.name}@{eps:g}", problem, start, eps
    for case in sorted(MEDIUM_CASES):
        problem = mixed_feasible(*MEDIUM_CASES[case])
        yield f"{case}@{MEDIUM_EPS:g}", problem, dd.make_start(problem), MEDIUM_EPS


def _cone_runs():
    """(label, problem, start, eps) of the runs only counted."""
    for seed in CONE_SEEDS:
        problem = mixed_feasible(seed, 40, 0, (40, 40))
        yield f"cones-{seed}@{MEDIUM_EPS:g}", problem, dd.make_start(problem), MEDIUM_EPS


def _small_reports(h) -> list:
    """Feed ``h`` the report JSON of every small run_solve call; returns
    each call's line: label, status, exit code and the sha256 of the JSON."""
    lines = []
    for build in (build_box, build_inf, build_unb, build_soc, build_tangent):
        problem = build()
        start = dd.make_start(problem)
        for eps in SMALL_EPS:
            for max_iters in SMALL_MAX_ITERS:
                for strict in (False, True):
                    label = f"{build.__name__}@{eps:g}/{max_iters}/{strict}"
                    report = cli.run_solve(problem, start, eps, strict=strict,
                                           max_iters=max_iters)
                    text = report.to_json().encode()
                    h.update(label.encode())
                    h.update(text)
                    lines.append(f"{label} {report.status} exit={report.exit_code} "
                                 f"{hashlib.sha256(text).hexdigest()} {failure_class(report)}")
    return lines


def cli_digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        for path in INSTANCES:
            for eps in FILE_EPS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["solve", str(path), "--eps", repr(eps),
                                     "--strict", "--trace", str(trace)])
                h.update(f"{path.name} {eps!r} {code}\n".encode())
                h.update(out.getvalue().encode())
                h.update(trace.read_bytes())
    return h.hexdigest()


def _parse_documents():
    """(label, document) of every document the parse digest reads."""
    for k, doc in enumerate(fuzz.documents(PARSE_SEED, PARSE_COUNT)):
        yield f"parse:fuzz-{k}", doc
    for seed in MANY_ATOM_SEEDS:
        for shuffled in (False, True):
            order = "shuffled" if shuffled else "ordered"
            yield f"parse:many-{seed}-{order}", many_atom_document(seed, shuffled)[0]


def parse_outcome(path) -> bytes:
    """What ``cli.parse_problem_file`` makes of the file at ``path``: its
    error's type and text, or the bytes of the problem and its start."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            problem, start = cli.parse_problem_file(path)
        except dd.SolverError as exc:
            return f"{type(exc).__name__}: {exc} field={getattr(exc, 'field', None)}".encode()
    atoms = [(a.kind, a.coords, a.offset, a.lower, a.upper, a.theta) for a in problem.atoms]
    numbers = [problem.A, problem.c, [problem.xi, problem.kappa], start.z0, start.y0,
               [start.y_tau0, start.aty0_inf, start.z0_norm], start.aty0]
    return repr(atoms).encode() + b"".join(np.asarray(v, dtype=np.float64).tobytes()
                                           for v in numbers)


def parse_digest() -> tuple:
    """(parse digest, one line per document: its label and the sha256 of
    its outcome)."""
    h, lines = hashlib.sha256(), []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.dd"
        for label, doc in _parse_documents():
            path.write_text(json.dumps(doc))
            outcome = parse_outcome(path)
            h.update(label.encode())
            h.update(outcome)
            lines.append(f"{label} {hashlib.sha256(outcome).hexdigest()}")
    return h.hexdigest(), lines


def _iterate_bytes(result):
    """The bytes of a run's iterates and invariant messages, in the order
    the iterates digest reads them."""
    for it in result.iterates:
        yield np.asarray(it.x, dtype=np.float64).tobytes()
        yield np.asarray(it.y, dtype=np.float64).tobytes()
        yield np.array([it.tau, it.mu, it.proximity], dtype=np.float64).tobytes()
    yield "\n".join(result.invariant_violations).encode()


def failure_class(report) -> str:
    """``reason=`` and the text of ``report``'s reason before its first
    ":", or "-" where it has none."""
    reason = report.diagnostics.get("reason")
    return "reason=" + ("-" if reason is None else reason.split(":", 1)[0])


def run_line(label: str, result) -> str:
    """One run's line: label, status, iterations, violations, the sha256
    of its iterates and its failure class."""
    h = hashlib.sha256()
    for chunk in _iterate_bytes(result):
        h.update(chunk)
    return (f"{label} {result.report.status} "
            f"iterations={result.report.diagnostics['iterations']} "
            f"violations={len(result.invariant_violations)} {h.hexdigest()} "
            f"{failure_class(result.report)}")


def counted_runs():
    """(label, problem, start, eps, result) of each of the 21 runs the
    counts line reads, each solved once by ``dd.follow``: the six cone runs,
    which only that line reads, then the twelve file runs and the three
    medium runs, which the iterates and reports digests read too."""
    for label, problem, start, eps in itertools.chain(_cone_runs(), _runs()):
        yield label, problem, start, eps, dd.follow(problem, start, dd.FollowerOptions(eps=eps))


def counts_line(results) -> str:
    """The counts line of the follow ``results``: each status's number of
    runs, then the total iterations and invariant violations."""
    counts = Counter()
    for result in results:
        counts[result.report.status] += 1
        counts["iterations"] += result.report.diagnostics["iterations"]
        counts["violations"] += len(result.invariant_violations)
    totals = [f"{key}={counts.pop(key)}" for key in ("iterations", "violations")]
    statuses = ",".join(f"{status}:{k}" for status, k in sorted(counts.items()))
    return " ".join([statuses, *totals])


def solve_digests() -> tuple:
    """(iterates digest, reports digest, counts line, the run lines and
    then the short report lines)."""
    iterates, reports, results, lines = hashlib.sha256(), hashlib.sha256(), [], []
    for label, problem, start, eps, result in counted_runs():
        results.append(result)
        lines.append(run_line(label, result))
        if label.startswith("cones-"):   # counted, not digested
            continue
        iterates.update(label.encode())
        for chunk in _iterate_bytes(result):
            iterates.update(chunk)
        reports.update(label.encode())
        reports.update(cli.run_solve(problem, start, eps).to_json().encode())
    lines += _small_reports(reports)
    return iterates.hexdigest(), reports.hexdigest(), counts_line(results), lines


def _side_lines(root: Path) -> list:
    """The run lines of ``digest.py --runs`` on the package in ``root/src``."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__, "--runs"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    if done.returncode != 0:
        raise SystemExit(f"{root}: digest exited {done.returncode}\n{done.stderr}")
    return done.stdout.splitlines()[:-5]


def differing(change: list, parent: list) -> list:
    """The lines of each run, by label, whose line differs between the two
    sides or that only one side ran: "change: " and "parent: " lines, in
    the change's run order, then the parent's runs it lacks."""
    by_label = {prefix: {line.split(" ", 1)[0]: line for line in lines}
                for prefix, lines in (("change: ", change), ("parent: ", parent))}
    out = []
    for label in dict.fromkeys([*by_label["change: "], *by_label["parent: "]]):
        lines = {prefix: runs.get(label) for prefix, runs in by_label.items()}
        if lines["change: "] != lines["parent: "]:
            out += [prefix + line for prefix, line in lines.items() if line is not None]
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", action="store_true",
                        help="print one line per run and document before the five lines")
    parser.add_argument("--parent", type=Path, metavar="ROOT",
                        help="print only the runs and documents whose lines differ from "
                             "ROOT/src's")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.parent is not None:
        parent = args.parent.resolve()
        if not (parent / "src" / "ddsolve").is_dir():
            raise SystemExit(f"{parent} has no src/ddsolve")
        lines = differing(_side_lines(TESTS.parent), _side_lines(parent))
        for line in lines:
            print(line)
        return int(bool(lines))
    warnings.simplefilter("error", RuntimeWarning)
    cli_line = "cli " + cli_digest()
    it, rep, counts, lines = solve_digests()
    parse, parse_lines = parse_digest()
    if args.runs:
        print(*lines, *parse_lines, sep="\n")
    print(cli_line)
    print("iterates", it)
    print("reports", rep)
    print("counts", counts)
    print("parse", parse)


if __name__ == "__main__":
    sys.exit(main())
