"""Run tier-1 under rounding noise, once per seed, and count the failures.

    python tests/noise.py --seeds 12
    python tests/noise.py --seeds 1 -- tests/test_status.py   # chosen tests
    python tests/noise.py --seeds 12 --parent ../parent       # both sides

Each seed runs the tier-1 suite (or the pytest arguments after ``--``) in
one subprocess with ``tests/noise_plugin.py`` loaded, which scales every
KKT solution ``(dx, dtau, dy)`` by ``1 + k * 2**-52``, k in [-1, 1] from
a sha256 of the solution and the seed.  When the tests have run, the
plugin counts in the same process, under the same noise, the ``counts``
line of ``tests/digest.py`` and the false passes over the iterates of
the runs that line counts: iterates whose float dual-equality check
passes while the exact residual (``oracles.exact_dual_residual_sq``) is
above the tolerance.  It also counts, over the iterates of the
``box_run`` and ``soc_run`` fixtures' runs, how many fail
``tests/test_model.py``'s float check of the three mu forms and how many
fail the same check on the exact forms (``oracles.exact_mu_forms``).

Printed: one line per seed with its number of failed tests, its counts
line, its false passes and its mu-forms failures, how many seeds passed
every test, and for each test that failed under some seed, in how many
seeds it failed.  A test that fails under this noise is decided by
rounding, not by the solver's behaviour; a change that moves bits is
judged against the parent's table over the same seeds, and a test that
fails at the same rate on both sides belongs to the rounding floor.
``--parent ROOT`` runs the same seeds and pytest arguments in the
checkout at ROOT too, on its own ``src`` and ``tests``, and prints every
line of each side prefixed "change: " or "parent: "; a checkout whose
plugin writes no counts is refused.
The package is not changed.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _env(root: Path) -> dict:
    """The environment of a run in the checkout at ``root``: its ``src``
    and ``tests`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_seed(seed: int, pytest_args, root: Path) -> tuple:
    """(tests run, failed node ids, then the counts of ``root``'s
    ``noise_plugin.seed_counts``: digest counts line, false passes,
    iterates, float and exact mu-forms failures and their iterates) under
    ``seed``, from one pytest process in the checkout at ``root``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "outcomes.json"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "noise_plugin", f"--noise-seed={seed}", f"--noise-out={out}",
             "--continue-on-collection-errors", *pytest_args],
            cwd=root, env=_env(root), capture_output=True, text=True)
        if done.returncode not in (0, 1) or not out.is_file():
            raise SystemExit(f"seed {seed}: pytest exited {done.returncode}\n"
                             f"{done.stdout}{done.stderr}")
        outcomes = json.loads(out.read_text())
    if "counts" not in outcomes:
        raise SystemExit(f"{root}: its tests/noise_plugin.py writes no counts")
    return (outcomes["tests"], outcomes["failed"], *outcomes["counts"])


def seed_line(seed: int, result: tuple) -> str:
    """A seed's line, from ``run_seed``'s result."""
    tests, failed, counts, false, iterates, *forms = result
    return (f"seed {seed}: {tests} tests, {len(failed)} failed; counts {counts}; "
            f"false passes {false} of {iterates} iterates; "
            "mu forms fail float {} exact {} of {} iterates".format(*forms))


def table(results: dict) -> list:
    """The closing lines over ``{seed: run_seed's result}``: the seeds that
    passed every test, then each failed test's seed count."""
    clean = sum(not failed for _, failed, *_ in results.values())
    lines = [f"every test passed in {clean} of {len(results)} seeds"]
    per_test = Counter(t for _, failed, *_ in results.values() for t in failed)
    lines += [f"failed in {k} of {len(results)} seeds: {test}"
              for test, k in sorted(per_test.items(), key=lambda item: (-item[1], item[0]))]
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, required=True, help="run seeds 1 to SEEDS")
    parser.add_argument("--parent", type=Path, metavar="ROOT",
                        help="also run in the checkout at ROOT and print its lines")
    parser.add_argument("pytest_args", nargs="*",
                        help="pytest arguments after --, tier-1 when none are given")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seeds < 1:
        raise SystemExit("--seeds must be at least 1")
    sides = {"": ROOT} if args.parent is None else {"change: ": ROOT,
                                                     "parent: ": args.parent.resolve()}
    for root in sides.values():
        if not (root / "tests" / "noise_plugin.py").is_file():
            raise SystemExit(f"{root} has no tests/noise_plugin.py")
    results = {label: {} for label in sides}
    for seed in range(1, args.seeds + 1):
        for label, root in sides.items():
            results[label][seed] = run_seed(seed, args.pytest_args, root)
            print(label + seed_line(seed, results[label][seed]), flush=True)
    for label, side in results.items():
        print("\n".join(label + line for line in table(side)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
