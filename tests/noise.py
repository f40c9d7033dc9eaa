"""Run tier-1 under rounding noise, once per seed, and count the failures.

    python tests/noise.py --seeds 12
    python tests/noise.py --seeds 1 -- tests/test_status.py   # chosen tests

Each seed runs the tier-1 suite (or the pytest arguments after ``--``) in
its own subprocess with ``tests/noise_plugin.py`` loaded, which scales
every KKT solution ``(dx, dtau, dy)`` by ``1 + k * 2**-52``, k in [-1, 1]
from a sha256 of the solution and the seed.  Each seed also prints the
``counts`` line of ``tests/digest.py`` computed under the same noise.

Printed: one line per seed with its number of failed tests and its counts
line, how many seeds passed every test, and for each test that failed
under some seed, in how many seeds it failed.  A test that fails under
this noise is decided by rounding, not by the solver's behaviour; a change
that moves bits is judged against the parent's table over the same seeds.
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
TESTS = ROOT / "tests"

COUNTS = """
import noise_plugin, digest
noise_plugin.install({seed})
print(digest.solve_digests()[2])
"""


def _env() -> dict:
    """The environment of a run: ``src`` and ``tests`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(TESTS)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_seed(seed: int, pytest_args) -> tuple:
    """(tests run, failed node ids, digest counts line) under ``seed``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "outcomes.json"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "noise_plugin", f"--noise-seed={seed}", f"--noise-out={out}",
             "--continue-on-collection-errors", *pytest_args],
            cwd=ROOT, env=_env(), capture_output=True, text=True)
        if done.returncode not in (0, 1) or not out.is_file():
            raise SystemExit(f"seed {seed}: pytest exited {done.returncode}\n"
                             f"{done.stdout}{done.stderr}")
        outcomes = json.loads(out.read_text())
    counts = subprocess.run([sys.executable, "-c", COUNTS.format(seed=seed)], cwd=ROOT,
                            env=_env(), capture_output=True, text=True, check=True)
    return outcomes["tests"], outcomes["failed"], counts.stdout.strip()


def seed_line(seed: int, result: tuple) -> str:
    tests, failed, counts = result
    return f"seed {seed}: {tests} tests, {len(failed)} failed; counts {counts}"


def table(results: dict) -> list:
    """The closing lines over ``{seed: (tests, failed ids, counts)}``: the
    seeds that passed every test, then each failed test's seed count."""
    clean = sum(not failed for _, failed, _ in results.values())
    lines = [f"every test passed in {clean} of {len(results)} seeds"]
    per_test = Counter(t for _, failed, _ in results.values() for t in failed)
    lines += [f"failed in {k} of {len(results)} seeds: {test}"
              for test, k in sorted(per_test.items(), key=lambda item: (-item[1], item[0]))]
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, required=True, help="run seeds 1 to SEEDS")
    parser.add_argument("pytest_args", nargs="*",
                        help="pytest arguments after --, tier-1 when none are given")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seeds < 1:
        raise SystemExit("--seeds must be at least 1")
    results = {}
    for seed in range(1, args.seeds + 1):
        results[seed] = run_seed(seed, args.pytest_args)
        print(seed_line(seed, results[seed]), flush=True)
    print("\n".join(table(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
