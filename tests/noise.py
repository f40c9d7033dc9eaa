"""Run tier-1 under rounding noise, once per seed, and count the failures.

    python tests/noise.py --seeds 12
    python tests/noise.py --seeds 1 -- tests/test_status.py   # chosen tests
    python tests/noise.py --seeds 12 --parent ../parent       # both sides

Each seed runs the tier-1 suite (or the pytest arguments after ``--``) in
its own subprocess with ``tests/noise_plugin.py`` loaded, which scales
every KKT solution ``(dx, dtau, dy)`` by ``1 + k * 2**-52``, k in [-1, 1]
from a sha256 of the solution and the seed.  Each seed also prints the
``counts`` line of ``tests/digest.py`` computed under the same noise, and
the false passes over the iterates of the runs that line counts: iterates
whose float dual-equality check passes while the exact residual
(``oracles.exact_dual_residual_sq``) is above the tolerance.  It also
prints, over the iterates of the ``box_run`` and ``soc_run`` fixtures'
runs under the same noise, how many fail ``tests/test_model.py``'s float
check of the three mu forms and how many fail the same check on the exact
forms (``oracles.exact_mu_forms``).

Printed: one line per seed with its number of failed tests, its counts
line, its false passes and its mu-forms failures, how many seeds passed
every test, and for each test that failed under some seed, in how many
seeds it failed.  A test that fails under this noise is decided by
rounding, not by the solver's behaviour; a change that moves bits is
judged against the parent's table over the same seeds, and a test that
fails at the same rate on both sides belongs to the rounding floor.
``--parent ROOT`` runs the same seeds and pytest arguments in the
checkout at ROOT too, on its own ``src`` and ``tests``, and prints every
line of each side prefixed "change: " or "parent: ".
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

COUNTS = """
import noise
print(*noise.seed_counts({seed}), sep="\\n")
"""


def seed_counts(seed: int) -> tuple:
    """(digest counts line, false passes, iterates) of the digest's
    counted runs under ``seed``'s noise, then (float mu-forms failures,
    exact ones, iterates) of the ``box_run`` and ``soc_run`` runs.  It
    perturbs every later KKT solve of the process, so it runs in a
    subprocess of its own."""
    # imported here: the tool's own process needs neither the package nor these
    import conftest
    import ddsolve
    import digest
    import noise_plugin
    import oracles
    from test_model import mu_forms
    noise_plugin.install(seed)
    follow, found, forms = ddsolve.follow, [0, 0], [0, 0, 0]

    def counted(problem, start, options):
        result = follow(problem, start, options)
        found[0] += oracles.false_passes(problem, start, result.iterates)
        found[1] += len(result.iterates)
        return result
    ddsolve.follow = counted
    line = digest.solve_digests()[2]
    ddsolve.follow = follow  # the fixtures' runs below are not the digest's
    for build, eps in (conftest.BOX_RUN, conftest.SOC_RUN):
        problem, start = pair = conftest.started(build)
        for it in conftest.follow_at(pair, eps).iterates:
            args = problem, start, it.x, it.tau, it.y
            forms[0] += not oracles.mu_forms_agree(*mu_forms(*args))
            forms[1] += not oracles.mu_forms_agree(*oracles.exact_mu_forms(*args))
            forms[2] += 1
    return (line, *found, *forms)


def _env(root: Path) -> dict:
    """The environment of a run in the checkout at ``root``: its ``src``
    and ``tests`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_seed(seed: int, pytest_args, root: Path) -> tuple:
    """(tests run, failed node ids, digest counts line, false passes,
    iterates, then float and exact mu-forms failures and their iterates
    where ``root``'s tests/noise.py counts them) under ``seed``, in the
    checkout at ``root``."""
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
    counts = subprocess.run([sys.executable, "-c", COUNTS.format(seed=seed)], cwd=root,
                            env=_env(root), capture_output=True, text=True, check=True)
    line, *numbers = counts.stdout.splitlines()
    return (outcomes["tests"], outcomes["failed"], line, *map(int, numbers))


def seed_line(seed: int, result: tuple) -> str:
    """A seed's line; a parent checkout without the mu-forms counts
    prints none."""
    tests, failed, counts, false, iterates, *forms = result
    line = (f"seed {seed}: {tests} tests, {len(failed)} failed; counts {counts}; "
            f"false passes {false} of {iterates} iterates")
    if forms:
        line += "; mu forms fail float {} exact {} of {} iterates".format(*forms)
    return line


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
