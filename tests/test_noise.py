"""The rounding-noise tool and its plugin."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noise
import noise_plugin

ROOT = Path(__file__).resolve().parents[1]
FAST = ["tests/test_status.py::test_eps_solution_branch",
        "tests/test_cli.py::test_start_whose_metric_overflows_is_input_error"]
COUNTS = r"(\w+:\d+,)*\w+:\d+ iterations=\d+ violations=\d+"


def _run(*args) -> list:
    """The output lines of ``tests/noise.py --seeds 1 ARGS -- FAST``."""
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "noise.py"), "--seeds", "1",
                           *args, "--", *FAST],
                          capture_output=True, text=True, timeout=300, check=True)
    return done.stdout.splitlines()


def _check_one_seed(lines):
    """One seed's line, then its table."""
    seed = re.fullmatch(rf"seed 1: {len(FAST)} tests, (\d+) failed; counts {COUNTS}; "
                        r"false passes (?P<false>\d+) of (?P<iterates>\d+) iterates; "
                        r"mu forms fail float (?P<float>\d+) exact (?P<exact>\d+) "
                        r"of (?P<mu_iterates>\d+) iterates", lines[0])
    clean = re.fullmatch(r"every test passed in ([01]) of 1 seeds", lines[1])
    assert seed and clean
    assert 0 <= int(seed["false"]) <= int(seed["iterates"]) and int(seed["iterates"]) > 0
    assert int(seed["mu_iterates"]) > 0
    assert max(int(seed["float"]), int(seed["exact"])) <= int(seed["mu_iterates"])
    failed = lines[2:]
    assert len(failed) == int(seed.group(1)) and (not failed) == (clean.group(1) == "1")
    for line in failed:
        assert re.fullmatch(r"failed in 1 of 1 seeds: tests/\S+::\S+", line)


def test_noise_prints_a_line_per_seed_and_the_table():
    _check_one_seed(_run())


def test_parent_side_prints_its_own_seed_lines_and_table():
    # this checkout as its own parent: both sides print the same lines,
    # the seed's two lines first, then each side's table
    lines = _run("--parent", str(ROOT))
    change = [line.removeprefix("change: ") for line in lines if line.startswith("change: ")]
    parent = [line.removeprefix("parent: ") for line in lines if line.startswith("parent: ")]
    assert len(change) + len(parent) == len(lines)
    assert lines[0].startswith("change: seed 1: ") and lines[1].startswith("parent: seed 1: ")
    assert change == parent
    _check_one_seed(change)


def test_parent_without_the_noise_plugin_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="has no tests/noise_plugin.py"):
        noise.main(["--seeds", "1", "--parent", str(tmp_path)])


def test_table_counts_clean_seeds_and_failures_per_test():
    results = {1: (3, [], "c", 0, 9, 0, 0, 5), 2: (3, ["b", "a"], "c", 4, 9, 2, 1, 5),
               3: (3, ["a"], "c", 1, 9, 0, 0, 5)}
    assert noise.table(results) == ["every test passed in 1 of 3 seeds",
                                    "failed in 2 of 3 seeds: a", "failed in 1 of 3 seeds: b"]
    assert noise.seed_line(2, results[2]) == ("seed 2: 3 tests, 2 failed; counts c; "
                                              "false passes 4 of 9 iterates; "
                                              "mu forms fail float 2 exact 1 of 5 iterates")
    # a parent checkout that counts no mu forms
    assert noise.seed_line(1, (3, [], "c", 0, 9)) == ("seed 1: 3 tests, 0 failed; counts c; "
                                                      "false passes 0 of 9 iterates")


def test_noise_scales_a_solution_by_one_rounding_at_most():
    dx, dtau, dy = np.array([1.0, -3.0]), 0.5, np.array([2.0, 7.0, -1.0])
    factors = {noise_plugin.noise_factor(dx, dtau, dy, seed) for seed in range(1, 13)}
    assert all(abs(f - 1.0) <= 2.0**-52 for f in factors) and len(factors) > 1
    # deterministic per solution and seed, and each part scaled alike
    f = noise_plugin.noise_factor(dx, dtau, dy, 5)
    assert f == noise_plugin.noise_factor(dx.copy(), dtau, dy.copy(), 5)
    got = noise_plugin.perturbed(lambda: (dx, dtau, dy), 5)()
    assert np.array_equal(got[0], dx * f) and got[1] == dtau * f
    assert np.array_equal(got[2], dy * f)
