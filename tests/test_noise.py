"""The rounding-noise tool and its plugin."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import noise
import noise_plugin

ROOT = Path(__file__).resolve().parents[1]
FAST = ["tests/test_status.py::test_eps_solution_branch",
        "tests/test_cli.py::test_start_whose_metric_overflows_is_input_error"]
COUNTS = r"(\w+:\d+,)*\w+:\d+ iterations=\d+ violations=\d+"


def test_noise_prints_a_line_per_seed_and_the_table():
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "noise.py"), "--seeds", "1",
                           "--", *FAST],
                          capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
    seed = re.fullmatch(rf"seed 1: {len(FAST)} tests, (\d+) failed; counts {COUNTS}", lines[0])
    clean = re.fullmatch(r"every test passed in ([01]) of 1 seeds", lines[1])
    assert seed and clean
    failed = lines[2:]
    assert len(failed) == int(seed.group(1)) and (not failed) == (clean.group(1) == "1")
    for line in failed:
        assert re.fullmatch(r"failed in 1 of 1 seeds: tests/\S+::\S+", line)


def test_table_counts_clean_seeds_and_failures_per_test():
    results = {1: (3, [], "c"), 2: (3, ["b", "a"], "c"), 3: (3, ["a"], "c")}
    assert noise.table(results) == ["every test passed in 1 of 3 seeds",
                                    "failed in 2 of 3 seeds: a", "failed in 1 of 3 seeds: b"]
    assert noise.seed_line(2, results[2]) == "seed 2: 3 tests, 2 failed; counts c"


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
