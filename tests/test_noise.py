"""The rounding-noise tool and its plugin."""

import json
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import conftest
import ddsolve as dd
import digest
import noise
import noise_plugin
import oracles
from ddsolve import cli

ROOT = Path(__file__).resolve().parents[1]
FAST = ["tests/test_status.py::test_eps_solution_branch",
        "tests/test_cli.py::test_start_whose_metric_overflows_is_input_error"]
COUNTS = r"(\w+:\d+,)*\w+:\d+ iterations=\d+ violations=\d+"


def test_noise_prints_a_line_per_seed_and_the_table():
    # one seed end to end: its line, then its table
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "noise.py"), "--seeds", "1",
                           "--", *FAST], capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
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


def test_parent_side_prints_its_own_seed_lines_and_table(tmp_path, monkeypatch, capsys):
    # each seed runs on the change, then on the parent, each of its lines
    # prefixed by its side; then the change's table and the parent's
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "noise_plugin.py").touch()
    calls = []

    def run_seed(seed, pytest_args, root):
        calls.append((seed, pytest_args, root))
        return (3, ["t"] if root == tmp_path and seed == 2 else [], "c", 0, 9, 0, 0, 5)
    monkeypatch.setattr(noise, "run_seed", run_seed)
    assert noise.main(["--seeds", "2", "--parent", str(tmp_path), "--", "x"]) == 0
    assert calls == [(1, ["x"], ROOT), (1, ["x"], tmp_path), (2, ["x"], ROOT), (2, ["x"], tmp_path)]
    line = "seed {}: 3 tests, {} failed; counts c; false passes 0 of 9 iterates; " \
           "mu forms fail float 0 exact 0 of 5 iterates"
    assert capsys.readouterr().out.splitlines() == [
        "change: " + line.format(1, 0), "parent: " + line.format(1, 0),
        "change: " + line.format(2, 0), "parent: " + line.format(2, 1),
        "change: every test passed in 2 of 2 seeds",
        "parent: every test passed in 1 of 2 seeds", "parent: failed in 1 of 2 seeds: t"]


def test_parent_without_the_noise_plugin_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="has no tests/noise_plugin.py"):
        noise.main(["--seeds", "1", "--parent", str(tmp_path)])


def test_run_seed_reads_the_counts_and_refuses_a_plugin_without_them(tmp_path, monkeypatch):
    # one pytest process per seed: its --noise-out JSON holds the counts
    written = {"tests": 3, "failed": ["t"], "counts": ["c", 0, 9, 1, 0, 5]}

    def run(args, **kwargs):
        out, = [a.removeprefix("--noise-out=") for a in args if a.startswith("--noise-out=")]
        Path(out).write_text(json.dumps(written))
        return SimpleNamespace(returncode=1, stdout="", stderr="")
    monkeypatch.setattr(noise.subprocess, "run", run)
    assert noise.run_seed(1, [], tmp_path) == (3, ["t"], "c", 0, 9, 1, 0, 5)
    del written["counts"]
    with pytest.raises(SystemExit, match=f"{tmp_path}: its tests/noise_plugin.py writes no counts"):
        noise.run_seed(1, [], tmp_path)


def _warns_then_counts():
    warnings.warn("overflow encountered in a counted run", RuntimeWarning)
    return "c", 0, 9, 1, 0, 5


def _raises():
    raise FloatingPointError("a counted run failed")


@pytest.mark.parametrize("counts", [_warns_then_counts, _raises])
def test_outcomes_writes_the_tests_the_failures_and_the_counts(tmp_path, monkeypatch, counts):
    monkeypatch.setattr(noise_plugin, "seed_counts", counts)
    outcomes = noise_plugin.Outcomes(tmp_path / "out.json")
    outcomes.pytest_collectreport(SimpleNamespace(nodeid="broken.py", failed=True))
    for nodeid, failed in (("a", False), ("b", True), ("b", True), ("c", False)):
        outcomes.pytest_runtest_logreport(SimpleNamespace(nodeid=nodeid, failed=failed))
    written = {"tests": 3, "failed": ["broken.py", "b"]}
    if counts is _raises:
        with pytest.raises(FloatingPointError):
            outcomes.pytest_sessionfinish()
    else:
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("error", RuntimeWarning)
            outcomes.pytest_sessionfinish()
        assert [str(w.message) for w in shown] == ["overflow encountered in a counted run"]
        written["counts"] = ["c", 0, 9, 1, 0, 5]
    assert json.loads((tmp_path / "out.json").read_text()) == written


def test_seed_counts_solve_each_counted_run_once(monkeypatch):
    # the digest's run tables cut to one toy run: the counts solve it once,
    # with the fixtures' two runs, and build no report of the digest's
    monkeypatch.setattr(digest, "CONE_SEEDS", range(0))
    monkeypatch.setattr(digest, "INSTANCES", [ROOT / "instances" / "inst_box.dd"])
    monkeypatch.setattr(digest, "FILE_EPS", (1e-4,))
    monkeypatch.setattr(digest, "MEDIUM_CASES", {})
    monkeypatch.setattr(cli, "run_solve", lambda *args, **kwargs: pytest.fail("run_solve ran"))
    problem, start = cli.parse_problem_file(ROOT / "instances" / "inst_box.dd")
    run = dd.follow(problem, start, dd.FollowerOptions(eps=1e-4))
    solved, follow = [], dd.follow
    monkeypatch.setattr(dd, "follow", lambda *args: solved.append(args[2].eps) or follow(*args))
    line, false, iterates, *forms = noise_plugin.seed_counts()
    assert line == (f"{run.report.status}:1 iterations={run.report.diagnostics['iterations']} "
                    f"violations={len(run.invariant_violations)}")
    assert (false, iterates) == (oracles.false_passes(problem, start, run.iterates),
                                 len(run.iterates))
    assert solved == [1e-4, conftest.BOX_RUN[1], conftest.SOC_RUN[1]]
    assert len(forms) == 3 and forms[2] > 0


def test_table_counts_clean_seeds_and_failures_per_test():
    results = {1: (3, [], "c", 0, 9, 0, 0, 5), 2: (3, ["b", "a"], "c", 4, 9, 2, 1, 5),
               3: (3, ["a"], "c", 1, 9, 0, 0, 5)}
    assert noise.table(results) == ["every test passed in 1 of 3 seeds",
                                    "failed in 2 of 3 seeds: a", "failed in 1 of 3 seeds: b"]
    assert noise.seed_line(2, results[2]) == ("seed 2: 3 tests, 2 failed; counts c; "
                                              "false passes 4 of 9 iterates; "
                                              "mu forms fail float 2 exact 1 of 5 iterates")


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
