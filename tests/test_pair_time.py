"""The paired timing tool runs end to end on two checkouts."""

import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


def check_pair_time_output(workload):
    """Output of two pairs of eight solves of ``workload``, both sides
    this checkout, checked line by line."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "pair_time.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--pairs", "2"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == f"workload {workload}: 2 pairs of 8 solves per side"
    ratio = float(lines[1].rsplit(" ", 1)[1])
    assert 0.0 < ratio < 10.0
    words = lines[2].split()
    assert words[:4] == ["median", "solve", "s", "parent"] and words[5] == "change"
    assert float(words[4]) > 0.0 and float(words[6]) > 0.0
    words = lines[3].split()
    assert words[:3] == ["change", "faster", "in"] and words[4:7] == ["of", "2", "pairs;"]
    assert 0 <= int(words[3]) <= 2
    assert words[7:10] == ["parent", "per-solve", "IQR"] and float(words[10]) >= 0.0
    words = lines[4].split()
    assert words[:5] == ["set-up:", "median", "per-set-up", "ratio", "change/parent"]
    assert 0.0 < float(words[5].rstrip(";")) < 10.0
    assert words[6:9] == ["median", "s", "parent"] and words[10] == "change"
    assert float(words[9]) > 0.0 and float(words[11].rstrip(";")) > 0.0
    assert words[12:15] == ["change", "faster", "in"] and words[16:19] == ["of", "2", "pairs;"]
    assert 0 <= int(words[15]) <= 2
    assert words[19:22] == ["parent", "per-set-up", "IQR"] and float(words[22]) >= 0.0
    assert len(lines) == 5


def test_pair_time_prints_ratio_pairs_and_medians():
    # a CLI workload: the set-up is the parse
    check_pair_time_output("certify")


def test_pair_time_times_validate_and_start_as_the_set_up():
    # a follow workload: the set-up is validate_problem + make_start
    check_pair_time_output("soc-wide")


@pytest.fixture
def pair_time(monkeypatch):
    # the import sets BLAS thread counts and extends sys.path; both are
    # undone after the test
    monkeypatch.setattr(sys, "path", [str(ROOT / "tests")] + sys.path)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    import pair_time
    return pair_time


def stub_clock(calibrated, splits=None):
    """A clock for ``calibrate.timed_calls`` that runs each call with a
    safe point appending the call's item to ``splits`` and reads its
    calibrated time as ``calibrated(item)``."""
    def time(fn, item):
        split = (lambda: None) if splits is None else (lambda: splits.append(item))
        return fn(item, split), 0.0, calibrated(item)
    return SimpleNamespace(time=time)


def test_pair_time_gain_rule_helpers(pair_time):
    times = [(1.0, 0.5), (3.0, 0.5), (2.0, 4.0), (2.0, 4.0), (5.0, 1.0), (9.0, 1.0)]
    assert pair_time.pair_medians(times, 2) == [(2.0, 0.5), (2.0, 4.0), (7.0, 1.0)]
    # ratios 0.5, 1/6, 2, 2, 0.2, 1/9: median (0.2 + 0.5) / 2; two of three
    # pairs faster; the IQR of the parent's pair medians 2, 2, 7
    assert pair_time.compare(times, 2) == ((0.2 + 0.5) / 2, 2.5, 1.0, 2, 5.0)
    assert pair_time.iqr([2.0, 2.0, 7.0]) == 5.0
    assert pair_time.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 3.0
    assert pair_time.iqr([3.0]) == 0.0


def test_pair_time_sets_up_back_to_back_and_solves_in_pairs(pair_time):
    # each pair makes one pass per side: the side sets up every file
    # setup_passes times in a row, in SETUP_REPEATS repeats, as the
    # benchmark's setup_s does, then solves the problems of its last pass;
    # the side that goes first alternates, and the solve pairs match the
    # sides' solves file by file
    calls = []

    def side(name):
        def parse(f):
            calls.append((name, "set-up", f))
            return (name, f, len(calls)), None

        def run_solve(problem, start, eps, strict):
            calls.append((name, "solve", problem))
            return SimpleNamespace(to_json=str)
        return SimpleNamespace(parse_problem_file=parse, run_solve=run_solve), None
    workload = SimpleNamespace(via_cli=True, setup_passes=2)
    repeats = pair_time.harness.SETUP_REPEATS
    # a solve's calibrated time is the call count at its problem's parse
    clock = stub_clock(lambda item: 1.0 if isinstance(item, int) else float(item[0][2]))
    setups, solves = pair_time.pair_times((side("p"), side("c")), workload, ["a", "b"], 2, clock)
    set_up = lambda name: [(name, "set-up", f) for f in "ab" * 2 * repeats]
    solve = lambda name, a, b: [(name, "solve", (name, "a", a)), (name, "solve", (name, "b", b))]
    # a side's set-ups take 4 * repeats calls; its last pass is the last two
    last = 4 * repeats
    assert calls == (set_up("p") + solve("p", last - 1, last)
                     + set_up("c") + solve("c", 2 * last + 1, 2 * last + 2)
                     + set_up("c") + solve("c", 3 * last + 3, 3 * last + 4)
                     + set_up("p") + solve("p", 4 * last + 5, 4 * last + 6))
    assert len(setups) == 2 and all(t > 0.0 for pair in setups for t in pair)
    assert solves == [(last - 1, 2 * last + 1), (last, 2 * last + 2),
                      (4 * last + 5, 3 * last + 3), (4 * last + 6, 3 * last + 4)]


def test_pair_time_solves_on_the_clock_and_splits_each_iterate(pair_time):
    # each solve is one clock.time call, as in the benchmark, and follow
    # hands each accepted iterate to the clock's safe point
    timed, splits = [], []

    def follow(problem, start, options, on_iterate):
        for row in range(3):
            on_iterate(row)
    files = {"a": SimpleNamespace(A="A", c=0, atoms=()), "b": SimpleNamespace(A="B", c=0, atoms=())}
    cli = SimpleNamespace(parse_problem_file=lambda f: (files[f], None))
    dd = SimpleNamespace(validate_problem=lambda A, c, atoms: A, make_start=str.lower,
                         follow=follow, FollowerOptions=lambda eps: None)
    workload = SimpleNamespace(via_cli=False, setup_passes=1)
    repeats = pair_time.harness.SETUP_REPEATS
    clock = stub_clock(lambda item: timed.append(item) or 1.0, splits)
    pair_time.pair_times(((cli, dd), (cli, dd)), workload, ["a", "b"], 1, clock)
    assert timed == 2 * (list(range(repeats)) + [("A", "a"), ("B", "b")])
    # a set-up repeat's one pass is a safe point too
    assert splits == 2 * (list(range(repeats)) + 3 * [("A", "a")] + 3 * [("B", "b")])


def test_pair_time_takes_the_median_repeat_per_set_up(pair_time):
    # repeat i lasts durations[i] calibrated seconds on a stub clock, each
    # setting up three files twice with a safe point after each pass: the
    # side's time is the median repeat over six set-ups
    repeats = pair_time.harness.SETUP_REPEATS
    durations = random.Random(0).sample(range(1, repeats + 1), repeats)
    splits = []
    side = SimpleNamespace(parse_problem_file=lambda f: (f, len(splits))), None
    workload = SimpleNamespace(via_cli=True, setup_passes=2)
    seconds, prepared = pair_time.set_up_seconds(
        side, workload, ["a", "b", "c"], stub_clock(durations.__getitem__, splits))
    assert seconds == pytest.approx((repeats + 1) / 2 / 6, rel=1e-12)
    assert len(splits) == 2 * repeats
    last = 2 * repeats - 1
    assert prepared == [("a", last), ("b", last), ("c", last)]


@pytest.mark.parametrize("args,message", [(["--pairs", "0"], "--pairs must be at least 1"),
                                          (["--seed", "-1"], "--seed must be at least 0")],
                         ids=["pairs-0", "seed-minus-1"])
def test_pair_time_refuses_a_bad_argument_before_loading(pair_time, monkeypatch, args, message):
    monkeypatch.setattr(pair_time, "load_side", lambda *_: pytest.fail("a side was loaded"))
    with pytest.raises(SystemExit, match=message):
        pair_time.main([str(ROOT), str(ROOT), "--workload", "certify", *args])


def test_pair_time_rejects_a_checkout_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "pair_time.py"), str(tmp_path), str(ROOT),
         "--workload", "certify", "--pairs", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "no solver sources" in done.stderr
