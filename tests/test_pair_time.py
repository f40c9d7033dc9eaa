"""The paired timing tool runs end to end on two checkouts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pair_time_prints_ratio_pairs_and_medians():
    # both sides are this checkout: two pairs of eight certify solves each
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "pair_time.py"), str(ROOT), str(ROOT),
         "--workload", "certify", "--pairs", "2"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "workload certify: 2 pairs of 8 solves per side"
    ratio = float(lines[1].rsplit(" ", 1)[1])
    assert 0.0 < ratio < 10.0
    words = lines[2].split()
    assert words[:4] == ["median", "solve", "s", "parent"] and words[5] == "change"
    assert float(words[4]) > 0.0 and float(words[6]) > 0.0
    words = lines[3].split()
    assert words[:3] == ["change", "faster", "in"] and words[4:7] == ["of", "2", "pairs;"]
    assert 0 <= int(words[3]) <= 2
    assert words[7:10] == ["parent", "per-solve", "IQR"] and float(words[10]) >= 0.0
    assert len(lines) == 4


def test_pair_time_gain_rule_helpers(monkeypatch):
    # the import sets BLAS thread counts and extends sys.path; both are
    # undone after the test
    monkeypatch.setattr(sys, "path", [str(ROOT / "tests")] + sys.path)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    import pair_time
    times = [(1.0, 0.5), (3.0, 0.5), (2.0, 4.0), (2.0, 4.0), (5.0, 1.0), (9.0, 1.0)]
    assert pair_time.pair_medians(times, 2) == [(2.0, 0.5), (2.0, 4.0), (7.0, 1.0)]
    assert pair_time.iqr([2.0, 2.0, 7.0]) == 5.0
    assert pair_time.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 3.0
    assert pair_time.iqr([3.0]) == 0.0


def test_pair_time_rejects_a_checkout_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "pair_time.py"), str(tmp_path), str(ROOT),
         "--workload", "certify", "--pairs", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "no solver sources" in done.stderr
