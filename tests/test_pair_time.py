"""The paired timing tool runs end to end on two checkouts."""

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


def test_pair_time_rejects_a_checkout_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "pair_time.py"), str(tmp_path), str(ROOT),
         "--workload", "certify", "--pairs", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "no solver sources" in done.stderr
