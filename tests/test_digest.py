"""The bit-for-bit digest script runs end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_prints_three_digests_and_the_counts():
    # the format only: a change of rounding may move the values
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "digest.py")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["cli", "iterates", "reports", "counts"]
    for line in lines[:3]:
        assert re.fullmatch(r"\w+ [0-9a-f]{64}", line), line
    assert re.fullmatch(r"counts \w+:\d+(,\w+:\d+)* iterations=\d+ violations=\d+", lines[3]), \
        lines[3]
