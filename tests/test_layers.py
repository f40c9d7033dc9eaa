"""The layer timing tool: its table on two ``certify`` solves, run in this
process, and its refusals."""

import os
import sys
from pathlib import Path

import pytest

import ddsolve.path as path_module

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def layers(monkeypatch):
    # the import sets BLAS thread counts and extends sys.path; both are
    # undone after the test
    monkeypatch.setattr(sys, "path", [str(ROOT / "tests")] + sys.path)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    import layers
    return layers


def test_layers_prints_a_row_per_function(layers, capsys):
    kkt_solve = path_module._kkt_solve
    assert layers.main(["--workload", "certify", "--seed", "1", "--solves", "2"]) == 0
    # the wrappers are gone after the run
    assert path_module._kkt_solve is kkt_solve
    lines = capsys.readouterr().out.splitlines()
    words = lines[0].split()
    assert words[:6] == ["workload", "certify:", "seed", "1,", "2", "solves,"]
    assert float(words[6]) > 0.0 and words[7:] == ["s", "per", "solve"]
    assert lines[1].split() == ["function", "calls/solve", "us/call", "share"]
    names = [name for name, *_ in layers.FUNCTIONS]
    assert [line.split()[0] for line in lines[2:]] == names + ["rest"]
    for line in lines[2:-1]:
        _, calls, us, share = line.split()
        assert float(calls) > 0.0 and float(us) > 0.0 and 0.0 <= float(share) <= 1.0
    assert lines[-1].split()[1:3] == ["-", "-"] and 0.0 <= float(lines[-1].split()[3]) <= 1.0


@pytest.mark.parametrize("argv,message", [(["--solves", "0"], "--solves must be at least 1"),
                                          (["--seed", "-1"], "--seed must be at least 0")])
def test_layers_refuses_bad_counts(layers, argv, message):
    with pytest.raises(SystemExit, match=message):
        layers.main(["--workload", "certify", *argv])
