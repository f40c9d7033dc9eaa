"""The benchmark's span instrumentation (``bench/spans.py``, only read here)
sees every Newton pass of the corrector."""

import sys
from pathlib import Path

import ddsolve.path as path_module
from conftest import SOC_RUN, follow_at
from probe import Probe

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402


def test_traced_run_counts_each_newton_pass(soc_problem, soc_run, monkeypatch):
    # the traced per-layer table counts a residuals span directly inside
    # a corrector_step span once per corrector pass: as many as the
    # corrector's residuals calls the probe counts on the module's name,
    # as test_evaluation_budget counts them, and the tracing leaves the
    # run's trace as it is
    with monkeypatch.context() as patch:
        probe = Probe(patch)
        probe.count(path_module, "residuals")
        counted_run = follow_at(soc_problem, SOC_RUN[1])
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        traced = follow_at(soc_problem, SOC_RUN[1])
    table = recorder.table()
    assert counted_run.trace == soc_run.trace
    assert probe["residuals"] > 0
    assert table.calls_under("path.residuals", "path.corrector_step") == probe["residuals"]
    assert traced.trace == soc_run.trace
