"""Tests of the benchmark's own pieces: generator witnesses, span
arithmetic, non-intrusive instrumentation and the metric definitions."""

import json
from pathlib import Path

import numpy as np
import pytest

import ddsolve as dd
from ddsolve import cli

import calibrate
import families
import harness
import spans

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "instances"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("builder", [families.feasible, families.infeasible,
                                     families.unbounded])
def test_generator_witnesses_hold(builder, seed):
    inst = builder(np.random.default_rng(seed), "t", 4, 8, (3, 4))
    families.check_witness(inst)
    problem = dd.validate_problem(inst.A, inst.c, inst.atoms)
    w = inst.witness
    if inst.kind == families.FEASIBLE:
        assert problem.barrier.interior(inst.A @ w["x"], "primal")
        assert problem.barrier.interior(w["y"], "conjugate")
        assert np.allclose(inst.c, -inst.A.T @ w["y"], atol=1e-12)
    elif inst.kind == families.INFEASIBLE:
        assert np.max(np.abs(inst.A.T @ w["y"])) <= 1e-12 * (1 + np.abs(inst.A).max())
        assert problem.barrier.interior(w["y"], "conjugate")
        assert problem.barrier.support(w["y"]) < 0.0
    else:
        assert all(a.kind != "box" for a in inst.atoms)
        assert np.all(families.recession_margins(inst.atoms, inst.A @ w["r"]) > 0.0)
        assert inst.c @ w["r"] < 0.0
        assert problem.barrier.interior(inst.A @ w["x"], "primal")


def test_generator_is_seeded():
    a = families.infeasible(np.random.default_rng(5), "a", 3, 6, (3,))
    b = families.infeasible(np.random.default_rng(5), "b", 3, 6, (3,))
    assert np.array_equal(a.A, b.A) and np.array_equal(a.c, b.c) and a.atoms == b.atoms


def test_broken_witness_is_caught():
    inst = families.feasible(np.random.default_rng(0), "t", 3, 6, (3,))
    bad = families.Instance(inst.name, inst.kind, inst.A, inst.c + 1.0, inst.atoms,
                            inst.witness)
    with pytest.raises(families.WitnessError, match="c != -A'y_bar"):
        families.check_witness(bad)
    flipped = {**inst.witness, "y": -inst.witness["y"]}
    with pytest.raises(families.WitnessError, match="dual-interior"):
        families.check_witness(families.Instance(inst.name, inst.kind, inst.A,
                                                 inst.A.T @ flipped["y"], inst.atoms, flipped))


def test_problem_document_round_trips_through_cli(tmp_path):
    inst = families.unbounded(np.random.default_rng(3), "t", 3, 5, (4,))
    target = tmp_path / "p.json"
    target.write_text(json.dumps(inst.problem_document()))
    problem, _ = cli.parse_problem_file(target)
    assert np.array_equal(problem.A, inst.A) and np.array_equal(problem.c, inst.c)
    assert problem.atoms == inst.atoms


class _FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_hand_built_tree():
    # root [0, 10] holds a [1, 6] and b [7, 9]; a holds c [2, 3] and a
    # nested a [3.5, 5.5] that itself holds c [4, 5]
    rec = spans.SpanRecorder(clock=_FakeClock([0, 1, 2, 3, 3.5, 4, 5, 5.5, 6, 7, 9, 10]))
    root = rec.open("root")
    a = rec.open("a")
    with rec.span("c"):
        pass
    inner = rec.open("a")
    with rec.span("c"):
        pass
    rec.close(inner)
    rec.close(a)
    b = rec.open("b")
    rec.close(b, ok=False)
    rec.close(root)
    table = rec.table()
    assert table.duration.tolist() == [10, 5, 1, 2, 1, 2]
    assert table.self_time.tolist() == [3, 2, 1, 1, 1, 2]
    assert table.self_s("a") == 3 and table.self_s("c") == 2
    assert table.self_time.sum() == table.root_s() == 10
    assert table.calls("a") == 1                 # the nested a is not an entry
    assert table.inclusive_s("a") == 5
    assert table.calls_under("c", "a") == 2
    assert table.ok_count("b") == 0


def test_closing_out_of_order_is_an_error():
    rec = spans.SpanRecorder()
    outer = rec.open("x")
    rec.open("y")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def _strict_report(name):
    problem, start = cli.parse_problem_file(INSTANCES / name)
    return cli.run_solve(problem, start, 1e-6, strict=True).to_json()


@pytest.mark.parametrize("name", ["inst_inf.dd", "inst_unb.dd"])
def test_instrumentation_leaves_report_byte_identical(name):
    plain = _strict_report(name)
    originals = (dd.model.proximity_at, dd.path.proximity_at, dd.cli.run_solve,
                 dd.barriers.DomainBarrier.grad, dd.barriers.BlockMetric.matvec)
    rec = spans.SpanRecorder()
    with spans.instrumented(rec):
        assert dd.path.proximity_at is not originals[1]
        traced = _strict_report(name)
    assert traced == plain
    table = rec.table()
    for layer in spans.LAYERS:
        assert table.prefix_mask(layer + ".").any(), layer
    assert table.calls("cli.run_solve") == 1
    assert table.calls("status.strict") == 1
    assert (dd.model.proximity_at, dd.path.proximity_at, dd.cli.run_solve,
            dd.barriers.DomainBarrier.grad, dd.barriers.BlockMetric.matvec) == originals


def test_calibrated_clock_scales_each_segment(monkeypatch):
    probes = iter([0.015, 0.030, 0.015])
    monkeypatch.setattr(calibrate.SpeedProbe, "measure", lambda self: next(probes))
    clock = calibrate.CalibratedClock(timer=_FakeClock([0.0, 0.1, 0.5, 0.5, 0.6, 1.0]))

    def operation(item, split):
        split()    # 0.1 s in: too early for a probe
        split()    # 0.5 s in: probe, next segment starts at 0.6
        return item

    out, raw, calibrated = clock.time(operation, "x")
    assert out == "x" and clock.probes == [0.015, 0.030, 0.015]
    assert raw == pytest.approx(0.9)
    # 0.5 s at probe mean 0.0225, then 0.4 s at 0.0225, against REFERENCE_S
    assert calibrated == pytest.approx(0.9 * calibrate.REFERENCE_S / 0.0225)


def test_ranked_percentile_puts_failures_last():
    times = [1.0, 2.0, 3.0, 0.5]
    assert harness.ranked_percentile(times, [False] * 4, 0.5) == 1.0
    # the fast failure ranks slowest, so the median moves up to 2.0
    assert harness.ranked_percentile(times, [False, False, False, True], 0.5) == 2.0
    # a failure at the chosen rank takes the slowest time of the run
    assert harness.ranked_percentile(times, [True, True, True, False], 0.5) == 3.0


def test_strict_success_needs_a_verified_projection():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    for _ in range(2):
        with rec.span("status.strict"):
            pass
    outcome = dict(status="InfeasibilityCertificate", iterations=10, violations=0, mu=1e3,
                   reason=None, strict_certificate=False, report_json="",
                   certificate_verified=True, failed=False)
    outcomes = [harness.Outcome(strict_note="succeeded", **outcome),
                harness.Outcome(strict_note="verification failed: gap", **outcome)]
    values = harness.per_layer_metrics(rec.table(), outcomes, 1.0, 1.0)
    # both projections returned, but only one certificate verified
    assert values["status.strict.calls"] == 2
    assert values["status.strict.success_ratio"] == 0.5


def test_instance_count_depends_on_seconds_only():
    w = harness.WORKLOADS["certify"]
    assert w.count(30) == w.count(30) and w.count(30) % 2 == 0
    assert w.count(60) > w.count(30) and w.count(0.1) == 4
    first = harness.make_instances(w, 9, 2)
    again = harness.make_instances(w, 9, 4)[:2]
    assert [i.kind for i in first] == [families.INFEASIBLE, families.UNBOUNDED]
    assert all(np.array_equal(a.A, b.A) for a, b in zip(first, again))


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in harness.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in harness.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(harness.WORKLOADS)
