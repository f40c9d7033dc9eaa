"""Closed-loop solve benchmark: generate, set up, solve, check, report.

One process solves the run's instances one after another with eps = 1e-6
through the public API.  The untraced pass gives the end-to-end metrics;
with ``--trace 1`` the same instances are then solved again under span
instrumentation (see spans.py) for the per-layer metrics, and the two
passes must agree on every status, iteration count and report.

Run it through ``bench/run.py``, which pins the BLAS thread variables and
puts ``src`` on the import path first.  See bench/README.md for the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ddsolve import cli, model, path, status

import calibrate
import families
import spans

EPS = 1e-6
SETUP_REPEATS = 15
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".bench_work"

# exit codes for a broken benchmark (the solver's own failures exit 0)
EXIT_WITNESS = 3
EXIT_TRACE_MISMATCH = 4

NUMERICAL_FAILURE_REASONS = ("CorrectorStall", "PredictorStall", "DomainViolation",
                             "FactorizationFailure", "VerificationFailed")


@dataclass(frozen=True)
class Workload:
    """An instance family and the API path its instances are solved by."""

    name: str
    salt: int              # keeps workloads apart for the same --seed
    kinds: tuple           # family of instance i is kinds[i % len(kinds)]
    n: int
    n_scalar: int          # halflines and boxes (halflines only if unbounded)
    soc_dims: tuple
    nominal_solve_s: float  # measured run wall time per solve
    setup_passes: int       # set-ups of all instances per timed repeat
    via_cli: bool           # problem files + cli.run_solve(strict=True)

    @property
    def m(self) -> int:
        return self.n_scalar + sum(self.soc_dims)

    def count(self, seconds: float) -> int:
        """Instances per run: a whole number of family cycles, at least two
        cycles, filling about ``seconds`` at the nominal solve time: a whole
        run's wall time (set-up, probes and checks included) divided by its
        solves, median of ten runs on the host of bench/README.md.  The
        count depends on ``seconds`` only, so every run of a seed solves the
        same instances."""
        cycles = max(2, int(seconds / (self.nominal_solve_s * len(self.kinds))))
        return cycles * len(self.kinds)


WORKLOADS = {
    w.name: w for w in (
        Workload("soc-wide", 2, (families.FEASIBLE,), n=40, n_scalar=0,
                 soc_dims=(40, 40), nominal_solve_s=2.7, setup_passes=40, via_cli=False),
        Workload("certify", 3, (families.INFEASIBLE, families.UNBOUNDED), n=10, n_scalar=26,
                 soc_dims=(8, 8, 8), nominal_solve_s=0.39, setup_passes=2, via_cli=True),
        Workload("mixed-medium", 1, (families.FEASIBLE,), n=15, n_scalar=36,
                 soc_dims=(8, 8, 8), nominal_solve_s=7.5, setup_passes=10, via_cli=False),
    )
}

BUILDERS = {families.FEASIBLE: families.feasible, families.INFEASIBLE: families.infeasible,
            families.UNBOUNDED: families.unbounded}

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s_p50", "s"),
    ("solve_s_p90", "s"),
)

PER_LAYER = (
    ("barriers.grad.calls", "count"), ("barriers.grad.self_s", "s"),
    ("barriers.hess.calls", "count"), ("barriers.hess.self_s", "s"),
    ("barriers.interior.calls", "count"), ("barriers.interior.self_s", "s"),
    ("barriers.support.calls", "count"), ("barriers.support.self_s", "s"),
    ("barriers.metric.calls", "count"), ("barriers.metric.self_s", "s"),
    ("barriers.self_s", "s"), ("barriers.share", "ratio"),
    ("model.proximity_at.calls", "count"), ("model.proximity_at.self_s", "s"),
    ("model.make_iterate.calls", "count"),
    ("model.validate_problem_s", "s"), ("model.make_start_s", "s"),
    ("model.self_s", "s"),
    ("path.iters", "count"), ("path.iters_per_decade", "iter/decade"),
    ("path.ms_per_iter", "ms"),
    ("path.newton_steps_per_iter", "1/iter"), ("path.predictor_trials_per_iter", "1/iter"),
    ("path.predictor_accept_ratio", "ratio"),
    ("path.predictor_step.self_s", "s"), ("path.corrector_step.self_s", "s"),
    ("path.residuals.self_s", "s"), ("path.follow.self_s", "s"),
    ("path.self_s", "s"), ("path.share", "ratio"),
    *((f"path.numerical_failures.{r}", "count") for r in NUMERICAL_FAILURE_REASONS),
    ("status.check_status.calls", "count"), ("status.check_status.self_s", "s"),
    ("status.stop_params.calls", "count"), ("status.stop_params.self_s", "s"),
    ("status.verify_certificate.calls", "count"), ("status.verify_certificate.self_s", "s"),
    ("status.strict.calls", "count"), ("status.strict.self_s", "s"),
    ("status.strict.success_ratio", "ratio"), ("status.self_s", "s"),
    ("cli.parse_problem_file.self_s", "s"), ("cli.run_solve.self_s", "s"),
    ("cli.to_json.self_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("invariant_violations", "count"), ("failed_share", "ratio"), ("strict_share", "ratio"),
)


class BenchmarkBroken(Exception):
    """The benchmark's own checks failed; the run reports no result."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@dataclass
class Outcome:
    """What one solve reported, plus the benchmark's checks of it."""

    status: str
    iterations: int
    violations: int
    mu: float
    reason: str | None
    strict_note: str | None
    strict_certificate: bool
    report_json: str
    certificate_verified: bool | None   # None when no certificate was reported
    failed: bool


# ---------------------------------------------------------------- inputs

def make_instances(workload: Workload, seed: int, count: int) -> list:
    """The run's instances; instance i depends on (seed, workload, i) only.
    Each builder asserts its witness (families.WitnessError)."""
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, workload.salt, i])
        kind = workload.kinds[i % len(workload.kinds)]
        out.append(BUILDERS[kind](rng, f"{workload.name}-{seed}-{i}", workload.n,
                                  workload.n_scalar, workload.soc_dims))
    return out


def write_problem_files(instances, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for inst in instances:
        target = directory / f"{inst.name}.json"
        target.write_text(json.dumps(inst.problem_document()), encoding="utf-8")
        paths.append(target)
    return paths


# ------------------------------------------------------- set-up and solve

def set_up(workload: Workload, instances, files) -> list:
    """Turn the run's inputs into (problem, start) pairs.  Names are looked
    up on the ddsolve modules at call time, so instrumentation applies."""
    if workload.via_cli:
        return [cli.parse_problem_file(f) for f in files]
    out = []
    for inst in instances:
        problem = model.validate_problem(inst.A, inst.c, inst.atoms)
        out.append((problem, model.make_start(problem)))
    return out


def solve_one(workload: Workload, problem, start, split=None):
    """One solve up to its final report (the JSON text on the CLI path).
    ``split`` is called after every accepted iterate of ``follow``: a safe
    point for the calibrated clock (the CLI path offers none)."""
    if workload.via_cli:
        report = cli.run_solve(problem, start, EPS, strict=True)
        return report, report.to_json()
    on_iterate = None if split is None else (lambda row: split())
    return path.follow(problem, start, path.FollowerOptions(eps=EPS), on_iterate), None


def _plain(v):
    if isinstance(v, np.ndarray):
        return [float(t) for t in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def follow_report_json(report) -> str:
    """Canonical JSON of a follower StatusReport (floats round-trip)."""
    cert = report.certificate
    doc = {
        "status": report.status,
        "x": _plain(report.x), "y_scaled": _plain(report.y_scaled),
        "objective_primal": _plain(report.objective_primal),
        "objective_estimate": _plain(report.objective_estimate),
        "certificate": None if cert is None else {
            k: _plain(getattr(cert, k)) for k in ("kind", "strict", "eps", "y", "x", "tau")},
        "verification": None if report.verification is None else [
            [c.name, c.passed, c.value] for c in report.verification.checks],
        "diagnostics": {k: _plain(v) for k, v in report.diagnostics.items()},
    }
    return json.dumps(doc, sort_keys=True)


def _certificate_from_report(doc: dict | None):
    if doc is None:
        return None
    vec = lambda key: None if doc.get(key) is None else np.asarray(doc[key], dtype=float)
    return status.Certificate(kind=doc["kind"], strict=doc["strict"],
                              eps=doc.get("eps", float("nan")), y=vec("y"), x=vec("x"),
                              tau=doc.get("tau"))


def check_outcome(workload: Workload, inst, problem, start, raw, text) -> Outcome:
    """Classify one solve against the instance's known class and re-verify
    its certificate from the problem data."""
    if workload.via_cli:
        diag = raw.diagnostics
        state, cert = raw.status, _certificate_from_report(raw.certificate)
        strict_certificate = bool(raw.certificate and raw.certificate["strict"])
    else:
        diag = raw.report.diagnostics
        state, cert = raw.report.status, raw.report.certificate
        strict_certificate = bool(cert is not None and cert.strict)
        text = follow_report_json(raw.report)
    verified = None
    if cert is not None:
        verified = status.verify_certificate(problem, start, cert).passed
    return Outcome(
        status=state, iterations=int(diag["iterations"]),
        violations=int(diag["invariant_violations"]), mu=float(diag["mu"]),
        reason=diag.get("reason"), strict_note=diag.get("strict_projection"),
        strict_certificate=strict_certificate and verified is True,
        report_json=text, certificate_verified=verified,
        failed=state != inst.expected or verified is False)


def failure_reason(reason: str | None) -> str:
    """Counter key of a NumericalFailure reason ("CorrectorStall: ...")."""
    if reason is None:
        return "Unknown"
    if reason.startswith("certificate failed verification"):
        return "VerificationFailed"
    return reason.split(":", 1)[0]


# --------------------------------------------------------------- metrics

def ranked_percentile(times, failed, q: float) -> float:
    """Nearest-rank q-quantile of the solve times, with every failed solve
    ranked slower than every successful one.  A failed solve at the chosen
    rank is valued at the slowest solve time of the run."""
    order = sorted(zip(failed, times))
    is_failed, value = order[max(1, math.ceil(q * len(order))) - 1]
    return max(times) if is_failed else value


def end_to_end_metrics(setup_s, times, outcomes) -> dict:
    failed = [o.failed for o in outcomes]
    return {
        "setup_s": statistics.median(setup_s),
        "solve_s_p50": ranked_percentile(times, failed, 0.5),
        "solve_s_p90": ranked_percentile(times, failed, 0.9),
    }


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def per_layer_metrics(table: spans.SpanTable, outcomes, untraced_s: float,
                      traced_s: float) -> dict:
    """Per-layer metrics: span aggregates (raw seconds) from the traced
    pass; ``path.ms_per_iter`` and the outcome shares from the untraced
    pass.  ``untraced_s`` and ``traced_s`` are calibrated solve-time sums."""
    iters = sum(o.iterations for o in outcomes)
    decades = sum(math.log10(o.mu) for o in outcomes if o.mu > 1.0)
    solved = table.root_s()
    trials = table.calls_under("model.proximity_at", "path.predictor_step")
    failures = Counter(failure_reason(o.reason) for o in outcomes
                       if o.status == status.NUMERICAL_FAILURE)
    out = {}
    for name in ("grad", "hess", "interior", "support", "metric"):
        out[f"barriers.{name}.calls"] = table.calls(f"barriers.{name}")
        out[f"barriers.{name}.self_s"] = table.self_s(f"barriers.{name}")
    out["barriers.self_s"] = table.layer_self_s("barriers")
    out["barriers.share"] = _ratio(out["barriers.self_s"], solved)
    out["model.proximity_at.calls"] = table.calls("model.proximity_at")
    out["model.proximity_at.self_s"] = table.self_s("model.proximity_at")
    out["model.make_iterate.calls"] = table.calls("model.make_iterate")
    out["model.validate_problem_s"] = table.inclusive_s("model.validate_problem")
    out["model.make_start_s"] = table.inclusive_s("model.make_start")
    out["model.self_s"] = table.layer_self_s("model")
    out["path.iters"] = iters
    out["path.iters_per_decade"] = _ratio(iters, decades)
    out["path.ms_per_iter"] = _ratio(1000.0 * untraced_s, iters)
    out["path.newton_steps_per_iter"] = _ratio(
        table.calls_under("path.residuals", "path.corrector_step"), iters)
    out["path.predictor_trials_per_iter"] = _ratio(trials, iters)
    out["path.predictor_accept_ratio"] = _ratio(table.ok_count("path.predictor_step"), trials)
    for name in ("predictor_step", "corrector_step", "residuals", "follow"):
        out[f"path.{name}.self_s"] = table.self_s(f"path.{name}")
    out["path.self_s"] = table.layer_self_s("path")
    out["path.share"] = _ratio(out["path.self_s"], solved)
    for reason in NUMERICAL_FAILURE_REASONS:
        out[f"path.numerical_failures.{reason}"] = failures.get(reason, 0)
    for name in ("check_status", "stop_params", "verify_certificate", "strict"):
        out[f"status.{name}.calls"] = table.calls(f"status.{name}")
        out[f"status.{name}.self_s"] = table.self_s(f"status.{name}")
    # a projection that returns can still fail verification in the CLI,
    # so successes come from the notes, not from the spans
    out["status.strict.success_ratio"] = _ratio(
        sum(o.strict_note == "succeeded" for o in outcomes), out["status.strict.calls"])
    out["status.self_s"] = table.layer_self_s("status")
    for name in ("parse_problem_file", "run_solve", "to_json"):
        out[f"cli.{name}.self_s"] = table.self_s(f"cli.{name}")
    out["cli.self_s"] = table.layer_self_s("cli")
    out["trace.overhead_s"] = traced_s - untraced_s
    out["invariant_violations"] = sum(o.violations for o in outcomes)
    out["failed_share"] = _ratio(sum(o.failed for o in outcomes), len(outcomes))
    out["strict_share"] = _ratio(sum(o.strict_certificate for o in outcomes), len(outcomes))
    return out


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            **{var: os.environ.get(var) for var in BLAS_VARS}}


def detail(workload: Workload, seed: int, outcomes, raw_times, probes, wall_s) -> dict:
    """Outcome record printed ahead of the result line, with the raw
    (uncalibrated) solve times, the probe times behind the calibration and
    the run's wall time so far."""
    n = len(outcomes)
    failed = [o.failed for o in outcomes]
    return {
        "workload": workload.name, "seed": seed, "n": workload.n, "m": workload.m,
        "eps": EPS, "loop": "closed, 1 process", "solves": n,
        "solves_beyond_p90": n - math.ceil(0.9 * n),
        "statuses": dict(sorted(Counter(o.status for o in outcomes).items())),
        "strict_projection": dict(sorted(Counter(
            o.strict_note for o in outcomes if o.strict_note is not None).items())),
        "numerical_failures": dict(sorted(Counter(
            failure_reason(o.reason) for o in outcomes
            if o.status == status.NUMERICAL_FAILURE).items())),
        "failed": sum(failed),
        "invariant_violations": sum(o.violations for o in outcomes),
        "raw_solve_s_p50": ranked_percentile(raw_times, failed, 0.5),
        "raw_solve_s_p90": ranked_percentile(raw_times, failed, 0.9),
        "probe_s_median": statistics.median(probes),
        "wall_s": wall_s,
        "env": environment(),
    }


# ------------------------------------------------------------------- run

def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last.  A traced
    run solves the instances of ``seconds / 2``, untraced and then traced."""
    started = time.perf_counter()
    count = workload.count(seconds / 2 if trace else seconds)
    try:
        instances = make_instances(workload, seed, count)
    except families.WitnessError as exc:
        raise BenchmarkBroken(f"generator witness failed: {exc}", EXIT_WITNESS) from exc
    clock = calibrate.CalibratedClock()
    run_dir = WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        files = write_problem_files(instances, run_dir) if workload.via_cli else None

        # one set-up of all instances is short next to a probe, so a timed
        # repeat sets them up setup_passes times and setup_s is per set-up
        def set_up_passes(_, split):
            for _ in range(workload.setup_passes):
                prepared = set_up(workload, instances, files)
                split()
            return prepared

        setups, _, repeat_s = calibrate.timed_calls(clock, set_up_passes, range(SETUP_REPEATS))
        setup_s = [t / workload.setup_passes for t in repeat_s]
        prepared = setups[-1]
        raws, raw_times, times = calibrate.timed_calls(
            clock, lambda pair, split: solve_one(workload, *pair, split), prepared)
        outcomes = [check_outcome(workload, inst, p, s, raw, text)
                    for inst, (p, s), (raw, text) in zip(instances, prepared, raws)]
        print(json.dumps(detail(workload, seed, outcomes, raw_times, clock.probes,
                                time.perf_counter() - started), sort_keys=True))
        result = {
            "correct": all(o.certificate_verified is not False for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(o.failed for o in outcomes),
        }
        if not trace:
            values = end_to_end_metrics(setup_s, times, outcomes)
            result["metrics"] = {name: {"value": values[name], "unit": unit}
                                 for name, unit in END_TO_END}
            return result

        recorder = spans.SpanRecorder()

        # no probes inside a traced solve: their time would land in its spans
        def traced_solve(pair, split):
            with recorder.span("bench.solve"):
                return solve_one(workload, *pair)

        with spans.instrumented(recorder):
            with recorder.span("bench.setup"):
                traced_prepared = set_up(workload, instances, files)
            traced_raws, _, traced_times = calibrate.timed_calls(
                clock, traced_solve, traced_prepared)
        traced = [check_outcome(workload, inst, p, s, raw, text)
                  for inst, (p, s), (raw, text) in zip(instances, traced_prepared, traced_raws)]
        for inst, a, b in zip(instances, outcomes, traced):
            if (a.status, a.iterations, a.report_json) != (b.status, b.iterations, b.report_json):
                raise BenchmarkBroken(
                    f"{inst.name}: traced run differs from untraced "
                    f"({a.status}/{a.iterations} vs {b.status}/{b.iterations})",
                    EXIT_TRACE_MISMATCH)
        table = recorder.table()
        table.save(WORK_DIR / f"spans-{workload.name}-{seed}.npz")
        values = per_layer_metrics(table, outcomes, sum(times), sum(traced_times))
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in PER_LAYER}
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="about the run's wall time: sets the instance count from the "
                             "workload's measured wall time per solve")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced and report the per-layer metrics")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkBroken as exc:
        print(f"benchmark broken: {exc}", file=sys.stderr)
        return exc.code
    print(json.dumps(result))
    return 0
