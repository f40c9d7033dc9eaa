"""In-memory span recorder and the instrumentation that feeds it.

The benchmark wraps the public entry points of each ``ddsolve`` layer from
outside the package: every wrapper opens a span on entry and closes it on
exit.  A span is (name, start, end, parent, ok); ``ok`` is False when the
call raised.  Spans stay in memory until the run ends, so recording costs
two clock reads and a few list appends per call.

A wrapped function is replaced everywhere a caller looks it up: in its
defining module, in every ``ddsolve`` module that imported it by name
(``ddsolve.path.proximity_at`` as well as ``ddsolve.model.proximity_at``)
and in the package namespace.  Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute) for plain functions and
# (span name, module, "Class.method") for methods.  Several entry points
# may share a span name; the name is the unit the metrics report on.
TARGETS = (
    ("barriers.grad", "ddsolve.barriers", "DomainBarrier.grad"),
    ("barriers.hess", "ddsolve.barriers", "DomainBarrier.hess"),
    ("barriers.value", "ddsolve.barriers", "DomainBarrier.value"),
    ("barriers.support", "ddsolve.barriers", "DomainBarrier.support"),
    ("barriers.interior", "ddsolve.barriers", "DomainBarrier.interior"),
    ("barriers.interior", "ddsolve.barriers", "DomainBarrier.margins"),
    ("barriers.interior", "ddsolve.barriers", "DomainBarrier.min_margin"),
    ("barriers.metric", "ddsolve.barriers", "BlockMetric.matvec"),
    ("barriers.metric", "ddsolve.barriers", "BlockMetric.solve"),
    ("barriers.metric", "ddsolve.barriers", "BlockMetric.quad"),
    ("barriers.metric", "ddsolve.barriers", "BlockMetric.inv_quad"),
    ("barriers.metric", "ddsolve.barriers", "BlockMetric.dense"),
    ("model.validate_problem", "ddsolve.model", "validate_problem"),
    ("model.make_start", "ddsolve.model", "make_start"),
    ("model.make_start", "ddsolve.model", "default_z0"),
    ("model.make_iterate", "ddsolve.model", "make_iterate"),
    ("model.proximity_at", "ddsolve.model", "proximity_at"),
    ("model.proximity_at", "ddsolve.model", "proximity"),
    ("model.shifted_image", "ddsolve.model", "shifted_image"),
    ("model.dual_residual", "ddsolve.model", "dual_residual"),
    ("model.in_qdd", "ddsolve.model", "in_qdd"),
    ("model.mu_of", "ddsolve.model", "mu_of"),
    ("model.support_function", "ddsolve.model", "support_function"),
    ("model.gap_bounds", "ddsolve.model", "gap_bounds"),
    ("path.follow", "ddsolve.path", "follow"),
    ("path.predictor_step", "ddsolve.path", "predictor_step"),
    ("path.corrector_step", "ddsolve.path", "corrector_step"),
    ("path.residuals", "ddsolve.path", "residuals"),
    ("status.check_status", "ddsolve.status", "check_status"),
    ("status.stop_params", "ddsolve.status", "stop_params"),
    ("status.verify_certificate", "ddsolve.status", "verify_certificate"),
    ("status.strict", "ddsolve.status", "strict_infeasibility_certificate"),
    ("status.strict", "ddsolve.status", "strict_unboundedness_certificate"),
    ("status.final_report", "ddsolve.status", "numerical_failure_report"),
    ("status.final_report", "ddsolve.status", "iteration_limit_report"),
    ("cli.parse_problem_file", "ddsolve.cli", "parse_problem_file"),
    ("cli.run_solve", "ddsolve.cli", "run_solve"),
    ("cli.write_trace", "ddsolve.cli", "write_trace"),
    ("cli.to_json", "ddsolve.cli", "RunReport.to_json"),
)

LAYERS = ("barriers", "model", "path", "status", "cli")


class SpanRecorder:
    """Spans in parallel lists; ``parent`` is an index or -1 for a root."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.name_id: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.ok: list = []
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(np.nan)
        self.ok.append(True)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, ok: bool = True) -> None:
        self.end[idx] = self.clock()
        self.ok[idx] = ok
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        ok = False
        try:
            yield idx
            ok = True
        finally:
            self.close(idx, ok)

    def table(self) -> "SpanTable":
        if len(self._stack) != 1:
            raise RuntimeError("table requested while spans are open")
        return SpanTable(self.names, np.array(self.name_id, dtype=np.int64),
                         np.array(self.start), np.array(self.end),
                         np.array(self.parent, dtype=np.int64),
                         np.array(self.ok, dtype=bool))


class SpanTable:
    """Finished spans as arrays, with the aggregates the metrics need."""

    def __init__(self, names, name_id, start, end, parent, ok):
        self.names = list(names)
        self.name_id = name_id
        self.start = start
        self.end = end
        self.parent = parent
        self.ok = ok
        self.duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=self.duration[has_parent],
                              minlength=len(start))
        # calls nest strictly (one thread, one stack), so children never
        # overlap and their summed durations are the covered part
        self.self_time = self.duration - covered
        parent_name = np.full(len(start), -1, dtype=np.int64)
        parent_name[has_parent] = name_id[parent[has_parent]]
        self.parent_name = parent_name

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2

    def mask(self, name: str) -> np.ndarray:
        return self.name_id == self._id(name)

    def prefix_mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, nm in enumerate(self.names) if nm.startswith(prefix)]
        return np.isin(self.name_id, ids)

    def calls(self, name: str) -> int:
        """Entries into ``name`` from outside it: a span whose parent has
        the same name (interior -> min_margin -> margins) is not counted."""
        nid = self._id(name)
        return int(np.count_nonzero((self.name_id == nid) & (self.parent_name != nid)))

    def calls_under(self, name: str, parent: str) -> int:
        """Spans of ``name`` whose direct parent is a ``parent`` span."""
        return int(np.count_nonzero(self.mask(name) & (self.parent_name == self._id(parent))))

    def ok_count(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name) & self.ok))

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def inclusive_s(self, name: str) -> float:
        """Time inside outermost ``name`` spans, children included."""
        nid = self._id(name)
        return float(self.duration[(self.name_id == nid) & (self.parent_name != nid)].sum())

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_time[self.prefix_mask(layer + ".")].sum())

    def root_s(self) -> float:
        return float(self.duration[self.parent < 0].sum())

    def save(self, target) -> None:
        target.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(target, names=np.array(self.names), name_id=self.name_id,
                            start=self.start, end=self.end, parent=self.parent, ok=self.ok)


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


def _wrapper(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = recorder.open(name)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            recorder.close(idx, ok)
    return traced


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Install span wrappers on every lookup site of each target for the
    duration of the block; the originals are restored on exit."""
    import ddsolve

    modules = [ddsolve] + [importlib.import_module(f"ddsolve.{m}") for m in LAYERS]
    undo = []
    try:
        for name, module_name, attr in TARGETS:
            owner, key = _resolve(module_name, attr)
            original = owner.__dict__[key]
            wrapped = _wrapper(recorder, name, original)
            if isinstance(owner, type):
                undo.append((owner, key, original))
                setattr(owner, key, wrapped)
                continue
            for module in modules:
                for attr_name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr_name, original))
                        setattr(module, attr_name, wrapped)
        yield recorder
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
