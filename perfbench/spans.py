"""Outside-in span recorder for the traced run.

The recorder wraps public functions of each layer of ``repro`` from the
benchmark's side — no code under ``src/`` knows it exists — and records one
span (name, start, end, parent, thread) per call, kept in memory and
written out when the run ends.  Parents come from a per-thread stack, so
the refresh daemon's spans nest under their own roots.  Only
``perfbench/run.py --trace 1`` imports this module; the untraced run
installs no wrapper.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench import stats


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Spans and counters are only recorded while this is set (the
        #: benchmark clears it around its own input generation).
        self.active = False
        self._local = threading.local()
        self._buffers: List[list] = []
        self._counters: Dict[str, float] = {}
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "buffer"):
            local.buffer = []
            local.stack = []
            with self._lock:
                self._buffers.append(local.buffer)
        return local

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        local = self._state()
        buffer, stack = local.buffer, local.stack
        # Only this thread touches its buffer, so the slot index is stable.
        buffer.append(None)
        index = len(buffer) - 1
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            buffer[index] = (name, start, end, parent, threading.get_ident())

    def count(self, name: str, value: float = 1.0) -> None:
        if not self.active:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def spans(self) -> List[stats.Span]:
        """All finished spans, parent indexes rebased onto one list."""
        merged: List[stats.Span] = []
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            offset = len(merged)
            for record in list(buffer):
                if record is None:  # still open: a call the run cut short
                    record = ("(open)", 0.0, 0.0, -1, 0)
                name, start, end, parent, thread = record
                merged.append(
                    (name, start, end, parent + offset if parent >= 0 else -1, thread)
                )
        return merged

    def write(self, path) -> None:
        """Write spans and counters as JSON (one list per span)."""
        payload = {"spans": self.spans(), "counters": dict(self._counters)}
        with open(path, "w") as handle:
            json.dump(payload, handle)


# -------------------------------------------------------------- wrapping

Hook = Callable[[Recorder, tuple, dict, object], None]


class Installation:
    """The wrappers installed on ``repro``; :meth:`remove` restores them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: Optional[str],
        hook: Optional[Hook] = None,
        before: Optional[Callable[[tuple, dict], object]] = None,
    ) -> None:
        """Record a span ``name`` (``None``: count only) around
        ``owner.attr``; ``hook(recorder, args, kwargs, result)`` records
        counts after each call (``before``'s return value is passed as
        ``kwargs['__before__']``)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        recorder = self.recorder

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            seen = before(args, kwargs) if before is not None else None
            if name is None:
                result = function(*args, **kwargs)
            else:
                with recorder.span(name):
                    result = function(*args, **kwargs)
            if hook is not None:
                hook(recorder, args, dict(kwargs, __before__=seen), result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._saved.append((owner, attr, raw))

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def _arg(args: tuple, kwargs: dict, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs.get(keyword)


def _size(relation) -> int:
    return len(relation) if relation is not None else 0


def _count_merged(recorder, args, kwargs, _result) -> None:
    recorder.count(
        "engine.view_rows_merged",
        _size(_arg(args, kwargs, 2, "inserts")) + _size(_arg(args, kwargs, 3, "deletes")),
    )


def _count_applied(recorder, args, kwargs, _result) -> None:
    recorder.count("engine.base_rows_applied", _size(_arg(args, kwargs, 3, "delta_rows")))


def _cache_before(args, kwargs):
    cache = _arg(args, kwargs, 6, "cache")
    return (cache, cache.hits, cache.misses) if cache is not None else None


def _count_cache(recorder, _args, kwargs, _result) -> None:
    seen = kwargs["__before__"]
    if seen is not None:
        cache, hits, misses = seen
        recorder.count("engine.old_value_hits", cache.hits - hits)
        recorder.count("engine.old_value_misses", cache.misses - misses)


def _count_coalesced(recorder, args, kwargs, annihilated) -> None:
    recorder.count("stream.rows_ingested", _arg(args, kwargs, 1, "deltas").total_rows())
    recorder.count("stream.rows_annihilated", annihilated or 0)


def _count_taken(recorder, _args, _kwargs, rounds) -> None:
    if rounds:
        recorder.count("stream.flushes")
        recorder.count("stream.rows_propagated", sum(r.total_rows() for r in rounds))


def _counter(name: str) -> Hook:
    def hook(recorder, _args, _kwargs, _result) -> None:
        recorder.count(name)

    return hook


def install(recorder: Recorder) -> Installation:
    """Wrap every layer boundary the per-layer metrics are built from."""
    import repro.analysis as analysis
    import repro.analysis.planlint as planlint
    import repro.engine.database as database
    import repro.storage as storage
    import repro.storage.index as index
    from repro.catalog.estimator import CardinalityEstimator
    from repro.engine.differential import DifferentialEngine
    from repro.engine.physical import PhysicalExecutor
    from repro.maintenance.cost_engine import MaintenanceCostEngine
    from repro.maintenance.greedy import GreedyViewSelector
    from repro.maintenance.maintainer import ViewRefresher
    from repro.maintenance.optimizer import ViewMaintenanceOptimizer
    from repro.mqo.greedy import MultiQueryOptimizer
    from repro.optimizer.volcano import VolcanoSearch
    from repro.serving.daemon import RefreshDaemon
    from repro.serving.snapshot import SnapshotManager
    from repro.storage.columns import active_backend
    from repro.stream.pending import PendingDeltas
    from repro.stream.scheduler import StreamScheduler

    done = Installation(recorder)
    wrap = done.wrap
    Database = database.Database
    wrap(Database, "update_view", "engine.view_merge", _count_merged)
    wrap(Database, "apply_update", "engine.base_apply", _count_applied)
    wrap(Database, "copy", "engine.rollback_copy")
    wrap(Database, "refresh_statistics", "catalog.stats_maintain")
    wrap(PhysicalExecutor, "evaluate", "engine.evaluate")
    wrap(PhysicalExecutor, "plan", "engine.plan")
    wrap(DifferentialEngine, "differentiate", "engine.differential", _count_cache, _cache_before)
    for cls in (index.HashIndex, index.SortedIndex):
        for attr in ("apply_insert", "apply_delete", "retarget"):
            wrap(cls, attr, "storage.index_maintain")
    # ``build_index`` is imported by name into these modules.
    for module in (index, database, storage):
        wrap(module, "build_index", "storage.index_maintain")
    backend = active_backend()
    for attr in ("from_rows", "to_rows", "concat", "concat_many"):
        wrap(backend, attr, "storage.column_convert")
    wrap(CardinalityEstimator, "refresh_round_cost", "catalog.round_cost")
    for module in (analysis, planlint):
        wrap(module, "verify_delta_round", "analysis.verify")
        wrap(module, "verify_plan", "analysis.verify")
    wrap(StreamScheduler, "ingest", "stream.schedule")
    wrap(PendingDeltas, "ingest", "stream.coalesce", _count_coalesced)
    wrap(PendingDeltas, "take", "stream.coalesce", _count_taken)
    wrap(SnapshotManager, "publish", "serving.publish", _counter("serving.publishes"))
    # The read path, so reads are covered by named layers too.
    wrap(SnapshotManager, "pin", "serving.pin")
    wrap(RefreshDaemon, "staleness", "serving.admission")
    wrap(ViewMaintenanceOptimizer, "optimize", "maintenance.optimize")
    wrap(ViewMaintenanceOptimizer, "build", "maintenance.dag_build")
    wrap(GreedyViewSelector, "run", "maintenance.greedy")
    # A context manager: count the benefit evaluations, time nothing.
    wrap(MaintenanceCostEngine, "speculative", None, _counter("maintenance.benefit_evals"))
    wrap(VolcanoSearch, "optimize", "optimizer.volcano")
    wrap(MultiQueryOptimizer, "optimize", "mqo.optimize")
    wrap(ViewRefresher, "refresh_many", "maintenance.refresh")
    return done


# ------------------------------------------------------------- metrics

#: Per-layer time metric → the span name whose self time it reports.
SELF_TIME = {
    "engine.view_merge_ms": "engine.view_merge",
    "engine.base_apply_ms": "engine.base_apply",
    "engine.rollback_copy_ms": "engine.rollback_copy",
    "engine.evaluate_ms": "engine.evaluate",
    "engine.plan_ms": "engine.plan",
    "engine.differential_ms": "engine.differential",
    "storage.index_maintain_ms": "storage.index_maintain",
    "storage.column_convert_ms": "storage.column_convert",
    "catalog.stats_maintain_ms": "catalog.stats_maintain",
    "catalog.round_cost_ms": "catalog.round_cost",
    "analysis.verify_ms": "analysis.verify",
    "stream.schedule_ms": "stream.schedule",
    "stream.coalesce_ms": "stream.coalesce",
    "serving.publish_ms": "serving.publish",
    "maintenance.dag_build_ms": "maintenance.dag_build",
    "maintenance.greedy_ms": "maintenance.greedy",
    "optimizer.volcano_ms": "optimizer.volcano",
    "mqo.optimize_ms": "mqo.optimize",
    "maintenance.refresh_self_ms": "maintenance.refresh",
}

#: Per-layer count metric → the counter it reports per operation.
PER_OP_COUNT = {
    "engine.view_rows_merged": "engine.view_rows_merged",
    "engine.base_rows_applied": "engine.base_rows_applied",
    "stream.flushes": "stream.flushes",
    "stream.rows_propagated": "stream.rows_propagated",
    "serving.versions_published": "serving.publishes",
    "maintenance.benefit_evals": "maintenance.benefit_evals",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    recorder: Recorder,
    spans: Sequence[stats.Span],
    *,
    op_name: str,
    ops: int,
    wall_seconds: float,
    main_thread: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced window: self times and counts per
    operation, hit ratios, coverage and the daemon's busy share."""
    own = stats.self_time_by_name(spans)
    per_op = max(ops, 1)
    metrics: Dict[str, float] = {
        metric: own.get(span, 0.0) * 1e3 / per_op for metric, span in SELF_TIME.items()
    }
    for metric, counter in PER_OP_COUNT.items():
        metrics[metric] = recorder.counter(counter) / per_op
    # The maintenance optimizer's total time per call, children included.
    optimize = [s for s in spans if s[0] == "maintenance.optimize"]
    metrics["maintenance.optimize_ms"] = (
        sum(s[2] - s[1] for s in optimize) * 1e3 / len(optimize) if optimize else 0.0
    )
    plans = sum(1 for s in spans if s[0] == "engine.plan")
    searches = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "optimizer.volcano" and stats.has_ancestor(spans, i, "engine.plan")
    )
    metrics["engine.plan_cache_hit_ratio"] = 1.0 - _ratio(searches, plans) if plans else 0.0
    hits = recorder.counter("engine.old_value_hits")
    metrics["engine.old_value_hit_ratio"] = _ratio(
        hits, hits + recorder.counter("engine.old_value_misses")
    )
    metrics["stream.annihilated_share"] = _ratio(
        recorder.counter("stream.rows_annihilated"), recorder.counter("stream.rows_ingested")
    )
    daemon_busy = sum(s[2] - s[1] for s in spans if s[3] < 0 and s[4] != main_thread)
    metrics["serving.daemon_busy_share"] = _ratio(daemon_busy, wall_seconds)
    metrics["trace.coverage"] = stats.coverage(spans, op_name)
    return metrics


def inclusive_ms(spans: Sequence[stats.Span], op_name: str) -> Dict[str, float]:
    """Time per ``op_name`` span (ms) of every span name, children included.

    The operation's own entry minus its self time is what the named layers
    cover; a layer's entry shows what its children (for instance index
    rebuilds under ``Database.copy``) add to its self time."""
    ops = max(1, sum(1 for s in spans if s[0] == op_name))
    totals: Dict[str, float] = {}
    for name, start, end, _parent, _thread in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) * 1e3 / ops
    own = stats.self_time_by_name(spans).get(op_name, 0.0) * 1e3 / ops
    totals[f"{op_name} (uncovered self time)"] = own
    return totals
