"""The three benchmark workloads, driven through the public façade.

Each workload has four phases, and only ``setup`` and ``window`` are timed:

* ``prepare`` — the benchmark's own input generation from the seed (TPC-D
  data from ``workloads.datagen``, update rounds from
  ``workloads.updategen``).  Excluded from every metric.
* ``setup`` — what a user pays before the first operation; reported as
  ``setup_s``.  Copying the prepared database is excluded.
* ``window`` — the measured operations.
* ``check`` — oracle gates, outside the timed region.

All workloads use the ``paper`` profile with ``workers=1``.

The shared 2-core host (x86_64, Python 3.11) this benchmark was measured
on changed its speed at interpreting Python by up to 2x within seconds.  ``select`` spends its time
interpreting Python, so its timings are rescaled to a nominal host speed: a
fixed pure-Python reference kernel is timed just before and just after each
timed region, and the region's duration is multiplied by
``REFERENCE_SECONDS`` over the kernel's time.  The data workloads spend
theirs in numpy kernels whose speed does not track the reference kernel
(rescaling tripled the spread of refresh's median), so they report raw
seconds.  The printed report gives the raw medians and speed factors.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.algebra.expressions import base_relations
from repro.api import (
    FreshnessSLO,
    ServingError,
    Warehouse,
    WarehouseConfig,
    WarehouseError,
)
from repro.engine.executor import evaluate
from repro.maintenance.update_spec import UpdateSpec
from repro.storage.delta import DeltaStore
from repro.workloads import queries
from repro.workloads.datagen import small_database
from repro.workloads.updategen import generate_deltas, generate_update_stream

from perfbench import stats

#: Statistics catalog the optimizer plans against (the paper's pattern:
#: plan at full scale, execute at a small scale factor).
PLAN_SCALE = 0.1

SELECT_COSTS = Path(__file__).with_name("select_costs.json")

#: Seconds :func:`reference_kernel` takes on the nominal host.
REFERENCE_SECONDS = 0.0015


def reference_kernel() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - started


def host_speed() -> float:
    """The host's speed now relative to the nominal host (median of three
    kernel timings); a region's raw seconds times this factor are its
    nominal seconds."""
    return REFERENCE_SECONDS / statistics.median(reference_kernel() for _ in range(3))


class Stopwatch:
    """Times one region; with ``rescale``, also rescales it by the host
    speed measured just before and just after it (outside the region)."""

    def __init__(self, rescale: bool = False) -> None:
        self.rescale = rescale

    def __enter__(self) -> "Stopwatch":
        self.before = host_speed() if self.rescale else 1.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.end = time.perf_counter()
        self.raw = self.end - self.start
        self.speed = (self.before + host_speed()) / 2 if self.rescale else 1.0
        self.seconds = self.raw * self.speed


def fig3() -> Dict:
    return {**queries.standalone_join_view(), **queries.standalone_agg_view()}


def config(**overrides) -> WarehouseConfig:
    return WarehouseConfig.profile("paper", workers=1, **overrides)


def view_relations(views, database) -> List[str]:
    names = set(database.table_names())
    return sorted({r for expr in views.values() for r in base_relations(expr)} & names)


@dataclass
class Window:
    """What one measured window produced (reported seconds: rescaled on
    ``select``, raw elsewhere)."""

    #: One latency per operation.
    latencies: List[float] = field(default_factory=list)
    #: One submit-to-visible lag per change.
    lags: List[float] = field(default_factory=list)
    #: Work units (delta rows, reads, optimize calls) over ``busy`` seconds.
    work: float = 0.0
    busy: float = 0.0
    fresh_share: float = 1.0
    #: Raw wall time of the whole window.
    wall: float = 0.0
    #: Operations the per-layer metrics are normalized by.
    ops: int = 0
    #: How late the open-loop generator issued each request.
    late: List[float] = field(default_factory=list)
    #: Raw seconds of each operation and the host speed factors applied.
    raw: List[float] = field(default_factory=list)
    speeds: List[float] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def add(self, watch: Stopwatch, work: float = 0.0) -> None:
        """Record one operation timed by ``watch``."""
        self.latencies.append(watch.seconds)
        self.raw.append(watch.raw)
        self.speeds.append(watch.speed)
        self.busy += watch.seconds
        self.work += work


class Tracing:
    """The window's hooks into the optional span recorder."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder

    def op(self):
        """Span around one workload operation (a no-op when untraced)."""
        return self.recorder.span("bench.op") if self.recorder else contextlib.nullcontext()

    @contextlib.contextmanager
    def paused(self):
        """Stop recording around the benchmark's own input generation."""
        recorder = self.recorder
        if recorder is None or not recorder.active:
            yield
            return
        recorder.active = False
        try:
            yield
        finally:
            recorder.active = True


class Workload:
    """Base: a workload is built from the seed and the window length."""

    name = ""
    #: The tail percentile reported beside the median: about the highest
    #: one with ten samples beyond it in one run.
    TAIL = 90.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        #: Hard stop for a window whose operations fail instantly.
        self.deadline = 3 * seconds + 60

    def prepare(self) -> None:
        """Generate the inputs (untimed)."""

    def setup(self) -> Tuple[object, float]:
        """Build the state a window runs on; returns it and its set-up time."""
        raise NotImplementedError

    def window(self, state, tally: stats.Tally, tracing: Tracing) -> Window:
        raise NotImplementedError

    def check(self, state, window: Window, tally: stats.Tally) -> None:
        """Oracle gates (untimed); each records one check in ``tally``."""

    def close(self, state) -> None:
        """Release the state's resources."""


def _verify(wh: Warehouse, tally: stats.Tally) -> None:
    """Every materialized view is bag-identical to recomputation."""
    for view, ok in sorted(wh.verify().items()):
        tally.record(ok, f"view {view} differs from recomputation")


def _warehouse(views, database, cfg: WarehouseConfig, update_percentage=None) -> Warehouse:
    """The set-up sequence every data workload times."""
    wh = Warehouse(cfg)
    wh.load(scale=PLAN_SCALE)
    wh.load_data(database=database)
    wh.define_views(views)
    wh.optimize(update_percentage=update_percentage)
    return wh


class Refresh(Workload):
    """fig5's 10 join views; closed loop of transactional ``apply()`` of
    uniform 1% batches (2:1 inserts to deletes), generated between
    operations from the live database."""

    name = "refresh"
    SCALE = 0.01
    FRACTION = 0.01

    def prepare(self) -> None:
        self.views = queries.large_view_set()
        self.base = small_database(scale_factor=self.SCALE, seed=self.seed)
        self.relations = view_relations(self.views, self.base)

    def setup(self):
        database = self.base.copy()
        with Stopwatch() as watch:
            wh = _warehouse(self.views, database, config(), self.FRACTION)
            wh.apply(DeltaStore(self.relations))  # initial materialization
        return wh, watch.seconds

    def window(self, wh, tally, tracing):
        out = Window()
        spec = UpdateSpec.uniform(self.FRACTION, self.relations)
        # Key sequences continue past every key issued, since deletes shrink
        # the tables below the highest key.
        issued = {r: len(wh.database.table(r)) for r in self.relations}
        started = time.perf_counter()
        batch_number = 0
        while sum(out.raw) < self.seconds and time.perf_counter() - started < self.deadline:
            with tracing.paused():
                batch = generate_deltas(
                    wh.database,
                    spec,
                    self.relations,
                    seed=self.seed * 1000 + batch_number,
                    key_offsets={
                        r: issued[r] - len(wh.database.table(r)) for r in self.relations
                    },
                )
            batch_number += 1
            for delta in batch:
                issued[delta.relation] += len(delta.inserts)
            try:
                with Stopwatch() as watch, tracing.op():
                    wh.apply(batch)
            except WarehouseError as exc:
                tally.record(False, f"apply raised {exc}")
                continue
            tally.record(True)
            out.add(watch, batch.total_rows())
            out.lags.append(watch.seconds)
        out.wall = time.perf_counter() - started
        out.ops = len(out.latencies)
        return out

    def check(self, wh, window, tally):
        _verify(wh, tally)


class Serve(Workload):
    """fig3 views behind ``Warehouse.serve(read_policy="serve-stale",
    slo=FreshnessSLO(max_rounds=4))``.  One open-loop generator thread
    issues reads (``query()`` then ``len()``, round-robin over the views)
    at a fixed rate and ingests 1% churn rounds at a fixed rate; the
    refresh daemon is the only other thread.  Times are raw: the rates
    are fixed in wall time."""

    name = "serve"
    SCALE = 0.0025
    FRACTION = 0.01
    TAIL = 99.0
    READS_PER_S = 400.0
    INGESTS_PER_S = 2.0
    SLO = FreshnessSLO(max_rounds=4)

    def prepare(self) -> None:
        self.views = fig3()
        self.base = small_database(scale_factor=self.SCALE, seed=self.seed)
        self.relations = view_relations(self.views, self.base)
        count = int(self.seconds * self.INGESTS_PER_S) + 1
        self.rounds = generate_update_stream(
            self.base, self.FRACTION, count, self.relations, overlap=0.6, seed=self.seed
        )

    def setup(self):
        database = self.base.copy()
        with Stopwatch() as watch:
            wh = _warehouse(self.views, database, config())
            session = wh.serve(read_policy="serve-stale", slo=self.SLO)
        return (wh, session), watch.seconds

    def schedule(self) -> List[Tuple[float, str, int]]:
        """(offset, kind, index) of every request in the window, in order."""
        reads = int(self.seconds * self.READS_PER_S)
        ingests = min(int(self.seconds * self.INGESTS_PER_S), len(self.rounds))
        plan = [(i / self.READS_PER_S, "read", i) for i in range(reads)]
        plan += [(i / self.INGESTS_PER_S, "ingest", i) for i in range(ingests)]
        # Ingests first on ties: the round is in flight before the read.
        return sorted(plan, key=lambda item: (item[0], item[1] != "ingest"))

    def window(self, state, tally, tracing):
        wh, session = state
        out = Window()
        names = sorted(self.views)
        served: Dict[Tuple[str, int], object] = {}
        ingested_at: List[float] = []
        first_seen: Dict[int, float] = {}
        due_times, started_times, done_times = [], [], []
        degraded = 0
        reads = 0
        out.extras["slo_breaches"] = 0
        start = time.perf_counter()
        for offset, kind, index in self.schedule():
            due = start + offset
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            issued = time.perf_counter()
            if kind == "ingest":
                out.late.append(max(0.0, issued - due))
                try:
                    session.ingest(self.rounds[index])
                except ServingError as exc:
                    tally.record(False, f"ingest shed: {exc}")
                    continue
                tally.record(True)
                ingested_at.append(issued)
                continue
            view = names[index % len(names)]
            try:
                with tracing.op():
                    result = session.query(view)
                    len(result)
            except ServingError as exc:  # StaleReadError is one too
                tally.record(False, f"read failed: {exc}")
                continue
            done = time.perf_counter()
            tally.record(True)
            reads += 1
            due_times.append(due)
            started_times.append(issued)
            done_times.append(done)
            served.setdefault((view, result.version), result)
            if result.degraded:
                degraded += 1
            elif self.SLO.violation(result.staleness) is not None:
                out.extras["slo_breaches"] += 1
            for round_number in range(len(first_seen) + 1, result.as_of_round + 1):
                first_seen[round_number] = done
        window_end = time.perf_counter()
        session.close()
        closed = time.perf_counter()
        latency, late = stats.open_loop(due_times, started_times, done_times)
        out.latencies = out.raw = latency
        out.speeds = [1.0]
        out.late.extend(late)
        # A round no read saw before the window ended became visible when
        # close() drained and flushed it.
        out.lags = [
            first_seen.get(number, closed) - at
            for number, at in enumerate(ingested_at, start=1)
        ]
        out.work = reads
        out.busy = out.wall = window_end - start
        out.fresh_share = 1.0 - degraded / reads if reads else 0.0
        out.ops = len(ingested_at)
        out.extras["served"] = served
        out.extras["queue_peak"] = session.daemon.stats().queue_peak
        return out

    def check(self, state, window, tally):
        """Every distinct served (view, version) equals a serial replay of
        the rounds up to its as-of round, and no read that was not flagged
        degraded broke the SLO."""
        served = window.extras["served"]
        tally.record(
            window.extras["slo_breaches"] == 0,
            f"{window.extras['slo_breaches']} non-degraded reads broke the SLO",
        )
        oracle = self.base.copy()
        applied = 0
        for (view, version), result in sorted(
            served.items(), key=lambda item: (item[1].as_of_round, item[0])
        ):
            while applied < result.as_of_round:
                for delta in self.rounds[applied]:
                    oracle.apply_delta(delta)
                applied += 1
            expected = evaluate(self.views[view], oracle)
            tally.record(
                result.relation.same_bag(expected),
                f"{view} v{version} (as of round {result.as_of_round}) differs from the serial oracle",
            )

    def close(self, state) -> None:
        state[1].close()


class Select(Workload):
    """The optimizer alone: Greedy ``optimize()`` over fig3, fig4 and fig5
    at update fractions 1/10/40/80%, plus ``optimize_queries()`` on the
    fig4 and fig5 sets as query batches.  No data is loaded.  The seed
    shuffles the order of the cells; a window runs whole passes."""

    name = "select"
    FRACTIONS = (0.01, 0.1, 0.4, 0.8)

    def prepare(self) -> None:
        self.sets = {
            "fig3": fig3(),
            "fig4": queries.view_set_plain(),
            "fig5": queries.large_view_set(),
        }
        cells = [(s, f) for s in self.sets for f in self.FRACTIONS]
        cells += [("fig4", None), ("fig5", None)]  # None: MQO query batch
        random.Random(self.seed).shuffle(cells)
        self.cells = cells

    def setup(self):
        warehouses = {}
        with Stopwatch(rescale=True) as watch:
            for name, views in self.sets.items():
                wh = Warehouse(config())
                wh.load(scale=PLAN_SCALE)
                wh.define_views(views)
                warehouses[name] = wh
        return warehouses, watch.seconds

    def window(self, warehouses, tally, tracing):
        out = Window()
        costs: Dict[str, List[float]] = {}
        started = time.perf_counter()
        while sum(out.raw) < self.seconds and time.perf_counter() - started < self.deadline:
            for view_set, fraction in self.cells:
                wh = warehouses[view_set]
                try:
                    with Stopwatch(rescale=True) as watch, tracing.op():
                        cost = self.optimize(wh, view_set, fraction)
                except WarehouseError as exc:
                    tally.record(False, f"optimize raised {exc}")
                    continue
                tally.record(True)
                out.add(watch, 1)
                out.lags.append(watch.seconds)
                costs.setdefault(cell_key(view_set, fraction), []).append(cost)
        out.wall = time.perf_counter() - started
        out.ops = len(out.latencies)
        out.extras["costs"] = costs
        return out

    def optimize(self, wh: Warehouse, view_set: str, fraction: Optional[float]) -> float:
        """One cell: Greedy at ``fraction``, or MQO of the set (``None``)."""
        if fraction is None:
            return wh.optimize_queries(self.sets[view_set]).optimized_cost
        return wh.optimize(update_percentage=fraction).total_cost

    def check(self, warehouses, window, tally):
        """Each cell's cost equals this commit's recorded cost within 1e-6
        relative, and Greedy is no worse than NoGreedy (MQO: than the
        unshared batch)."""
        expected = json.loads(SELECT_COSTS.read_text())
        for key, seen in sorted(window.extras["costs"].items()):
            want = expected[key]
            tally.record(
                all(abs(c - want["cost"]) <= 1e-6 * abs(want["cost"]) for c in seen),
                f"{key}: cost {seen[0]} differs from the recorded {want['cost']}",
            )
            view_set, _, fraction = key.partition("@")
            wh = warehouses[view_set]
            if fraction == "mqo":
                baseline = wh.optimize_queries(self.sets[view_set]).unshared_cost
            else:
                baseline = wh.optimize(update_percentage=float(fraction), greedy=False).total_cost
            tally.record(
                max(seen) <= baseline * (1 + 1e-9),
                f"{key}: cost {max(seen)} exceeds the baseline {baseline}",
            )


def cell_key(view_set: str, fraction: Optional[float]) -> str:
    return f"{view_set}@{'mqo' if fraction is None else fraction}"


def record_select_costs() -> None:
    """Write ``select_costs.json`` from the current optimizer.  Run only
    when a change to the optimizer's costs is intended."""
    workload = Select(seed=0, seconds=0)
    workload.prepare()
    warehouses, _ = workload.setup()
    costs = {}
    for view_set, fraction in sorted(workload.cells, key=lambda c: cell_key(*c)):
        cost = workload.optimize(warehouses[view_set], view_set, fraction)
        costs[cell_key(view_set, fraction)] = {"cost": cost}
    SELECT_COSTS.write_text(json.dumps(costs, indent=2, sort_keys=True) + "\n")


WORKLOADS = {cls.name: cls for cls in (Refresh, Serve, Select)}
