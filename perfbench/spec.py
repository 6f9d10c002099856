"""The benchmark's catalogue: workloads, metrics, units and descriptions.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/spec.py > BENCHMARK.json``) and a test keeps the two
in step.  ``BENCHMARK.json`` admits only name/unit/better/bound per metric,
so the one-line descriptions, and for every per-layer metric the
end-to-end metric and workload it should move, live here and are printed
by ``python3 perfbench/run.py --describe``.
"""

from __future__ import annotations

import json
from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: name → why the workload is in the benchmark (one line each).
WORKLOADS: Dict[str, str] = {
    "refresh": (
        "Core use: transactional apply() of 1% batches to fig5's 10 views sharing "
        "subexpressions; time goes to engine view merge, base apply, rollback copy, "
        "differentials"
    ),
    "serve": (
        "Open loop: 400 reads/s beside 2 ingests/s on one engine with a refresh daemon; "
        "shows GIL hand-off and snapshot publish costs that stall readers"
    ),
    "select": (
        "The paper's optimizer alone: Greedy over fig3/4/5 x 4 update fractions plus "
        "MQO batches; DAG build, Volcano, cost engine, no engine or storage work"
    ),
}

#: What one operation is on each workload (the samples of op_ms_*).
OPERATIONS: Dict[str, str] = {
    "refresh": "one Warehouse.apply(DeltaStore) of a 1% batch",
    "serve": "one ServingSession.query() + len(), timed from its due time",
    "select": "one Warehouse.optimize() or optimize_queries() call",
}

# name, unit, better, bound, description
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median of 3 set-ups: Warehouse() -> load -> load_data -> define_views -> optimize "
     "-> initial materialization (serve adds serve() open; select loads no data)"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident set size of the process when the measured window ends"),
    ("ok_share", "share", "higher", 0.01,
     "1 - failed share: operations and oracle checks that raised, were shed "
     "(ServingError), rejected (StaleReadError) or mismatched, over those attempted"),
    ("op_ms_p50", "ms", "lower", 0.25,
     "median latency of one operation (refresh: apply; serve: read from due time; "
     "select: optimize, rescaled to a nominal host speed)"),
    ("throughput_per_s", "1/s", "higher", 0.25,
     "refresh: base delta rows accepted per second of apply() time; serve: reads "
     "completed per second; select: optimize calls per second"),
    ("visible_lag_ms_p50", "ms", "lower", 0.25,
     "median time from submitting a change until it is visible: refresh apply(); "
     "serve ingest -> first read at as_of_round >= the round; select: the plan "
     "returned"),
    ("fresh_share", "share", "higher", 0.1,
     "1 - degraded share: reads served within the freshness SLO (serve); 1 where "
     "results are visible synchronously (refresh, select)"),
]

# name, unit, better, description, "workload: end-to-end metric" it moves
PER_LAYER = [
    ("engine.view_merge_ms", "ms", "lower",
     "Database.update_view self time per operation", "refresh: op_ms_p50, throughput_per_s"),
    ("engine.base_apply_ms", "ms", "lower",
     "Database.apply_update self time per operation", "refresh: op_ms_p50, throughput_per_s"),
    ("engine.rollback_copy_ms", "ms", "lower",
     "Database.copy self time per operation (0 on serve: flushes are not transactional)",
     "refresh: op_ms_p50"),
    ("engine.evaluate_ms", "ms", "lower",
     "PhysicalExecutor.evaluate self time per operation", "refresh: op_ms_p50"),
    ("engine.plan_ms", "ms", "lower",
     "PhysicalExecutor.plan self time per operation", "refresh: op_ms_p50"),
    ("engine.plan_cache_hit_ratio", "ratio", "higher",
     "1 - VolcanoSearch.optimize calls under PhysicalExecutor.plan / plan calls",
     "refresh: op_ms_p50"),
    ("engine.view_rows_merged", "count/op", "lower",
     "view delta rows merged by Database.update_view per operation", "refresh: op_ms_p50"),
    ("engine.base_rows_applied", "count/op", "lower",
     "base delta rows applied by Database.apply_update per operation",
     "refresh: throughput_per_s"),
    ("engine.differential_ms", "ms", "lower",
     "DifferentialEngine.differentiate self time per operation",
     "serve: visible_lag_ms_p50, fresh_share; refresh: op_ms_p50"),
    ("engine.old_value_hit_ratio", "ratio", "higher",
     "OldValueCache hits / (hits + misses) over differentiate calls",
     "serve: visible_lag_ms_p50; refresh: op_ms_p50"),
    ("storage.index_maintain_ms", "ms", "lower",
     "HashIndex/SortedIndex apply_insert/apply_delete/retarget and build_index self "
     "time per operation", "refresh: op_ms_p50"),
    ("storage.column_convert_ms", "ms", "lower",
     "active column backend from_rows/to_rows/concat/concat_many self time per operation",
     "refresh: op_ms_p50"),
    ("catalog.stats_maintain_ms", "ms", "lower",
     "Database.refresh_statistics self time per operation", "refresh: op_ms_p50"),
    ("catalog.round_cost_ms", "ms", "lower",
     "CardinalityEstimator.refresh_round_cost self time per operation",
     "serve: visible_lag_ms_p50"),
    ("analysis.verify_ms", "ms", "lower",
     "verify_delta_round + verify_plan self time per operation",
     "refresh: op_ms_p50; every workload: setup_s"),
    ("stream.schedule_ms", "ms", "lower",
     "StreamScheduler.ingest self time per operation", "serve: visible_lag_ms_p50"),
    ("stream.coalesce_ms", "ms", "lower",
     "PendingDeltas.ingest/take self time per operation", "serve: visible_lag_ms_p50"),
    ("stream.flushes", "count/op", "lower",
     "flushes (non-empty PendingDeltas.take) per ingested round",
     "serve: visible_lag_ms_p50 against fresh_share"),
    ("stream.annihilated_share", "share", "higher",
     "rows annihilated by coalescing / rows ingested", "serve: visible_lag_ms_p50"),
    ("stream.rows_propagated", "count/op", "lower",
     "rows in the rounds flushes hand to the refresh, per ingested round",
     "serve: visible_lag_ms_p50"),
    ("serving.publish_ms", "ms", "lower",
     "SnapshotManager.publish self time per ingested round",
     "serve: visible_lag_ms_p50, op_ms_p50"),
    ("serving.daemon_busy_share", "share", "lower",
     "time in root spans on the refresh daemon thread / window wall time",
     "serve: fresh_share, visible_lag_ms_p50, op_ms_p50"),
    ("serving.queue_peak", "count", "lower",
     "refresh daemon write-queue peak (daemon.stats())",
     "serve: visible_lag_ms_p50"),
    ("serving.versions_published", "count/op", "higher",
     "snapshot versions published per ingested round", "serve: visible_lag_ms_p50, fresh_share"),
    ("maintenance.optimize_ms", "ms", "lower",
     "ViewMaintenanceOptimizer.optimize time per call, children included",
     "select: op_ms_p50, throughput_per_s; elsewhere setup_s"),
    ("maintenance.dag_build_ms", "ms", "lower",
     "ViewMaintenanceOptimizer.build self time per operation",
     "select: op_ms_p50, throughput_per_s; elsewhere setup_s"),
    ("maintenance.greedy_ms", "ms", "lower",
     "GreedyViewSelector.run self time per operation",
     "select: op_ms_p50, throughput_per_s; elsewhere setup_s"),
    ("maintenance.benefit_evals", "count/op", "lower",
     "MaintenanceCostEngine.speculative entries per operation",
     "select: op_ms_p50, throughput_per_s"),
    ("optimizer.volcano_ms", "ms", "lower",
     "VolcanoSearch.optimize self time per operation",
     "select: op_ms_p50; refresh: op_ms_p50 (plan-cache misses)"),
    ("mqo.optimize_ms", "ms", "lower",
     "MultiQueryOptimizer.optimize self time per operation", "select: op_ms_p50"),
    ("maintenance.refresh_self_ms", "ms", "lower",
     "ViewRefresher.refresh_many self time per operation", "refresh: op_ms_p50"),
    ("bench.op_ms_tail", "ms", "lower",
     "tail latency of one operation in the traced run's untraced window: p99 on serve, "
     "p90 on the closed loops; not end-to-end because serve's read tail moved 0.2-0.4 "
     "of its median between runs of one seed", "serve: fresh_share; select: op_ms_p50"),
    ("bench.generator_late_ms_p99", "ms", "lower",
     "99th percentile of how late the open-loop generator issued a request "
     "(serve; 0 on closed loops)", "serve: op_ms_p50"),
    ("trace.coverage", "share", "higher",
     "named-layer span time / operation wall time (the rest is facade self time or "
     "waiting outside any layer)", "all: attributes op_ms_p50"),
    ("trace.overhead_share", "share", "lower",
     "traced op_ms_p50 / untraced op_ms_p50 - 1 within the traced run",
     "all: validity of the per-layer split"),
]


def per_layer_names() -> List[str]:
    return [entry[0] for entry in PER_LAYER]


def units() -> Dict[str, str]:
    table = {name: unit for name, unit, *_ in END_TO_END}
    table.update({name: unit for name, unit, *_ in PER_LAYER})
    return table


def benchmark_json() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _, _ in PER_LAYER
        ],
    }


def describe() -> str:
    """Every workload and metric with its unit and one-line description."""
    lines = ["workloads:"]
    for name, why in WORKLOADS.items():
        lines.append(f"  {name}: {why}")
        lines.append(f"    operation: {OPERATIONS[name]}")
    lines.append("end-to-end metrics (--trace 0):")
    for name, unit, better, bound, text in END_TO_END:
        lines.append(f"  {name} [{unit}, {better} is better, bound {bound:g}]: {text}")
    lines.append("per-layer metrics (--trace 1):")
    for name, unit, better, text, moves in PER_LAYER:
        lines.append(f"  {name} [{unit}, {better} is better]: {text}  -> moves {moves}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
