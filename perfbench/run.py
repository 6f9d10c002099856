"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload refresh --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --describe

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced window (see ``perfbench/spans.py``).  Every
metric is printed by name with its unit, then the host fingerprint, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when an oracle gate failed.  Each run also writes its result,
with the fingerprint, to ``perfbench/out/`` (and, traced, its spans).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spec, stats  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

OUT = ROOT / "perfbench" / "out"


def fingerprint() -> dict:
    """The host facts a result is only comparable under."""
    from repro.storage.columns import active_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "column_backend": active_backend().kind,
        "repro_workers": os.environ.get("REPRO_WORKERS", ""),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(window, setup_times, tally, rss) -> dict:
    return {
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": rss,
        "ok_share": tally.ok_share,
        "op_ms_p50": stats.median(window.latencies) * 1e3,
        "throughput_per_s": window.work / window.busy,
        "visible_lag_ms_p50": stats.median(window.lags) * 1e3,
        "fresh_share": window.fresh_share,
    }


def traced(workload, untraced_window, tally, notes) -> dict:
    """A second window under the span recorder; its per-layer metrics."""
    import threading

    from perfbench import spans
    from perfbench.workloads import Tracing

    recorder = spans.Recorder()
    installation = spans.install(recorder)
    try:
        state, _ = workload.setup()
        gc.collect()
        recorder.active = True
        window = workload.window(state, tally, Tracing(recorder))
        recorder.active = False
        workload.check(state, window, tally)
        workload.close(state)
    finally:
        recorder.active = False
        installation.remove()
    recorded = recorder.spans()
    metrics = spans.layer_metrics(
        recorder,
        recorded,
        op_name="bench.op",
        ops=window.ops,
        wall_seconds=window.wall,
        main_thread=threading.get_ident(),
    )
    metrics["serving.queue_peak"] = window.extras.get("queue_peak", 0)
    metrics["bench.generator_late_ms_p99"] = (
        stats.percentile(window.late, 99) * 1e3 if window.late else 0.0
    )
    metrics["bench.op_ms_tail"] = (
        stats.percentile(untraced_window.latencies, workload.TAIL) * 1e3
    )
    metrics["trace.overhead_share"] = (
        stats.median(window.latencies) / stats.median(untraced_window.latencies) - 1.0
    )
    notes.append(f"{len(recorded)} spans; time per operation span, children included:")
    for name, ms in sorted(spans.inclusive_ms(recorded, "bench.op").items()):
        notes.append(f"  {name:40s} {ms:12.4f} ms")
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"spans-{workload.name}-seed{workload.seed}.json")
    return {name: metrics[name] for name in spec.per_layer_names()}


def sample_notes(window, tail) -> list:
    notes = [
        f"operation ms: p{tail:g} {stats.percentile(window.latencies, tail) * 1e3:.6g} "
        f"(not end-to-end: see bench.op_ms_tail)",
        f"raw operation ms: p50 {stats.percentile(window.raw, 50) * 1e3:.4g}, "
        f"p{tail:g} {stats.percentile(window.raw, tail) * 1e3:.4g}; host speed factor "
        f"median {stats.median(window.speeds):.3f} (min {min(window.speeds):.3f}, "
        f"max {max(window.speeds):.3f})"
    ]
    for label, values in (("operation", window.latencies), ("visible lag", window.lags)):
        highest = stats.supported_tail(len(values))
        supported = f"p{highest:g}" if highest is not None else "none above the median"
        notes.append(
            f"{label} samples: n={len(values)}; highest percentile with >= "
            f"{stats.MIN_BEYOND} samples beyond it: {supported}"
        )
    return notes


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        # Never fall back to an installed copy: the benchmark measures the
        # source tree it sits in.
        print(f"no src/repro under {ROOT}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, Tracing

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print the metric catalogue")
    args = parser.parse_args(argv)
    if args.describe:
        print(spec.describe())
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.prepare()
    setup_times, state = [], None
    for _ in range(1 if args.trace else SETUPS):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        state, seconds = workload.setup()
        setup_times.append(seconds)
    gc.collect()
    tally = stats.Tally()
    window = workload.window(state, tally, Tracing())
    notes = sample_notes(window, workload.TAIL)
    if args.trace:
        # The traced run checks its own, traced window instead.
        workload.close(state)
        metrics = traced(workload, window, tally, notes)
    else:
        rss = peak_rss_mb()  # before the oracle's recomputation
        workload.check(state, window, tally)
        workload.close(state)
        metrics = end_to_end(window, setup_times, tally, rss)

    units = spec.units()
    host = fingerprint()
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    for note in notes:
        print(note)
    for reason in tally.reasons:
        print(f"ORACLE GATE FAILED: {reason}")
    print("host:", json.dumps(host, sort_keys=True))

    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=host, notes=notes)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
