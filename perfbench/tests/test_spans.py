"""The span recorder and its wrappers, against a fake clock."""

import itertools
import json
import threading
from pathlib import Path

import pytest

from perfbench import spans, spec, stats


def fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_nested_spans_record_their_parent():
    recorder = spans.Recorder(clock=fake_clock())
    recorder.active = True
    with recorder.span("op"):
        with recorder.span("layer"):
            pass
        with recorder.span("layer"):
            pass
    recorded = recorder.spans()
    assert [(s[0], s[3]) for s in recorded] == [("op", -1), ("layer", 0), ("layer", 0)]
    # op 0..5, children 1..2 and 3..4.
    assert stats.self_time_by_name(recorded) == {"op": 3.0, "layer": 2.0}


def test_inactive_recorder_records_nothing():
    recorder = spans.Recorder()
    with recorder.span("op"):
        recorder.count("rows", 3)
    assert recorder.spans() == [] and recorder.counter("rows") == 0.0


def test_threads_keep_separate_parent_stacks():
    recorder = spans.Recorder()
    recorder.active = True

    def work():
        with recorder.span("daemon"):
            with recorder.span("layer"):
                pass

    with recorder.span("op"):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    recorded = recorder.spans()
    by_name = {s[0]: s for s in recorded}
    assert by_name["daemon"][3] == -1  # a root on its own thread
    assert recorded[by_name["layer"][3]][0] == "daemon"
    assert by_name["daemon"][4] != by_name["op"][4]


class Target:
    def work(self, rows, extra=None):
        return len(rows)

    @classmethod
    def build(cls, rows):
        return list(rows)


def test_wrappers_record_spans_and_counts_and_are_removed():
    recorder = spans.Recorder()
    installation = spans.Installation(recorder)
    original = Target.__dict__["work"]
    installation.wrap(
        Target, "work", "layer.work", lambda rec, args, kwargs, result: rec.count("rows", result)
    )
    installation.wrap(Target, "build", "layer.build")
    recorder.active = True
    assert Target().work([1, 2, 3]) == 3
    assert Target.build((1, 2)) == [1, 2]
    recorder.active = False
    Target().work([1])  # not recorded while inactive
    assert [s[0] for s in recorder.spans()] == ["layer.work", "layer.build"]
    assert recorder.counter("rows") == 3
    installation.remove()
    assert Target.__dict__["work"] is original
    assert isinstance(Target.__dict__["build"], classmethod)


def test_install_wraps_the_repro_layers_and_restores_them():
    from repro.engine.database import Database
    from repro.storage.columns import active_backend

    before = (Database.__dict__["update_view"], active_backend().__dict__["from_rows"])
    installation = spans.install(spans.Recorder())
    assert Database.__dict__["update_view"] is not before[0]
    installation.remove()
    assert (Database.__dict__["update_view"], active_backend().__dict__["from_rows"]) == before


def test_layer_metrics_cover_every_per_layer_metric():
    recorder = spans.Recorder()
    metrics = spans.layer_metrics(
        recorder, [], op_name="bench.op", ops=0, wall_seconds=1.0, main_thread=0
    )
    # run.py adds the four measured by the benchmark itself.
    added = {
        "serving.queue_peak",
        "bench.op_ms_tail",
        "bench.generator_late_ms_p99",
        "trace.overhead_share",
    }
    assert set(metrics) | added == set(spec.per_layer_names())


def test_layer_metrics_normalize_per_operation():
    recorder = spans.Recorder(clock=fake_clock())
    recorder.active = True
    for _ in range(2):
        with recorder.span("bench.op"):
            with recorder.span("engine.view_merge"):
                recorder.count("engine.view_rows_merged", 10)
    recorded = recorder.spans()
    metrics = spans.layer_metrics(
        recorder, recorded, op_name="bench.op", ops=2, wall_seconds=1.0, main_thread=threading.get_ident()
    )
    assert metrics["engine.view_merge_ms"] == pytest.approx(1000.0)  # 1 tick = 1 s
    assert metrics["engine.view_rows_merged"] == 10
    assert metrics["trace.coverage"] == pytest.approx(1 / 3)


def test_benchmark_json_matches_the_catalogue():
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    assert json.loads(path.read_text()) == spec.benchmark_json()


def test_catalogue_respects_the_format_limits():
    import re

    doc = spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    units = [m["unit"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
