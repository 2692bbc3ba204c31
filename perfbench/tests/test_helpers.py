"""Tests of the benchmark's own helpers (no simulator needed except where noted).

    python -m pytest perfbench/tests
"""

import json
from pathlib import Path

import pytest

import layers
import run
from measure import Cell, digest, failures, percentile, supports
from spans import SpanRecorder, covered_ns, self_by_name, self_times

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- percentiles and sample counts ----------------------------------------

def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 50) == 7.0
    assert percentile([3, 1, 2], 50) == 2  # unsorted input


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n,p,ok", [
    (19, 50, False), (20, 50, True),
    (99, 90, False), (100, 90, True),
    (999, 99, False), (1000, 99, True),
])
def test_supports_needs_ten_samples_beyond(n, p, ok):
    assert supports(n, p) is ok


# -- self time -------------------------------------------------------------

def span(sid, start, end, parent=None, name="x"):
    return (sid, name, start, end, parent, None)


def test_covered_ns_merges_overlaps_and_clips():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 10), (5, 15)]) == 15
    assert covered_ns([(0, 10), (20, 30)]) == 20
    assert covered_ns([(0, 10), (2, 4)]) == 10  # nested
    assert covered_ns([(-5, 5), (95, 120)], 0, 100) == 10  # clipped


def test_self_time_nested_children():
    spans = [span(1, 0, 100), span(2, 10, 40, 1), span(3, 50, 60, 1), span(4, 15, 25, 2)]
    own = self_times(spans)
    assert own == {1: 100 - 30 - 10, 2: 30 - 10, 3: 10, 4: 10}
    # Self times of a properly nested tree add up to the root's duration.
    assert sum(own.values()) == 100


def test_self_time_overlapping_children_counts_union():
    # Two pool workers' cells overlap under one grid span.
    spans = [span(1, 0, 100, name="grid"), span(2, 10, 60, 1, "cell"),
             span(3, 40, 90, 1, "cell")]
    own = self_times(spans)
    assert own[1] == 100 - 80  # union [10, 90), not 50 + 50
    assert self_by_name(spans) == {"grid": 20, "cell": 100}


def test_recorder_matches_offline_self_times():
    import time as _time

    rec = SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner"):
            _time.sleep(0.001)
        with rec.span("inner"):
            pass
    online = {name: own for name, (_c, _t, own) in rec.totals.items()}
    assert online == self_by_name(rec.spans)
    assert rec.totals["inner"][0] == 2
    outer = next(s for s in rec.spans if s[1] == "outer")
    assert all(s[4] == outer[0] for s in rec.spans if s[1] == "inner")


def test_recorder_adopts_foreign_overlapping_children():
    rec = SpanRecorder()
    frame = rec.open()
    rec.adopt(frame, "cell", 10, 60, "a")
    rec.adopt(frame, "cell", 40, 90, "b")
    rec.close(frame, "grid", 0, 100)
    assert rec.totals["grid"] == [1, 100, 20]
    assert self_by_name(rec.spans)["grid"] == 20


def test_recorder_caps_kept_spans_but_not_totals():
    rec = SpanRecorder(keep=2)
    for _ in range(5):
        with rec.span("s"):
            pass
    assert len(rec.spans) == 2 and rec.dropped == 3
    assert rec.totals["s"][0] == 5


def test_dump_round_trips(tmp_path):
    rec = SpanRecorder()
    with rec.span("a"):
        pass
    rec.count("n", 3)
    rec.dump(tmp_path / "d.json", workload="w")
    doc = json.loads((tmp_path / "d.json").read_text())
    assert doc["workload"] == "w" and doc["counts"] == {"n": 3}
    assert doc["totals"]["a"]["calls"] == 1 and len(doc["spans"]) == 1


# -- correctness accounting --------------------------------------------------

def test_digest_mismatch_counts_as_failure():
    d = digest({"exits": 3})
    cells = [Cell("a", 0.1, d), Cell("b", 0.1, digest({"exits": 4}))]
    problems = failures(cells, {"a": d, "b": d})
    assert len(problems) == 1 and problems[0].startswith("b: digest")


def test_missing_result_failed_check_and_unknown_cell_fail():
    d = digest({"x": 1})
    cells = [Cell("none", 0.1, None), Cell("bad", 0.1, d, ok=False, problem="fuzz not ok"),
             Cell("new", 0.1, d), Cell("good", 0.1, d)]
    problems = failures(cells, {"none": d, "bad": d, "good": d})
    assert [p.split(":")[0] for p in problems] == ["none", "bad", "new"]


def test_digest_is_order_independent_and_short():
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})
    assert len(digest({})) == 16


# -- the benchmark definition agrees with the code ---------------------------

def test_benchmark_json_matches_metric_tables():
    doc = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        k: v[:2] for k, v in layers.PER_LAYER.items()}
    from workloads import WORKLOADS

    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_layer_metrics_cover_every_per_layer_metric():
    rec = SpanRecorder()
    out = layers.layer_metrics(rec, untraced_s=1.0, traced_s=2.0, import_s=0.1,
                               results=[], extra={})
    assert out.keys() == layers.PER_LAYER.keys()
    assert out["trace.overhead_x"] == 2.0
    assert out["experiments.import_s"] == 0.1
    others = {k: v for k, v in out.items()
              if k not in ("trace.overhead_x", "experiments.import_s")}
    assert set(others.values()) == {0}  # no layer reached reads 0
