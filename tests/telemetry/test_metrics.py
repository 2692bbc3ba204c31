"""Metrics registry: recording semantics, Prometheus text, validation.

The exposition linter is itself under test here — CI trusts it to
reject malformed snapshots, so it must both pass the registry's own
output and catch seeded violations.
"""

from __future__ import annotations

import pytest

from repro.obs.histograms import Log2Histogram
from repro.telemetry.metrics import MetricsRegistry, validate_prometheus_text


class TestRecording:
    def test_counter_accumulates_per_label_set(self):
        r = MetricsRegistry()
        r.counter("cells", status="ran")
        r.counter("cells", 2, status="ran")
        r.counter("cells", status="cached")
        assert r.counter_value("cells", status="ran") == 3
        assert r.counter_value("cells", status="cached") == 1
        assert r.counter_value("cells", status="failed") == 0

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError, match=">= 0"):
            MetricsRegistry().counter("cells", -1)

    def test_gauge_takes_latest_value(self):
        r = MetricsRegistry()
        r.gauge("pool_workers", 4)
        r.gauge("pool_workers", 2)
        [series] = r.to_json_dict()["pool_workers"]["series"]
        assert series["value"] == 2

    def test_observe_builds_log2_histogram(self):
        r = MetricsRegistry()
        for v in (100, 1000, 1_000_000):
            r.observe("wall_ns", v, status="ran")
        h = r.histogram("wall_ns", status="ran")
        assert isinstance(h, Log2Histogram)
        assert h.count == 3 and h.total == 1_001_100

    def test_kind_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x", 1)

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().counter("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            MetricsRegistry().counter("ok", **{"bad-label": "v"})
        with pytest.raises(ValueError, match="prefix"):
            MetricsRegistry(prefix="0bad")


class TestPrometheusText:
    def _registry(self) -> MetricsRegistry:
        r = MetricsRegistry()
        r.counter("cells", 3, help="settled cells", status="ran")
        r.gauge("pool_workers", 2, help="pool size")
        for v in (0, 1, 5, 900, 70_000):
            r.observe("wall_ns", v, help="shard wall")
        return r

    def test_own_output_passes_validator(self):
        assert validate_prometheus_text(self._registry().to_prometheus()) == []

    def test_counters_get_total_suffix(self):
        text = self._registry().to_prometheus()
        assert '# TYPE repro_harness_cells counter' in text
        assert 'repro_harness_cells_total{status="ran"} 3' in text

    def test_histogram_buckets_cumulative_with_inf(self):
        text = self._registry().to_prometheus()
        # 0 -> le="0"; 1 -> le="1"; 5 -> le="7"; 900 -> le="1023";
        # 70_000 -> le="131071"; then +Inf == _count.
        assert 'repro_harness_wall_ns_bucket{le="0"} 1' in text
        assert 'repro_harness_wall_ns_bucket{le="1"} 2' in text
        assert 'repro_harness_wall_ns_bucket{le="7"} 3' in text
        assert 'repro_harness_wall_ns_bucket{le="+Inf"} 5' in text
        assert 'repro_harness_wall_ns_sum 70906' in text
        assert 'repro_harness_wall_ns_count 5' in text

    def test_label_values_escaped(self):
        r = MetricsRegistry()
        r.counter("c", spec='quo"te\nnl')
        text = r.to_prometheus()
        assert '\\"' in text and "\\n" in text
        assert validate_prometheus_text(text) == []

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestValidator:
    def test_sample_without_type_flagged(self):
        errors = validate_prometheus_text("orphan_metric 3\n")
        assert any("no preceding TYPE" in e for e in errors)

    def test_non_cumulative_buckets_flagged(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="3"} 2\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 9\nh_count 5\n"
        )
        assert any("non-cumulative" in e for e in validate_prometheus_text(text))

    def test_missing_inf_bucket_flagged(self):
        text = '# TYPE h histogram\nh_bucket{le="1"} 1\nh_sum 1\nh_count 1\n'
        assert any("+Inf" in e for e in validate_prometheus_text(text))

    def test_non_numeric_value_flagged(self):
        errors = validate_prometheus_text("# TYPE g gauge\ng not_a_number\n")
        assert any("non-numeric" in e for e in errors)


class TestJsonAndMerge:
    def test_json_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("cells", 2, help="h", status="ran")
        snap = r.to_json_dict()
        assert snap == {
            "cells": {
                "type": "counter",
                "help": "h",
                "series": [{"labels": {"status": "ran"}, "value": 2}],
            }
        }

    def test_merge_adds_counters_and_merges_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("cells", 2)
        b.counter("cells", 3)
        a.observe("wall_ns", 10)
        b.observe("wall_ns", 1000)
        a.merge(b)
        assert a.counter_value("cells") == 5
        h = a.histogram("wall_ns")
        assert h.count == 2 and h.total == 1010


# Under ``python -O`` bare ``assert``s vanish. The child runs the
# histogram type checks and the grid's telemetry settle path with
# assertions stripped: the checks must still raise, and the settle path
# must still record.
_OPTIMIZED = """
assert False, "assert statements must be stripped in this child"
from repro.config import TickMode
from repro.experiments.parallel import RunSpec, WorkloadSpec, run_grid
from repro.telemetry import HarnessTelemetry
from repro.telemetry.metrics import MetricsRegistry

r = MetricsRegistry()
r.observe("wall_ns", 5, status="ran")
[m] = r._metrics.values()
m.series[next(iter(m.series))] = 7
for call in (r.to_prometheus, lambda: MetricsRegistry().merge(r)):
    try:
        call()
    except TypeError as e:
        print("raised:", e)

tel = HarnessTelemetry()
spec = RunSpec(WorkloadSpec.make("micro.pingpong", rounds=10, work_cycles=10_000),
               tick_mode=TickMode.PARATICK, noise=False)
run_grid([spec], jobs=1, use_cache=False, telemetry=tel)
print("settled:", tel.metrics.counter_value("cells", status="ran"))
"""


def test_checks_hold_under_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == [
        "raised: histogram 'wall_ns' series {'status': 'ran'} holds a int, "
        "not a Log2Histogram",
    ] * 2
    assert lines[2] == "settled: 1"
