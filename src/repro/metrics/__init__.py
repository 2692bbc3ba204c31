"""Measurement: exit counters, perf-style reports and aggregation.

Mirrors what the paper measured with ``perf`` (§6): VM exits (split by
reason and semantic tag), CPU cycles as the system-throughput proxy, and
application execution time.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    counters="ExitCounters ExitRecordKey",
    perf="RunMetrics collect_metrics",
    report="Comparison compare_runs format_table",
    aggregate="aggregate_improvements merge_run_metrics",
)

__all__ = [
    "merge_run_metrics",
    "ExitCounters",
    "ExitRecordKey",
    "collect_metrics",
    "RunMetrics",
    "Comparison",
    "compare_runs",
    "format_table",
    "aggregate_improvements",
]
