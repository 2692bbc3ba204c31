"""Experiment runners: one module per paper table/figure, plus scenario
helpers, the A/B comparison driver, the parallel grid engine and the
ablation suite."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    parallel="GridResult RunSpec WorkloadSpec run_grid",
    runner="run_comparison run_replicated_comparison run_workload",
)

__all__ = [
    "run_workload",
    "run_comparison",
    "run_replicated_comparison",
    "RunSpec",
    "WorkloadSpec",
    "GridResult",
    "run_grid",
]
