"""Run and check expanded scenario cells.

Three entry points, all over the shared :class:`~repro.scenarios.matrix.Cell`
representation (hand-written matrices and fuzz expansions alike):

* :func:`check_cell` / :func:`check_cells` — serial **conformance** runs:
  every cell executes under the full :class:`~repro.analysis.checkers.TickSanitizer`
  (including the perturbation-aware suspend-span / restore-rearm /
  hotplug checkers) with a :class:`~repro.obs.steal.StealTracker` teed
  onto the same event stream, then goes through the reconcile battery.
* :func:`run_cells` — throughput path: compile to specs and hand the
  grid to :func:`repro.experiments.parallel.run_grid` (cache + workers).
* :func:`identity_problems` — the determinism gate: the same cells run
  serially, pooled, and from a warm cache must produce **byte-identical**
  canonical metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.experiments.parallel import GridResult, run_grid, run_spec
from repro.metrics.perf import RunMetrics
from repro.scenarios.matrix import Cell


@dataclass
class CellCheck:
    """Outcome of one sanitized cell run."""

    cell: Cell
    metrics: Optional[RunMetrics]
    problems: list[str]
    events: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def check_cell(cell: Cell) -> CellCheck:
    """Execute one cell serially under the sanitizer + reconcile battery.

    The run is :func:`repro.experiments.parallel.run_spec` (the grid's
    own spec mapping, labelled with the cell id when the spec has no
    label) inside :func:`repro.analysis.reconcile.sanitized_run`, so
    matrix cells and fuzz scenarios are checked to exactly the same
    standard.
    """
    from repro.analysis.reconcile import sanitized_run

    spec = cell.spec if cell.spec.label else cell.spec.with_(label=cell.id)
    metrics, sanitizer, problems = sanitized_run(
        lambda tracer, inspect: run_spec(spec, tracer=tracer, inspect=inspect),
        spec.tick_mode,
    )
    return CellCheck(cell, metrics, problems, events=sanitizer.events)


def check_cells(
    cells: Iterable[Cell],
    *,
    progress: Optional[Callable[[CellCheck], None]] = None,
    telemetry=None,
) -> list[CellCheck]:
    """Sanitize every cell; ``progress(check)`` is called per cell.

    ``telemetry`` records a ``check.cell`` span per cell on the
    ``sanitizer`` lane plus pass/fail counters; detached costs one
    boolean check per cell.
    """
    tel = telemetry if (telemetry is not None and telemetry.enabled) else None
    checks = []
    for cell in cells:
        if tel is not None:
            with tel.span("check.cell", lane="sanitizer", cell=cell.id) as attrs:
                check = check_cell(cell)
                attrs.update(ok=check.ok, events=check.events)
            tel.counter("cells_checked", help="sanitizer cells checked",
                        outcome="ok" if check.ok else "failed")
        else:
            check = check_cell(cell)
        checks.append(check)
        if progress is not None:
            progress(check)
    return checks


def run_cells(cells: Iterable[Cell], **grid_kwargs: Any) -> GridResult:
    """Run cells through the parallel engine (cache, workers, retries)."""
    return run_grid([c.spec for c in cells], **grid_kwargs)


def run_cells_resumable(
    cells: Iterable[Cell],
    *,
    journal=None,
    resume=None,
    **grid_kwargs: Any,
) -> GridResult:
    """:func:`run_cells` with crash-safe journaling and ``--resume``.

    ``journal`` (a path) records every cell's lifecycle durably;
    ``resume`` (a path) replays a previous journal, skipping completed
    cells after re-verifying their cached bytes. Resuming without a
    separate ``journal`` appends the new lifecycle to the resumed file
    — the common ``--resume run.journal`` shape. Raises
    :class:`~repro.resilience.journal.ResumeError` when the matrix no
    longer matches the journaled grid.
    """
    if resume is not None and journal is None:
        journal = resume
    return run_grid([c.spec for c in cells], journal=journal, resume=resume,
                    **grid_kwargs)


def canonical_result_bytes(result: Any) -> bytes:
    """Deterministic byte encoding of a run result (identity compares)."""
    from repro.experiments.parallel import encode_result

    return json.dumps(encode_result(result), sort_keys=True,
                      separators=(",", ":")).encode()


def identity_problems(
    cells: list[Cell],
    *,
    jobs: int = 2,
    cache_dir: str,
    progress: Optional[Callable[[Any], None]] = None,
) -> list[str]:
    """Check serial / pooled / cached execution agree byte-for-byte.

    Runs the grid three ways — serially without a cache, pooled without
    a cache, and pooled into ``cache_dir`` followed by a serial pass
    that must be served entirely from that cache — and compares each
    cell's canonical result bytes across all four readings.
    """
    specs = [c.spec for c in cells]
    serial = run_grid(specs, jobs=None, use_cache=False, progress=progress).raise_if_failed()
    pooled = run_grid(specs, jobs=jobs, use_cache=False, progress=progress).raise_if_failed()
    warm = run_grid(specs, jobs=jobs, cache_dir=cache_dir,
                    use_cache=True, progress=progress).raise_if_failed()
    cached = run_grid(specs, jobs=None, cache_dir=cache_dir,
                      use_cache=True, progress=progress).raise_if_failed()

    problems: list[str] = []
    if cached.cache_hits != len(set(specs)):
        problems.append(
            f"cache replay served {cached.cache_hits}/{len(set(specs))} "
            f"cells from the store"
        )
    for cell in cells:
        readings = {
            "serial": canonical_result_bytes(serial[cell.spec]),
            "pooled": canonical_result_bytes(pooled[cell.spec]),
            "warm": canonical_result_bytes(warm[cell.spec]),
            "cached": canonical_result_bytes(cached[cell.spec]),
        }
        reference = readings.pop("serial")
        for name, blob in readings.items():
            if blob != reference:
                problems.append(f"{cell.id}: {name} result differs from serial run")
    return problems
