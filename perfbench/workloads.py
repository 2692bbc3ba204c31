"""The benchmark's workloads: inputs from the seed, one batch, checks.

Every workload turns ``--seed`` into inputs with :meth:`Workload.setup`,
runs them once per :meth:`Workload.run_batch`, and returns the settled
cells with their host seconds and result digests. A run repeats batches
on the same inputs until its time is up.

How the seed reaches each workload's generator:

* ``parsec-large`` and ``fuzz-sanitized``: the cells are fixed and the
  seed only shuffles the order they run in. Their cost depends on the
  simulation seed (fuzz scenario kinds differ by more than 10x), so other
  cells would measure a different load, not the same one again.
* ``fleet-pool`` and ``matrix-warm``: ``variant = seed % VARIANTS`` picks
  the input set. The rack matrix runs with ``seeds = [variant]``, the
  perturbation matrix with ``seeds = [2 * variant, 2 * variant + 1]``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from measure import Cell, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_DIR = HERE / "expected"
INPUTS_DIR = HERE / "inputs"

#: Distinct input sets per workload; ``--seed`` picks ``seed % VARIANTS``.
VARIANTS = 8
DEFAULT_SEED = 0
#: Never run while the benchmark was tuned; re-check later claims on it.
HELD_OUT_SEED = 7

#: Paper Table 3, large row: paratick vs tickless, in percent.
PAPER_LARGE_EXITS_PCT = -44.0
PAPER_LARGE_THROUGHPUT_PCT = 16.0


def variant(seed: int) -> int:
    return seed % VARIANTS


def program_env() -> dict:
    """Environment for a child process that imports the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Batch:
    """One pass over a workload's inputs."""

    cells: list[Cell]
    wall_s: float
    #: Results of the model runs, for deterministic per-layer counts.
    results: list = field(default_factory=list)
    #: Workload-specific figures (sanitizer records, CLI seconds, ...).
    notes: dict = field(default_factory=dict)
    #: Independent per-cell timings, when cells were not timed one by one.
    samples: Optional[list[float]] = None

    def cell_seconds(self) -> list[float]:
        return self.samples if self.samples is not None else [c.seconds for c in self.cells]


def metrics_digest(metrics) -> str:
    return digest(metrics.to_json_dict())


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""
    #: Batches per pass of a traced run (the untraced pass runs as many).
    trace_batches = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.expected: dict[str, str] = self.load_expected().get(self.expected_key(), {})

    def expected_key(self) -> str:
        return str(variant(self.seed))

    def load_expected(self) -> dict:
        path = EXPECTED_DIR / f"{self.name}.json"
        if not path.exists():
            return {}
        return json.loads(path.read_text())

    def setup(self, workdir: Path) -> Any:
        """All set-up work: imports, spec generation, cache fill."""
        raise NotImplementedError

    def inputs(self, setup_dir: Path) -> Any:
        """The inputs of a set-up already done in ``setup_dir``."""
        return self.setup(setup_dir)

    def run_batch(self, inputs: Any, workdir: Path, rec=None) -> Batch:
        raise NotImplementedError

    def overhead_metrics(self, inputs: Any, batch: Batch) -> tuple[dict, list[Cell]]:
        """Extra untraced measurements a traced run reports, with the
        cells they ran."""
        return {}, []


def _grid_cells(grid, specs, durations) -> list[Cell]:
    cells = []
    failed = {f.spec: f for f in grid.failed_specs}
    for spec in specs:
        label = spec.display_label()
        result = grid.results.get(spec)
        if result is None:
            err = failed[spec].error if spec in failed else "no result"
            cells.append(Cell(label, durations.get(spec, 0.0), None, False, err))
        else:
            cells.append(Cell(label, durations.get(spec, 0.0), metrics_digest(result)))
    return cells


def _timed_grid(specs, cache_dir: Path, jobs: int):
    from repro.experiments.parallel import run_grid

    durations = {}

    def progress(event) -> None:
        if event.status == "ran":
            durations[event.spec] = event.duration_s

    t0 = time.perf_counter()
    grid = run_grid(specs, jobs=jobs, cache_dir=cache_dir, progress=progress)
    return grid, durations, time.perf_counter() - t0


class ParsecLarge(Workload):
    """Table 3 large: tickless vs paratick PARSEC at 64 vCPUs, 4 sockets."""

    name = "parsec-large"
    #: A fixed subset of the 13 benchmarks, the default seed and budget of
    #: ``python -m repro table3``. Several passes fit in a run, and these
    #: cells' costs lie close together, so the median cell is stable.
    BENCHES = ("canneal", "ferret", "freqmine", "raytrace", "vips", "x264")

    def expected_key(self) -> str:
        return "fixed"

    def setup(self, workdir: Path):
        from repro.experiments.parallel import WorkloadSpec, ab_specs
        from repro.experiments.scenarios import VM_SIZES, pins_for_size
        from repro.experiments.table3_fig5 import DEFAULT_BUDGETS

        size = next(s for s in VM_SIZES if s.name == "large")
        pins = pins_for_size(size)
        pairs = []
        for bench in self.BENCHES:
            ws = WorkloadSpec.make("parsec", name=bench, threads=size.vcpus,
                                   target_cycles=DEFAULT_BUDGETS["large"])
            pairs.append(ab_specs(ws, pinned_cpus=pins, label=f"large.{bench}"))
        return pairs

    def run_batch(self, pairs, workdir: Path, rec=None) -> Batch:
        specs = [s for pair in pairs for s in pair]
        random.Random(self.seed).shuffle(specs)
        cache = _fresh_dir(workdir / "cache")
        grid, durations, wall = _timed_grid(specs, cache, jobs=1)
        shutil.rmtree(cache, ignore_errors=True)
        batch = Batch(_grid_cells(grid, specs, durations), wall,
                      [grid.results[s] for s in specs if s in grid.results])
        if grid.complete:
            batch.notes.update(paper_error(grid, pairs))
        return batch


def paper_error(grid, pairs) -> dict:
    """Distance in percentage points of the simulated paratick effect
    from the paper's Table 3 large row (exits and throughput)."""
    from repro.metrics.aggregate import aggregate_improvements
    from repro.metrics.report import compare_runs

    agg = aggregate_improvements([compare_runs(grid[b], grid[c]) for b, c in pairs])
    exits, thr = agg.vm_exits * 100, agg.throughput * 100
    return {
        "exits_pct": exits,
        "throughput_pct": thr,
        "exits_err_pp": abs(exits - PAPER_LARGE_EXITS_PCT),
        "throughput_err_pp": abs(thr - PAPER_LARGE_THROUGHPUT_PCT),
    }


class FuzzSanitized(Workload):
    """Differential fuzz: each seed is 3 tick modes x solo/overcommit,
    every cell under TickSanitizer + StealTracker and reconciled."""

    name = "fuzz-sanitized"
    WINDOW = range(0, 40)

    def expected_key(self) -> str:
        return "window"

    def setup(self, workdir: Path):
        from repro.analysis import fuzz

        order = list(self.WINDOW)
        random.Random(self.seed).shuffle(order)
        return [fuzz.scenario_for_seed(s) for s in order]

    @staticmethod
    def _cell_id(scenario, mode, placement) -> str:
        return f"fuzz{scenario.seed}/{scenario.kind}/{mode.value}/{placement}"

    def run_batch(self, scenarios, workdir: Path, rec=None) -> Batch:
        from repro.analysis import fuzz

        captured: list[tuple] = []
        run_scenario = fuzz.run_scenario

        def timed(scenario, mode, *, placement=fuzz.SOLO, **kwargs):
            cid = self._cell_id(scenario, mode, placement)
            if rec is not None:
                rec.cell = cid
            t0 = time.perf_counter()
            out = run_scenario(scenario, mode, placement=placement, **kwargs)
            captured.append((cid, time.perf_counter() - t0, out[0]))
            return out

        cells: list[Cell] = []
        results = []
        events = 0
        t0 = time.perf_counter()
        fuzz.run_scenario = timed
        try:
            for scenario in scenarios:
                captured.clear()
                report = fuzz.fuzz_seed(scenario.seed)
                events += report.events
                problem = report.problems[0] if report.problems else ""
                for cid, secs, metrics in captured:
                    cells.append(Cell(cid, secs,
                                      metrics_digest(metrics) if metrics else None,
                                      report.ok, problem))
                    if metrics is not None:
                        results.append(metrics)
        finally:
            fuzz.run_scenario = run_scenario
            if rec is not None:
                rec.cell = None
        return Batch(cells, time.perf_counter() - t0, results,
                     {"sanitizer_records": events})

    def overhead_metrics(self, scenarios, batch: Batch) -> tuple[dict, list[Cell]]:
        """Sanitized over unsanitized cell time on the same scenarios.

        The unsanitized runs are checked against the same digests: an
        attached sanitizer must not change a result.
        """
        from repro.analysis import fuzz
        from repro.config import TickMode
        from repro.experiments.runner import run_workload

        cells = []
        for scenario in scenarios:
            for placement in (fuzz.SOLO, fuzz.OVERCOMMIT):
                for mode in TickMode:
                    workload = scenario.make_workload()
                    mspec, pinned = fuzz.placement_for(workload.default_vcpus(), placement)
                    cid = self._cell_id(scenario, mode, placement)
                    t0 = time.perf_counter()
                    metrics = run_workload(
                        workload, tick_mode=mode, machine_spec=mspec,
                        pinned_cpus=pinned, tick_hz=scenario.tick_hz,
                        seed=scenario.seed, noise=scenario.noise,
                        cpuidle=scenario.cpuidle, horizon_ns=scenario.horizon_ns,
                        label=cid,
                    )
                    cells.append(Cell(cid, time.perf_counter() - t0, metrics_digest(metrics)))
        sanitized = sum(c.seconds for c in batch.cells)
        return {"analysis.overhead_x": sanitized / sum(c.seconds for c in cells)}, cells


def _matrix_text(template: str, seeds: list[int]) -> str:
    text = (INPUTS_DIR / template).read_text()
    return re.sub(r"(?m)^seeds = \[.*\]$", f"seeds = {seeds}", text, count=1)


class FleetPool(Workload):
    """A cold 16-host rack x 3 tick modes through the 2-worker pool."""

    name = "fleet-pool"
    JOBS = 2

    def setup(self, workdir: Path):
        from repro.fleet.run import group_host_cells
        from repro.scenarios.matrix import parse_matrix

        mx = parse_matrix(_matrix_text("rack.toml", [variant(self.seed)]),
                          origin="rack.toml")
        return group_host_cells(mx.expand())

    def run_batch(self, groups, workdir: Path, rec=None) -> Batch:
        from repro.fleet.aggregate import aggregate_hosts, fleet_bytes

        specs = [s for group in groups.values() for s in group]
        cache = _fresh_dir(workdir / "cache")
        t0 = time.perf_counter()
        grid, durations, _ = _timed_grid(specs, cache, jobs=self.JOBS)
        cells = _grid_cells(grid, specs, durations)
        aggregates = {
            f"{key}#aggregate": digest(json.loads(fleet_bytes(
                aggregate_hosts([grid.results[s] for s in group]))))
            for key, group in groups.items()
            if all(s in grid.results for s in group)
        }
        wall = time.perf_counter() - t0
        shutil.rmtree(cache, ignore_errors=True)
        by_id = {c.id: c for c in cells}
        for key, group in groups.items():
            got = aggregates.get(f"{key}#aggregate")
            want = self.expected.get(f"{key}#aggregate")
            if got is not None and got != want:
                for s in group:
                    cell = by_id[s.display_label()]
                    cell.ok = False
                    cell.problem = f"fleet aggregate {key}: digest {got} != expected {want}"
        retries = sum(grid.report.retries.values()) if grid.report else 0
        return Batch(cells, wall, [grid.results[s] for s in specs if s in grid.results],
                     {"retries": retries, "aggregates": aggregates})


@dataclass
class WarmInputs:
    matrix: Path
    cache: Path
    #: Cell ids in the order the CLI prints them.
    ids: list[str]
    #: Per-cell lines the cold fill printed; a warm run must print the same.
    lines: list[str]
    #: Cell id -> digest of the cached result the cold fill left behind.
    digests: dict[str, str]


def _cli_args(inputs_matrix: Path, cache: Path) -> list[str]:
    return ["--cache-dir", str(cache), "--quiet-progress", "matrix", "run",
            str(inputs_matrix)]


def _cell_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith("[")]


class MatrixWarm(Workload):
    """Fresh ``python -m repro matrix run`` processes on a warm cache."""

    name = "matrix-warm"
    trace_batches = 5

    def setup(self, workdir: Path):
        from repro.cli import main

        v = variant(self.seed)
        workdir.mkdir(parents=True, exist_ok=True)
        matrix = workdir / "perturbations.toml"
        matrix.write_text(_matrix_text("perturbations.toml", [2 * v, 2 * v + 1]))
        cache = _fresh_dir(workdir / "cache")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(_cli_args(matrix, cache))
        if rc != 0:
            raise RuntimeError(f"cold matrix fill exited {rc}")
        (workdir / "cold.txt").write_text(out.getvalue())
        return self.inputs(workdir)

    def inputs(self, setup_dir: Path) -> WarmInputs:
        from repro.experiments.parallel import ResultCache
        from repro.scenarios.matrix import load_matrix

        matrix = setup_dir / "perturbations.toml"
        cache = ResultCache(setup_dir / "cache")
        cells = load_matrix(matrix).expand()
        digests = {}
        for cell in cells:
            result = cache.load(cell.spec)
            if result is not None:
                digests[cell.id] = metrics_digest(result)
        return WarmInputs(matrix, setup_dir / "cache", [c.id for c in cells],
                          _cell_lines((setup_dir / "cold.txt").read_text()), digests)

    def run_batch(self, inputs: WarmInputs, workdir: Path, rec=None) -> Batch:
        n = len(inputs.ids)
        if rec is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            dump = workdir / "cli-trace.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--traced-cli", str(dump), "--"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + _cli_args(inputs.matrix, inputs.cache),
                              cwd=ROOT, env=program_env(), capture_output=True,
                              text=True, timeout=170)
        wall = time.perf_counter() - t0
        problem = ""
        if proc.returncode != 0:
            problem = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        elif f"{n} cell(s), {n} cached, 0 executed" not in proc.stdout:
            problem = "not every cell was served from the cache"
        elif _cell_lines(proc.stdout) != inputs.lines:
            problem = "per-cell output differs from the cold fill"
        notes = {"cli_s": wall}
        if rec is not None and dump.exists():
            doc = json.loads(dump.read_text())
            rec.merge_totals(doc["totals"], doc["counts"])
            if not rec.spans:  # keep the first process's spans for the dump
                rec.spans.extend(tuple(s) for s in doc["spans"])
            notes["import_s"] = doc["import_s"]
            dump.unlink()
        cells = [Cell(cid, wall / n, inputs.digests.get(cid), not problem, problem)
                 for cid in inputs.ids]
        # One CLI process settles every cell: one amortized sample.
        return Batch(cells, wall, [], notes, samples=[wall / n])


WORKLOADS = {w.name: w for w in (ParsecLarge, FuzzSanitized, FleetPool, MatrixWarm)}
