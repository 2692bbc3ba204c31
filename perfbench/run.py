#!/usr/bin/env python3
"""Benchmark of the paratick simulator, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload parsec-large --seed 0 --seconds 25 --trace 0

``--trace 0`` sets the workload up several times in fresh processes,
then repeats batches of its fixed input for ``--seconds`` and reports
the end-to-end metrics. ``--trace 1`` runs the same batch untraced and
then traced (every layer's functions wrapped by :mod:`layers`), reports
the per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.

Every cell's result is checked against the digest recorded for its seed
in ``perfbench/expected/``; a mismatch counts as a failed cell. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from measure import failures, percentile, supports  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, MatrixWarm, program_env, variant)

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: The metrics of ``--trace 0``, as BENCHMARK.json lists them.
END_TO_END = {"setup_s": "s", "cells_per_s": "1/s", "cell_s.p50": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}); seed {HELD_OUT_SEED} is held "
                         f"out for re-checking claims")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="do the workload's set-up into DIR and exit (used for setup_s)")
    ap.add_argument("--traced-cli", metavar="DUMP",
                    help="run `python -m repro` with the arguments after `--` under "
                         "tracing and write the span totals to DUMP")
    args, rest = ap.parse_known_args(argv)
    if args.traced_cli is None and rest:
        ap.error(f"unrecognized arguments: {' '.join(rest)}")
    if args.traced_cli is None and args.workload is None:
        ap.error("--workload is required")
    args.rest = rest[1:] if rest[:1] == ["--"] else rest
    return args


def traced_cli(dump: str, argv: list[str]) -> int:
    """One CLI process with every layer wrapped (matrix-warm's traced run)."""
    t0 = time.perf_counter()
    from repro.cli import main as cli_main

    import_s = time.perf_counter() - t0
    rec = SpanRecorder()
    worker_dir = Path(dump).parent / "cli-workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    layers.install(rec, str(worker_dir))
    rc = cli_main(argv)
    Path(dump).write_text(json.dumps(
        {"import_s": import_s, "totals": rec.totals, "counts": rec.counts,
         "spans": rec.spans}))
    return rc


def run_for(wl, inputs, workdir: Path, seconds: float, rec=None, batches=None):
    """Repeat batches until another would end past ``seconds``, or run
    exactly ``batches`` of them."""
    out = []
    t0 = time.perf_counter()
    while True:
        batch = wl.run_batch(inputs, workdir, rec)
        if rec is None:
            # Only traced runs read the results; keeping them would make
            # peak RSS grow with the number of batches a run fits.
            batch.results = []
        out.append(batch)
        if batches is not None:
            if len(out) >= batches:
                return out
            continue
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(out) > seconds:
            return out


def setup_times(wl, seed: int, workdir: Path) -> tuple[list[float], Path]:
    """Seconds from spawn to exit of :data:`SETUP_REPS` fresh set-ups;
    the last one's directory is kept for the run."""
    times = []
    for rep in range(SETUP_REPS):
        target = workdir / f"setup{rep}"
        if rep:
            shutil.rmtree(workdir / f"setup{rep - 1}", ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl.name,
             "--seed", str(seed), "--setup-only", str(target)],
            cwd=ROOT, env=program_env(), check=True, timeout=170,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times, target


def reap_children() -> None:
    """Wait for every pool worker this process started."""
    for proc in multiprocessing.active_children():
        proc.join(30)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def check(wl, batches, more=()) -> tuple[int, list[str]]:
    cells = [c for b in batches for c in b.cells] + list(more)
    return len(cells), failures(cells, wl.expected)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def timed_run(wl, args, workdir: Path) -> tuple[dict, int, list[str]]:
    setups, setup_dir = setup_times(wl, args.seed, workdir)
    inputs = wl.inputs(setup_dir)
    batches = run_for(wl, inputs, workdir, args.seconds)
    reap_children()
    cells = [c for b in batches for c in b.cells]
    wall = sum(b.wall_s for b in batches)
    secs = [t for b in batches for t in b.cell_seconds()]
    attempted, failed = check(wl, batches)
    metrics = {
        "setup_s": statistics.median(setups),
        "cells_per_s": len(cells) / wall,
        "cell_s.p50": percentile(secs, 50),
        "peak_rss_mb": peak_rss_mb(),
    }

    n = len(secs)
    print(f"{wl.name}: seed {args.seed} (variant {variant(args.seed)}), "
          f"{len(batches)} batch(es), {len(cells)} cells in {wall:.3f} s")
    print(f"  setup_s            {fmt(metrics['setup_s'])} s   "
          f"(median of {len(setups)} fresh-process set-ups)")
    print(f"  cells_per_s        {fmt(metrics['cells_per_s'])} 1/s")
    print(f"  cell_s.p50         {fmt(metrics['cell_s.p50'])} s   (n={n})")
    if supports(n, 90):
        print(f"  cell_s.p90         {fmt(percentile(secs, 90))} s   (n={n})")
    else:
        print(f"  cell_s.p90         n/a (n={n}, fewer than 10 samples beyond p90)")
    cli = [b.notes["cli_s"] for b in batches if "cli_s" in b.notes]
    for p in (50, 90):
        if not cli:
            print(f"  cli_s.p{p}          n/a (matrix-warm only)")
        elif p == 50 or supports(len(cli), p):
            print(f"  cli_s.p{p}          {fmt(percentile(cli, p))} s   (n={len(cli)})")
        else:
            print(f"  cli_s.p{p}          n/a (n={len(cli)}, fewer than 10 samples beyond p90)")
    print(f"  peak_rss_mb        {fmt(metrics['peak_rss_mb'])} MB  (self + largest child)")
    print(f"  failed_share       {fmt(len(failed) / attempted)} share ({len(failed)}/{attempted})")
    err = batches[0].notes
    if "exits_err_pp" in err:
        print(f"  exits_err_pp       {err['exits_err_pp']:.2f} pp  (simulated "
              f"{err['exits_pct']:+.1f}% vs paper -44%, {len(wl.BENCHES)} of 13 benchmarks)")
        print(f"  throughput_err_pp  {err['throughput_err_pp']:.2f} pp  (simulated "
              f"{err['throughput_pct']:+.1f}% vs paper +16%)")
    else:
        print("  exits_err_pp       n/a (parsec-large only)")
        print("  throughput_err_pp  n/a (parsec-large only)")
    return metrics, attempted, failed


def traced_run(wl, args, workdir: Path, import_s: float) -> tuple[dict, int, list[str]]:
    inputs = wl.setup(workdir / "setup")
    plain = run_for(wl, inputs, workdir, args.seconds, batches=wl.trace_batches)
    untraced_s = sum(b.wall_s for b in plain)
    extra, extra_cells = wl.overhead_metrics(inputs, plain[0])

    rec = SpanRecorder()
    worker_dir = workdir / "workers"
    worker_dir.mkdir()
    inst = None if isinstance(wl, MatrixWarm) else layers.install(rec, str(worker_dir))
    try:
        if inst is not None:
            inputs = wl.setup(workdir / "setup-traced")
        traced = run_for(wl, inputs, workdir, args.seconds, rec=rec, batches=wl.trace_batches)
    finally:
        if inst is not None:
            inst.remove()
    reap_children()
    traced_s = sum(b.wall_s for b in traced)
    cli_imports = [b.notes["import_s"] for b in traced if "import_s" in b.notes]
    if cli_imports:
        import_s = statistics.median(cli_imports)
    extra["sanitizer_records"] = sum(b.notes.get("sanitizer_records", 0) for b in traced)
    metrics = layers.layer_metrics(
        rec, untraced_s=untraced_s, traced_s=traced_s, import_s=import_s,
        results=[m for b in traced for m in b.results], extra=extra)
    attempted, failed = check(wl, plain + traced, extra_cells)

    cells = sum(len(b.cells) for b in plain)
    dump = WORK / f"trace-{wl.name}-seed{args.seed}.json"
    rec.dump(dump, workload=wl.name, seed=args.seed, untraced_s=untraced_s,
             traced_s=traced_s, metrics=metrics)
    print(f"{wl.name}: seed {args.seed}, traced run of {len(traced)} batch(es), "
          f"{cells} cells per pass")
    print(f"  tracing overhead: traced {fmt(cells / traced_s)} cells/s vs untraced "
          f"{fmt(cells / untraced_s)} cells/s ({traced_s / untraced_s:.2f}x)")
    for name, value in metrics.items():
        unit, _better, moves, where = layers.PER_LAYER[name]
        print(f"  {name:36s} {fmt(value):>12s} {unit:6s} -> {moves} [{where}]")
    print(f"  spans: {len(rec.spans)} kept, {rec.dropped} beyond the cap, written to {dump}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.traced_cli:
        return traced_cli(args.traced_cli, args.rest)

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        wl.setup(Path(args.setup_only))
        return 0
    import repro.experiments.parallel  # noqa: F401  (fail before any work)

    import_s = time.perf_counter() - t0
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(wl, args, workdir, import_s)
            units = {k: v[0] for k, v in layers.PER_LAYER.items()}
        else:
            metrics, attempted, failed = timed_run(wl, args, workdir)
            units = END_TO_END
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failed[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
