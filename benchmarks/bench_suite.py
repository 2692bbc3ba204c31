"""Sim-core benchmark suite and perf-regression gate.

Standalone driver (no pytest-benchmark dependency) that measures the
simulation substrate's hot paths and the end-to-end experiment loop,
then emits ``BENCH_simcore.json``::

    PYTHONPATH=src python benchmarks/bench_suite.py                # print table
    PYTHONPATH=src python benchmarks/bench_suite.py --update      # rewrite baseline
    PYTHONPATH=src python benchmarks/bench_suite.py --check       # CI gate

``--check`` compares fresh ops/sec against the committed baseline
(``BENCH_simcore.json`` at the repo root) and fails when any bench loses
more than ``--threshold`` (default 20%) of its throughput. ``--output``
writes the fresh measurements as JSON (the CI job uploads it as an
artifact so the trajectory is recorded even on green runs).

The committed baseline is machine-dependent by nature; refresh it with
``--update`` on the reference runner whenever the hot path changes
intentionally (see docs/benchmarking.md for the workflow — speeding
things up also warrants an update, or the gate slowly goes blind).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_simcore.json"
SCHEMA = 1


# ---------------------------------------------------------------- benches


def bench_event_queue_throughput() -> dict:
    """100k chained schedule+dispatch events (mirrors
    benchmarks/bench_engine.py::test_event_queue_throughput)."""
    from repro.sim.engine import Simulator

    ops = 100_000

    def run() -> int:
        sim = Simulator()
        remaining = [ops]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(10, tick)

        sim.schedule(10, tick)
        sim.run()
        return sim.dispatched

    return _time_best(run, ops=ops, expect=ops)


def bench_rearm_churn() -> dict:
    """100k Simulator.rearm cycles on one handle — the periodic-tick /
    preemption-timer fast path introduced with the free-list engine."""
    from repro.sim.engine import Simulator

    ops = 100_000

    def run() -> int:
        sim = Simulator()
        remaining = [ops]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.rearm(handle, sim.now + 10)

        handle = sim.schedule(10, tick)
        sim.run()
        return sim.dispatched

    return _time_best(run, ops=ops, expect=ops)


def bench_cancel_rearm_storm() -> dict:
    """50k arm/cancel/re-arm triples: lazy-deletion + compaction path."""
    from repro.sim.engine import Simulator

    ops = 50_000

    def run() -> int:
        sim = Simulator()
        remaining = [ops]

        def fire():
            remaining[0] -= 1
            if remaining[0] > 0:
                ev = sim.schedule(20, fire)
                sim.cancel(ev)
                sim.schedule(10, fire)

        sim.schedule(10, fire)
        sim.run()
        return sim.dispatched

    return _time_best(run, ops=ops, expect=ops)


def bench_timer_wheel_churn() -> dict:
    """Add/advance/fire 20k wheel timers across levels."""
    from repro.guest.timerwheel import TimerWheel

    ops = 20_000

    def run() -> int:
        w = TimerWheel()
        for i in range(ops):
            w.add(1 + (i * 37) % 70_000, lambda: None)
        return len(w.advance_to(70_001))

    return _time_best(run, ops=ops, expect=ops)


def bench_timer_wheel_idle_query() -> dict:
    """``next_expiry()`` between adds, cancels and advances on a wheel
    holding a few live timers: the tickless idle-entry query, which
    timer_wheel_churn never makes."""
    from repro.guest.timerwheel import TimerWheel

    rounds = 5_000

    def run() -> int:
        w = TimerWheel()
        live = [w.add(64 ** level, lambda: None) for level in (1, 2, 3)]
        queries = 0
        for i in range(rounds):
            now = w.current_jiffies
            t = w.add(now + 2 + (i * 37) % 4_000, lambda: None)
            w.next_expiry()
            w.cancel(live[i % 3])
            live[i % 3] = t
            w.next_expiry()
            w.advance_to(now + 1)
            w.next_expiry()
            queries += 3
        return queries

    return _time_best(run, ops=3 * rounds, expect=3 * rounds)


def bench_hrtimer_queue_churn() -> dict:
    """Interleaved add/cancel/rearm/pop on the hrtimer heap."""
    from repro.guest.hrtimer import HrtimerQueue

    ops = 10_000

    def run() -> int:
        q = HrtimerQueue()
        handles = []
        for i in range(ops):
            handles.append(q.add((i * 13) % 50_000, lambda: None))
        for h in handles[::3]:
            q.cancel(h)
        for h in handles[::3]:
            q.rearm(h, h.expires_ns + 7)
        return len(q.pop_expired(50_007))

    return _time_best(run, ops=ops, expect=ops)


def _syncstorm(**kwargs):
    """The end-to-end sync-heavy tickless run the syncstorm benches share."""
    from repro.config import TickMode
    from repro.experiments.runner import run_workload
    from repro.workloads.micro import SyncStormWorkload

    return run_workload(
        SyncStormWorkload(threads=4, events_per_second=4000.0,
                          duration_cycles=60_000_000),
        tick_mode=TickMode.TICKLESS,
        seed=9,
        **kwargs,
    )


def _ungated(out: dict, ops: int, unit: str) -> dict:
    """Per-second rate of a deterministic count; recorded, never gated.

    End-to-end wall clock swings far more than the microbenches on a
    shared runner; record the trajectory but do not gate on it.
    """
    out["ops"] = ops
    out["ops_per_sec"] = round(ops / out["wall_s"], 1)
    out[unit] = ops
    out["gate"] = False
    return out


def bench_syncstorm_smoke() -> dict:
    """End-to-end experiment loop: sync-heavy workload, tickless mode.

    ops/sec here is *dispatched engine events* per wall-clock second —
    the figure the experiment sweeps are bottlenecked on.
    """
    dispatched = 0

    def grab(sim, machine, hv, vm) -> None:
        nonlocal dispatched
        dispatched = sim.dispatched

    def run() -> int:
        return _syncstorm(inspect=grab).total_exits

    out = _time_best(run, ops=None, repeats=3)
    return _ungated(out, dispatched, "dispatched")


def bench_sanitized_syncstorm() -> dict:
    """syncstorm_smoke under the full TickSanitizer battery: the cost of
    attached invariant checking. ops/sec is trace records checked per
    second; compare wall_s against syncstorm_smoke for the overhead."""
    from repro.analysis.checkers import TickSanitizer
    from repro.config import TickMode

    records = 0

    def run() -> int:
        nonlocal records
        sanitizer = TickSanitizer(mode=TickMode.TICKLESS)
        _syncstorm(tracer=sanitizer)
        if sanitizer.finish():
            raise AssertionError(f"sanitizer violations: {sanitizer.violations[:3]}")
        records = sanitizer.events
        return records

    out = _time_best(run, ops=None, repeats=3)
    return _ungated(out, records, "records")


def bench_ring_tracer_syncstorm() -> dict:
    """syncstorm_smoke with a RingTracer retaining every record: the
    cost of attached plain tracing. ops/sec is records offered per
    second."""
    from repro.sim.trace import RingTracer

    records = 0

    def run() -> int:
        nonlocal records
        ring = RingTracer()
        _syncstorm(tracer=ring)
        records = ring.offered
        return records

    out = _time_best(run, ops=None, repeats=3)
    return _ungated(out, records, "records")


def bench_fleet_host_smoke() -> dict:
    """End-to-end fleet shard: one overcommitted host packing 6 guests
    at oc4 with poisson arrivals, paratick mode.

    This is the unit the fleet layer fans out per host — its wall clock
    bounds how fast a rack sweeps through ``repro.experiments.parallel``.
    Like syncstorm_smoke, ops/sec is dispatched engine events per
    second and the bench records trajectory without gating.
    """
    from repro.config import TickMode
    from repro.fleet.hostsim import run_host
    from repro.sim.timebase import MSEC

    dispatched = 0

    def grab(sim, machine, hv, vms) -> None:
        nonlocal dispatched
        dispatched = sim.dispatched

    def run() -> int:
        metrics = run_host(
            guest_kind="micro.pingpong",
            guest_params={"rounds": 10, "work_cycles": 20_000,
                          "same_vcpu": False},
            guests=6,
            consolidation=4,
            tick_mode=TickMode.PARATICK,
            burst="poisson",
            burst_window_ns=2 * MSEC,
            seed=7,
            horizon_ns=400 * MSEC,
            inspect=grab,
        )
        return metrics.exits.total

    out = _time_best(run, ops=None, repeats=3)
    return _ungated(out, dispatched, "dispatched")


#: Runs the CLI with the given arguments, then prints how many ``repro``
#: modules the process loaded.
_COUNT_REPRO_MODULES = """\
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(rc, sum(m == "repro" or m.startswith("repro.") for m in sys.modules))
"""


def bench_cli_warm_matrix() -> dict:
    """Harness cold start: a fresh ``python -m repro matrix run`` process
    over examples/matrix_perturbations.toml on a warm cache.

    No model code runs; the wall clock is interpreter start, imports,
    matrix expansion, spec keys, cache probes, footer checks and result
    decoding. ops/sec is cells settled per second of process wall time;
    ``repro_modules`` (how many ``repro`` modules the process loads) is
    the deterministic count next to it.
    """
    import os
    import subprocess
    import sys
    import tempfile

    matrix = str(REPO_ROOT / "examples" / "matrix_perturbations.toml")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="bench-warm-matrix-") as cache:
        argv = ["--cache-dir", cache, "--quiet-progress", "matrix", "run", matrix]

        def cli(*args: str) -> str:
            return subprocess.run([sys.executable, *args], env=env, check=True,
                                  capture_output=True, text=True, timeout=600).stdout

        cli("-m", "repro", *argv)  # cold fill
        summary = next(line for line in cli("-m", "repro", *argv).splitlines()
                       if " cell(s), " in line)
        cells = int(summary.split(": ")[1].split()[0])
        if f"{cells} cell(s), {cells} cached, 0 executed" not in summary:
            raise AssertionError(f"warm rerun was not fully cached: {summary}")
        rc, modules = map(int, cli("-c", _COUNT_REPRO_MODULES, *argv).split())
        if rc != 0:
            raise AssertionError(f"warm rerun exited {rc}")

        def run() -> int:
            cli("-m", "repro", *argv)
            return cells

        out = _time_best(run, ops=None, repeats=5)
    out["repro_modules"] = modules
    return _ungated(out, cells, "cells")


BENCHES: dict[str, Callable[[], dict]] = {
    "event_queue_throughput": bench_event_queue_throughput,
    "rearm_churn": bench_rearm_churn,
    "cancel_rearm_storm": bench_cancel_rearm_storm,
    "timer_wheel_churn": bench_timer_wheel_churn,
    "timer_wheel_idle_query": bench_timer_wheel_idle_query,
    "hrtimer_queue_churn": bench_hrtimer_queue_churn,
    "syncstorm_smoke": bench_syncstorm_smoke,
    "sanitized_syncstorm": bench_sanitized_syncstorm,
    "ring_tracer_syncstorm": bench_ring_tracer_syncstorm,
    "fleet_host_smoke": bench_fleet_host_smoke,
    "cli_warm_matrix": bench_cli_warm_matrix,
}


def _time_best(run: Callable[[], int], *, ops: int | None,
               expect: int | None = None, repeats: int = 5) -> dict:
    """Best-of-N wall clock (min is the standard noise filter for
    throughput benches: interference only ever adds time)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run()
        dt = time.perf_counter() - t0
        best = min(best, dt)
    if expect is not None and result != expect:
        raise AssertionError(f"bench returned {result}, expected {expect}")
    out = {"wall_s": round(best, 6), "repeats": repeats}
    if ops is not None:
        out["ops"] = ops
        out["ops_per_sec"] = round(ops / best, 1)
    return out


# ------------------------------------------------------------------ driver


def run_suite(names: list[str] | None = None, progress: bool = True) -> dict:
    results: dict[str, dict] = {}
    for name, fn in BENCHES.items():
        if names and name not in names:
            continue
        results[name] = fn()
        if progress:
            r = results[name]
            print(f"  {name:<28} {r['wall_s']*1e3:9.1f} ms   "
                  f"{r.get('ops_per_sec', 0):>12,.0f} ops/s")
    return {"schema": SCHEMA, "benches": results}


def check(fresh: dict, baseline_path: Path, threshold: float) -> list[str]:
    """Compare fresh ops/sec to the committed baseline; list failures."""
    base = json.loads(baseline_path.read_text())
    if base.get("schema") != SCHEMA:
        return [f"baseline schema {base.get('schema')} != {SCHEMA}; re-run --update"]
    problems: list[str] = []
    for name, want in base["benches"].items():
        got = fresh["benches"].get(name)
        if got is None:
            problems.append(f"{name}: missing from fresh run")
            continue
        base_ops = want.get("ops_per_sec")
        fresh_ops = got.get("ops_per_sec")
        if not base_ops or not fresh_ops:
            continue
        if want.get("gate") is False:
            print(f"  ---  {name:<28} {fresh_ops:>12,.0f} ops/s "
                  f"(recorded, not gated)")
            continue
        ratio = fresh_ops / base_ops
        status = "OK " if ratio >= 1.0 - threshold else "FAIL"
        print(f"  {status} {name:<28} {fresh_ops:>12,.0f} ops/s "
              f"(baseline {base_ops:,.0f}, {ratio:5.2f}x)")
        if ratio < 1.0 - threshold:
            problems.append(
                f"{name}: throughput {fresh_ops:,.0f} ops/s is "
                f"{(1 - ratio) * 100:.1f}% below baseline {base_ops:,.0f} "
                f"(threshold {threshold * 100:.0f}%)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed baseline; exit 1 on regression")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the committed baseline from this run")
    ap.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    ap.add_argument("--output", type=Path, default=None,
                    help="also write fresh results to this JSON file")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="fractional throughput loss that fails --check (default 0.20)")
    ap.add_argument("--bench", action="append", default=None,
                    help="run only the named bench (repeatable)")
    args = ap.parse_args(argv)

    print("sim-core benchmark suite")
    fresh = run_suite(args.bench)

    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    if args.update:
        # Historical annotations (e.g. the pre-rewrite engine numbers)
        # survive baseline refreshes.
        if args.baseline.exists():
            prior = json.loads(args.baseline.read_text())
            if "reference" in prior:
                fresh["reference"] = prior["reference"]
        args.baseline.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote baseline {args.baseline}")
        return 0
    if args.check:
        print("perf-regression check:")
        problems = check(fresh, args.baseline, args.threshold)
        for p in problems:
            print(f"REGRESSION: {p}")
        print("perf gate:", "clean" if not problems else f"{len(problems)} regressions")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
