"""Benchmark: Table 1 — periodic vs tickless exit counts (§3.3).

Regenerates the analytical table (must match the paper digit-for-digit)
and cross-checks W1/W3 on the full simulator.

Also runnable as a script (the parallel-engine smoke driver)::

    python benchmarks/bench_table1.py --jobs 4          # parallel sweep
    python benchmarks/bench_table1.py --jobs 4          # second run: cached
    python benchmarks/bench_table1.py --no-cache
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.perf

import sys
from pathlib import Path

if not __package__:  # script mode: make src/ and the repo root importable
    _root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(_root), str(_root / "src")]

from repro.core.model import TABLE1_PAPER
from repro.experiments import table1


def test_table1_analytical(benchmark):
    rows = benchmark(table1.analytical_rows)
    print("\n" + table1.render())
    for row in rows:
        assert (row.periodic, row.tickless) == (row.paper_periodic, row.paper_tickless), (
            f"{row.workload}: computed ({row.periodic}, {row.tickless}) != paper "
            f"({row.paper_periodic}, {row.paper_tickless})"
        )
    assert {r.workload for r in rows} == set(TABLE1_PAPER)


def test_table1_simulated_cross_check(benchmark):
    out = benchmark.pedantic(table1.simulated_cross_check, rounds=1, iterations=1)
    print("\nSimulated exits/s:", out)
    # W1 (idle, 16 vCPU, 250 Hz): periodic pays ~one exit per tick per
    # vCPU (4000/s); tickless is near-silent.
    assert 3_500 <= out["W1"]["periodic"] <= 4_600
    assert out["W1"]["tickless"] < 200
    # W3 (sync storm): the §3.3 reversal — tickless now exceeds periodic.
    assert out["W3"]["tickless"] > out["W3"]["periodic"]


def test_table1_w2_overcommitted_scaling(benchmark):
    """W2 = 4 x W1 with the vCPUs time-sharing physical CPUs: exits
    scale with the VM count even though the host is overcommitted 4:1 —
    the §3.1 throughput sink."""
    from repro.config import MachineSpec, TickMode
    from repro.experiments.overcommit import run_idle_overcommit
    from repro.sim.timebase import SEC, CpuClock

    def run():
        return {
            mode: run_idle_overcommit(
                mode, vms=4, vcpus_per_vm=16, pcpus=16, duration_ns=SEC // 2
            )
            for mode in (TickMode.PERIODIC, TickMode.TICKLESS)
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    per, nohz = out[TickMode.PERIODIC], out[TickMode.TICKLESS]
    cpu_time = CpuClock(MachineSpec().freq_hz).ns_to_cycles(per.exec_time_ns * 16)
    print(f"\nW2 simulated: periodic {per.exits_per_second():,.0f}/s "
          f"(busy {per.total_cycles / cpu_time:.1%}/CPU), "
          f"tickless {nohz.exits_per_second():,.0f}/s")
    # 64 idle vCPUs at 250 Hz -> ~16k exits/s under periodic ticks.
    assert 13_000 <= per.exits_per_second() <= 18_500
    assert nohz.exits_per_second() < 500


def main(argv: list[str] | None = None) -> int:
    """Script driver: the Table 1 reproduction through the grid engine."""
    import time

    from repro.experiments.parallel import progress_reporter
    from benchmarks._driver import grid_arg_parser, report_grid

    ap = grid_arg_parser(__doc__)
    ap.add_argument("--duration-ms", type=int, default=1000,
                    help="simulated milliseconds of W1/W3 per cell (default 1000)")
    args = ap.parse_args(argv)

    print(table1.render())
    stats, cb = progress_reporter()
    start = time.perf_counter()
    out = table1.simulated_cross_check(
        duration_ns=args.duration_ms * 1_000_000, seed=args.seed,
        jobs=args.jobs, cache_dir=args.cache_dir,
        use_cache=not args.no_cache, progress=cb,
    )
    elapsed = time.perf_counter() - start
    print("\nSimulated cross-check (exits/s at 250 Hz, 16 vCPUs):")
    for name, modes in out.items():
        print(f"  {name}: " + ", ".join(f"{m}={v:,.0f}" for m, v in modes.items()))
    return report_grid(stats, jobs=args.jobs, elapsed=elapsed)


if __name__ == "__main__":
    raise SystemExit(main())
