"""The §5.2.5 keep-timer heuristic is a per-VM parameter, not global state.

Each guest's :class:`~repro.config.VmSpec` carries
``keep_timer_on_idle_exit`` into its own :class:`ParatickPolicy`, so
runs that mix the two settings cannot leak the policy into each other —
whatever order, process or pool they execute in.
"""

from __future__ import annotations

from repro.config import TickMode
from repro.core.paratick_guest import ParatickPolicy
from repro.experiments import ablations
from repro.experiments.parallel import RunSpec, WorkloadSpec, encode_result, run_grid


def mixed_specs() -> list[RunSpec]:
    wl = WorkloadSpec.make(
        "micro.syncstorm", threads=4, events_per_second=2000.0, duration_cycles=40_000_000
    )
    return [
        RunSpec(wl, tick_mode=TickMode.PARATICK, seed=seed, noise=False,
                keep_timer_on_idle_exit=keep, label=f"kt/{keep}/s{seed}")
        for seed in (0, 1)
        for keep in (True, False)
    ]


def encoded(grid, specs) -> dict:
    return {s: encode_result(grid[s]) for s in specs}


def test_no_class_level_knob():
    assert not hasattr(ParatickPolicy, "keep_timer_on_idle_exit")


def test_ablation_exit_counts_unchanged():
    row = ablations.ablate_keep_timer()
    assert (row.reference_exits, row.variant_exits) == (604, 985)


def test_mixed_grid_is_order_and_pool_independent():
    specs = mixed_specs()
    serial = encoded(run_grid(specs, use_cache=False).raise_if_failed(), specs)
    backwards = encoded(run_grid(specs[::-1], use_cache=False).raise_if_failed(), specs)
    pooled = encoded(run_grid(specs, jobs=2, use_cache=False).raise_if_failed(), specs)
    assert backwards == serial
    assert pooled == serial
    on, off = specs[0], specs[1]
    assert serial[on] != serial[off]  # the knob really differs per spec
