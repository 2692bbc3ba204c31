"""Overcommitted multi-VM scenarios: the full §3.1/§3.3 regime, simulated.

The paper's Table 1 counts are analytical; this module runs the same
W1/W2-style configurations — multiple idle VMs sharing physical CPUs —
on the full simulator with host-scheduler time sharing: the many-guest
case of :func:`repro.experiments.assembly.assemble_host`.
"""

from __future__ import annotations

from typing import Optional

from repro.config import MachineSpec, TickMode
from repro.errors import ConfigError
from repro.experiments.assembly import assemble_host, packed_guests
from repro.metrics.perf import RunMetrics
from repro.sim.timebase import SEC
from repro.workloads.micro import IdleWorkload


def run_idle_overcommit(
    mode: TickMode,
    *,
    vms: int = 4,
    vcpus_per_vm: int = 4,
    pcpus: int = 2,
    duration_ns: int = SEC,
    noise: bool = False,
    tick_hz: int = 250,
    cpuidle: bool = False,
    keep_timer_on_idle_exit: bool = True,
    arch: str = "x86",
    label: Optional[str] = None,
    **host,
) -> RunMetrics:
    """N idle VMs time-sharing a small set of physical CPUs (W1/W2).

    With classic periodic ticks every vCPU is woken ``f_tick`` times a
    second; with tickless/paratick guests the host stays asleep. The
    guests' vCPUs are dealt round-robin onto the ``pcpus``; the run
    lasts ``duration_ns``. ``host`` passes through to
    :func:`repro.experiments.assembly.assemble_host` (``seed``,
    ``costs``, ``features``, ``perturbations``, ``tracer``, ``inspect``,
    ``obs``).
    """
    if vms <= 0 or vcpus_per_vm <= 0 or pcpus <= 0:
        raise ConfigError("vms, vcpus_per_vm and pcpus must be positive")
    guests = packed_guests(
        [IdleWorkload(vcpus_per_vm) for _ in range(vms)], pcpus=pcpus, name="vm{}",
        tick_mode=mode, tick_hz=tick_hz, noise=noise, cpuidle=cpuidle, arch=arch,
        keep_timer_on_idle_exit=keep_timer_on_idle_exit,
    )
    return assemble_host(
        guests,
        machine=MachineSpec(sockets=1, cpus_per_socket=pcpus),
        arch=arch,
        horizon_ns=duration_ns,
        label=label or f"overcommit/{mode.value}",
        **host,
    ).metrics


def compare_modes(
    *,
    vms: int = 4,
    vcpus_per_vm: int = 4,
    pcpus: int = 2,
    duration_ns: int = SEC,
    noise: bool = False,
    seed: int = 0,
    jobs: int | None = None,
    cache_dir=None,
    use_cache: bool = False,
    progress=None,
) -> dict[TickMode, RunMetrics]:
    """The W1/W2 comparison across all three tick modes.

    The three scenarios are independent, so they run as a grid through
    the parallel experiment engine — ``jobs=3`` executes all modes
    concurrently, and the result cache makes repeat sweeps incremental.
    """
    from repro.experiments.parallel import OVERCOMMIT_IDLE, RunSpec, WorkloadSpec, run_grid

    base = RunSpec(
        WorkloadSpec.make(OVERCOMMIT_IDLE, vms=vms, vcpus_per_vm=vcpus_per_vm, pcpus=pcpus),
        seed=seed, noise=noise, horizon_ns=duration_ns,
    )
    specs = {
        mode: base.with_(tick_mode=mode, label=f"overcommit/{mode.value}")
        for mode in TickMode
    }
    grid = run_grid(
        list(specs.values()), jobs=jobs, cache_dir=cache_dir,
        use_cache=use_cache, progress=progress,
    ).raise_if_failed()
    return {mode: grid[spec] for mode, spec in specs.items()}
