"""One fleet host: tens of guests packed onto a few physical CPUs.

:func:`run_host` is the fleet mapping onto
:func:`repro.experiments.assembly.assemble_host`, like
:func:`repro.experiments.runner.run_workload` is the solo one: it packs
*G* guest VMs (each running its own instance of the guest workload)
onto ``ceil(G * vcpus / consolidation)`` physical CPUs and staggers
guest start according to the fleet's burst profile.

Bursty arrival is modeled inside the guests: a guest's workload tasks
exist from boot (so every VM boots, idles, and ticks normally), but each
task's body is prefixed with a jiffy-granular ``Sleep`` until the
guest's arrival offset — the workload "arrives" at that instant exactly
like a request hitting an already-booted VM. Per-guest completion
instants, arrival-to-completion latency, and steal time land in
:attr:`RunMetrics.extra` under ``g<NN>_*`` keys (all integers), which is
what :mod:`repro.fleet.aggregate` folds into fleet-wide distributions.

Everything is a pure function of the spec: host ``i`` of fleet seed
``s`` simulates under :func:`repro.fleet.spec.host_sim_seed`'s derived
seed, so re-running any shard anywhere reproduces identical bytes.
"""

from __future__ import annotations

from typing import Optional

from repro.config import MachineSpec, TickMode
from repro.experiments.assembly import assemble_host, packed_guests
from repro.experiments.parallel import RunSpec, WorkloadSpec
from repro.experiments.runner import DEFAULT_HORIZON_NS
from repro.fleet.spec import (
    DEFAULT_BURST_WINDOW_NS,
    arrival_schedule,
    fleet_params,
    host_sim_seed,
)
from repro.metrics.perf import RunMetrics


def run_host(
    *,
    guest_kind: str,
    guest_params: dict,
    guests: int,
    consolidation: int,
    tick_mode: TickMode,
    burst: str = "burst",
    burst_window_ns: int = DEFAULT_BURST_WINDOW_NS,
    burst_waves: int = 4,
    host_index: int = 0,
    seed: int = 0,
    tick_hz: int = 250,
    noise: bool = False,
    cpuidle: bool = False,
    keep_timer_on_idle_exit: bool = True,
    arch: str = "x86",
    horizon_ns: int = DEFAULT_HORIZON_NS,
    label: Optional[str] = None,
    **host,
) -> RunMetrics:
    """Simulate one overcommitted fleet host and return its metrics.

    ``host`` passes through to
    :func:`repro.experiments.assembly.assemble_host` (``costs``,
    ``features``, ``perturbations``, ``tracer``, ``inspect``, ``obs``).
    ``perturbations`` apply to **every** guest VM — a fleet perturbation
    models a host-wide disturbance (live-migration pause, host clock
    step), and the injectors are defensive, so overlapping occurrences
    skip rather than misfire.
    """
    sim_seed = host_sim_seed(seed, host_index)
    arrivals = arrival_schedule(
        burst, guests, window_ns=burst_window_ns, waves=burst_waves, seed=sim_seed
    )
    guest_ws = WorkloadSpec.make(guest_kind, **guest_params)
    workloads = [guest_ws.build() for _ in range(guests)]
    nv = workloads[0].default_vcpus()
    pcpus = max(1, -(-guests * nv // consolidation))

    specs = packed_guests(
        workloads, pcpus=pcpus, name="vm{:02d}", arrivals=arrivals,
        tick_mode=tick_mode, tick_hz=tick_hz, noise=noise, cpuidle=cpuidle, arch=arch,
        keep_timer_on_idle_exit=keep_timer_on_idle_exit,
    )
    run = assemble_host(
        specs,
        machine=MachineSpec(sockets=1, cpus_per_socket=pcpus),
        seed=sim_seed,
        arch=arch,
        horizon_ns=horizon_ns,
        label=label or f"fleet/h{host_index:02d}/{tick_mode.value}",
        **host,
    )
    extra = run.metrics.extra
    # The fleet seed as given, not the derived simulator seed.
    extra.update(seed=seed, guests=guests, pcpus=pcpus, consolidation=consolidation,
                 host_index=host_index)
    for g, (vm, done) in enumerate(zip(run.vms, run.done_ns)):
        extra[f"g{g:02d}_arrival_ns"] = arrivals[g]
        extra[f"g{g:02d}_done_ns"] = done
        extra[f"g{g:02d}_latency_ns"] = max(0, done - arrivals[g])
        extra[f"g{g:02d}_steal_ns"] = sum(v.total_steal_ns for v in vm.vcpus)
    return run.metrics


def execute_fleet_spec(spec: RunSpec, **run) -> RunMetrics:
    """One ``fleet.host`` shard: the fleet arm of
    :func:`repro.experiments.parallel.run_spec`, which passes the spec's
    remaining fields as ``run`` (:func:`run_host` keywords)."""
    return run_host(tick_mode=spec.tick_mode, **fleet_params(spec), **run)
