"""One host assembly: every simulated run builds its machine here.

A run is a set of guests sharing one physical host under one
hypervisor. The paper's Table 3 cells are one guest pinned 1:1; its
§3.1/§3.3 overcommit regime is several idle guests time-sharing a few
pCPUs; a fleet host packs tens of guests with staggered arrivals.
:func:`assemble_host` builds all of them from a list of
:class:`GuestSpec`, runs to completion (or the horizon) and collects one
:class:`~repro.metrics.perf.RunMetrics`.
:func:`repro.experiments.runner.run_workload`,
:func:`repro.experiments.overcommit.run_idle_overcommit` and
:func:`repro.fleet.hostsim.run_host` are thin mappings onto it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import HostFeatures, IoDeviceKind, MachineSpec, VmSpec
from repro.errors import WorkloadError
from repro.guest.kernel import GuestKernel
from repro.guest.noise import install_noise
from repro.guest.task import Sleep
from repro.host.costs import DEFAULT_COSTS, CostModel
from repro.host.kvm import Hypervisor
from repro.host.vcpu import VcpuState
from repro.hw.block import make_block_device
from repro.hw.cpu import Machine
from repro.metrics.perf import RunMetrics, collect_metrics
from repro.sim.engine import Simulator
from repro.workloads.base import Workload


@dataclass(frozen=True)
class GuestSpec:
    """One guest of a host: its VM, its workload, and when the work arrives."""

    vm: VmSpec
    workload: Workload
    #: Offset (ns) at which the workload's tasks start. The VM boots,
    #: idles and ticks from t=0 either way, like a request hitting an
    #: already-booted VM.
    arrival_ns: int = 0
    #: Block device override; None uses ``workload.io_device``.
    device_kind: Optional[IoDeviceKind] = None


@dataclass
class HostRun:
    """What :func:`assemble_host` measured."""

    metrics: RunMetrics
    #: The guests' VMs, in :class:`GuestSpec` order.
    vms: list
    #: Per guest, the instant its last main task finished; the run's
    #: end for a guest without main tasks.
    done_ns: list[int]


def packed_guests(
    workloads: list[Workload], *, pcpus: int, name: str, arrivals=None, **vm
) -> list[GuestSpec]:
    """One guest per workload, the guests' vCPUs dealt round-robin onto
    ``pcpus`` physical CPUs (guests are equal-sized).

    ``name`` is formatted with the guest index; ``arrivals`` optionally
    gives each guest's arrival offset; ``vm`` holds the remaining
    :class:`~repro.config.VmSpec` fields, shared by every guest.
    """
    guests = []
    for g, workload in enumerate(workloads):
        nv = workload.default_vcpus()
        pins = tuple((g * nv + j) % pcpus for j in range(nv))
        spec = VmSpec(name=name.format(g), vcpus=nv, pinned_cpus=pins, **vm)
        guests.append(GuestSpec(spec, workload, arrivals[g] if arrivals else 0))
    return guests


def _delayed(body, ns: int):
    """Prefix a task body with an arrival sleep (jiffy-granular, like a
    request hitting the VM later); delegates the original generator."""
    yield Sleep(ns)
    yield from body


def assemble_host(
    guests: list[GuestSpec],
    *,
    machine: MachineSpec,
    seed: int = 0,
    costs: CostModel = DEFAULT_COSTS,
    features: HostFeatures = HostFeatures(),
    arch: str = "x86",
    horizon_ns: int,
    perturbations=(),
    tracer=None,
    inspect=None,
    obs=None,
    label: str,
) -> HostRun:
    """Build one host with ``guests``, run it, and measure it.

    The run ends when every guest's main tasks finish (execution time =
    that instant) or at ``horizon_ns`` when no guest has main tasks; a
    main task still running at the horizon raises
    :class:`~repro.errors.WorkloadError` rather than reporting a
    truncated measurement.

    ``perturbations`` (:class:`repro.host.perturb.Perturbation` events)
    apply to **every** guest VM: a host-wide disturbance such as a
    live-migration pause. Only perturbed runs carry the perturbation
    counters in :attr:`RunMetrics.extra`.

    ``inspect``, when given, is called as ``inspect(sim, machine, hv,
    vms)`` after the run ends but before metrics collection; the
    sanitizer's reconciliation pass uses it to reach per-CPU ledgers
    that :class:`RunMetrics` aggregates away.

    ``obs``, when given, is a :class:`repro.obs.Observability` bundle:
    its trace sinks are teed in front of ``tracer``, its profiler
    observes the cycle ledger, and it is finalized before metrics
    collection. It never schedules simulator events, so metrics are
    bit-identical with ``obs`` on or off.
    """
    if obs is not None:
        tracer = obs.tracer(tracer)
    sim = Simulator(seed=seed, tracer=tracer)
    host = Machine(sim, machine)
    hv = Hypervisor(sim, host, costs=costs, features=features, arch=arch)
    if obs is not None:
        obs.install(host, hv)

    mains: list[dict[int, object]] = []
    done_ns: list[Optional[int]] = [None] * len(guests)
    pending = 0

    def on_done(task, g: int) -> None:
        nonlocal pending
        main = mains[g]
        if main.pop(id(task), None) is None:
            return
        if not main:
            done_ns[g] = sim.now
        pending -= 1
        if not pending:
            sim.stop()

    for g, guest in enumerate(guests):
        vm = hv.create_vm(guest.vm)
        kernel = GuestKernel(vm)
        workload = guest.workload

        kind = guest.device_kind or workload.io_device
        if kind is not None:
            kernel.attach_block_device(make_block_device(
                sim, kind, lambda req, vm=vm: hv.complete_io_request(vm, req.cookie[0], req)
            ))
        nic_profile = getattr(workload, "nic_profile", None)
        if nic_profile is not None:
            from repro.hw.interrupts import Vector
            from repro.hw.nic import Nic

            kernel.attach_nic(Nic(
                sim,
                nic_profile,
                lambda req, vm=vm: hv.complete_io_request(
                    vm, req.cookie[0], req, vector=Vector.NET_IO
                ),
            ))
        if guest.vm.noise:
            install_noise(kernel)

        pre_build = len(kernel.sched.tasks)
        main_tasks = workload.build(kernel)
        if guest.arrival_ns > 0:
            # Stagger the whole workload: helper threads must not run
            # ahead of their request, but the noise daemons run from
            # boot, as on a real consolidated host.
            for task in kernel.sched.tasks[pre_build:]:
                task.body = _delayed(task.body, guest.arrival_ns)
        mains.append({id(t): t for t in main_tasks})
        pending += len(main_tasks)
        kernel.task_done_callbacks.append(lambda task, g=g: on_done(task, g))

        if perturbations:
            from repro.host.perturb import install_perturbations

            install_perturbations(hv, vm, perturbations)

    hv.start()
    sim.run(until=horizon_ns)

    if pending:
        missing = [
            f"{vm.name}/{t.name}" for vm, main in zip(hv.vms, mains) for t in main.values()
        ]
        raise WorkloadError(f"workload did not finish; still running: {missing[:5]}")
    exec_time = sim.now  # the last main task's finish, or the horizon

    if obs is not None:
        obs.finalize(sim, host, hv)
    vms = list(hv.vms)
    if inspect is not None:
        inspect(sim, host, hv, tuple(vms))

    vcpus = [v for vm in vms for v in vm.vcpus]
    extra: dict = {
        "vcpus": sum(vm.spec.vcpus for vm in vms),
        "seed": seed,
        "virtual_ticks": sum(vm.virtual_ticks_injected for vm in vms),
        "halt_episodes": sum(v.halt_episodes for v in vcpus),
        "halted_ns": sum(v.total_halted_ns for v in vcpus),
        "steal_ns": sum(v.total_steal_ns for v in vcpus),
        "steal_episodes": sum(v.steal_episodes for v in vcpus),
    }
    if perturbations:
        extra["suspend_count"] = sum(vm.suspend_count for vm in vms)
        extra["suspended_ns"] = sum(vm.total_suspended_ns for vm in vms)
        extra["clock_jump_ns"] = sum(vm.clock_jump_ns for vm in vms)
        extra["clock_offset_ns"] = sum(vm.guest_clock_offset_ns for vm in vms)
        extra["hotplug_count"] = sum(vm.hotplug_count for vm in vms)
        extra["unplug_count"] = sum(vm.unplug_count for vm in vms)
    for v in vcpus:
        residency = dict(v.cstate_residency_ns)
        if v.state is VcpuState.HALTED and v.requested_cstate is not None:
            # Still asleep at collection time: flush the open residency.
            name = v.requested_cstate.name
            residency[name] = residency.get(name, 0) + (sim.now - v.halted_since_ns)
        for state, ns in residency.items():
            extra[f"cstate_{state}_ns"] = extra.get(f"cstate_{state}_ns", 0) + ns

    metrics = collect_metrics(label, host, vms, exec_time_ns=exec_time, extra=extra)
    return HostRun(metrics, vms, [exec_time if d is None else d for d in done_ns])
