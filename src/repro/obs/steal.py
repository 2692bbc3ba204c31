"""Trace-derived per-vCPU steal-time accounting.

*Steal time* is the time a runnable vCPU spends waiting for a physical
CPU another vCPU (or the host) is using — the guest is "robbed" of it
without knowing (arXiv:1810.01139 measures exactly this effect under
overcommit; KVM surfaces it to guests through the steal-time MSR /
``PV_TIME`` shared page, and ``top`` shows it as ``%st``).

The simulator accounts steal twice, deliberately:

1. **Runtime counters** (:attr:`repro.host.vcpu.VCpu.total_steal_ns`):
   the host scheduler stamps ``ready_since_ns`` when it queues a vCPU
   READY and the executor accumulates the wait at dispatch — the same
   shape as KVM's ``run_delay`` plumbing. Always on, no tracer needed.
2. **This tracker**: an independent reconstruction from the structured
   event stream (``vcpu_state`` READY transitions plus the
   ``sched_dispatch`` detail). Because both derive the same quantity
   from different evidence, ``closed interval sum == runtime counter``
   is an exact cross-check the reconcile battery enforces.

The tracker also attributes steal per *pCPU*, which enables the
timeline reconciliation: every stolen nanosecond on a CPU is a
nanosecond some other party was using it, so no single vCPU's steal on
a pCPU can exceed that pCPU's on-timeline busy time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.hw.cpu import CycleDomain
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.kvm import Hypervisor
    from repro.hw.cpu import Machine


class StealTracker(Tracer):
    """Reconstructs per-vCPU / per-pCPU steal time from the trace."""

    enabled = True
    kinds = frozenset({"vcpu_state", "sched_dispatch"})

    def __init__(self) -> None:
        #: source -> ns when it entered READY (open interval).
        self._ready_since: dict[str, int] = {}
        #: source -> total closed steal ns.
        self.steal_ns: dict[str, int] = {}
        #: source -> number of closed READY episodes.
        self.episodes: dict[str, int] = {}
        #: pcpu index -> total steal suffered on that CPU, from the
        #: ``sched_dispatch`` detail (the executor's own measurement).
        self.pcpu_steal_ns: dict[int, int] = {}
        #: largest single-vCPU steal total per pCPU (timeline bound).
        self._pcpu_per_vcpu: dict[int, dict[str, int]] = {}

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        if kind == "vcpu_state":
            if not (isinstance(detail, tuple) and len(detail) == 2):
                return
            old, new = detail
            if new == "ready":
                self._ready_since[source] = time
            elif old == "ready":
                t0 = self._ready_since.pop(source, None)
                if t0 is not None:
                    self.steal_ns[source] = self.steal_ns.get(source, 0) + (time - t0)
                    self.episodes[source] = self.episodes.get(source, 0) + 1
        elif kind == "sched_dispatch":
            if isinstance(detail, tuple) and len(detail) == 2:
                pcpu, stolen = detail
                self.pcpu_steal_ns[pcpu] = self.pcpu_steal_ns.get(pcpu, 0) + stolen
                per = self._pcpu_per_vcpu.setdefault(pcpu, {})
                per[source] = per.get(source, 0) + stolen

    # -------------------------------------------------------------- readouts

    @property
    def total_steal_ns(self) -> int:
        return sum(self.steal_ns.values())

    def open_waiters(self) -> dict[str, int]:
        """Sources still READY at end of trace (their wait is unclosed)."""
        return dict(self._ready_since)

    def per_vcpu(self) -> dict[str, dict[str, int]]:
        return {
            src: {"steal_ns": ns, "episodes": self.episodes.get(src, 0)}
            for src, ns in sorted(self.steal_ns.items())
        }

    def to_json_dict(self) -> dict:
        return {
            "total_steal_ns": self.total_steal_ns,
            "per_vcpu": self.per_vcpu(),
            "per_pcpu_ns": {str(k): v for k, v in sorted(self.pcpu_steal_ns.items())},
        }

    # ------------------------------------------------------------- reconcile

    def reconcile_runtime(self, hv: "Hypervisor") -> list[str]:
        """Cross-check trace-derived steal against the runtime counters.

        Both measure dispatch-closed READY waits, so they must agree
        *exactly* — any divergence means an event was lost or a state
        transition bypassed the scheduler.
        """
        errors: list[str] = []
        runtime: dict[str, tuple[int, int]] = {}
        for vm in hv.vms:
            # Unplugged vCPUs retired their counters into the VM; a
            # re-plugged index restarts at zero, so live adds on top.
            for src, (ns, eps) in vm.retired_steal.items():
                runtime[src] = (ns, eps)
            for vcpu in vm.vcpus:
                src = vcpu.trace_src
                base = runtime.get(src, (0, 0))
                runtime[src] = (base[0] + vcpu.total_steal_ns, base[1] + vcpu.steal_episodes)
        for src, (run_ns, run_eps) in runtime.items():
            tr_ns = self.steal_ns.get(src, 0)
            tr_eps = self.episodes.get(src, 0)
            if tr_ns != run_ns:
                errors.append(
                    f"{src}: trace steal {tr_ns} ns != runtime counter {run_ns} ns"
                )
            if tr_eps != run_eps:
                errors.append(
                    f"{src}: trace episodes {tr_eps} != runtime {run_eps}"
                )
        for src in self.steal_ns:
            if src not in runtime:
                errors.append(f"{src}: steal traced for unknown vCPU")
        return errors

    def reconcile_timeline(self, machine: "Machine", elapsed_ns: int) -> list[str]:
        """Bound steal by the pCPU busy timeline.

        While a vCPU waits READY on CPU ``p``, some other vCPU occupies
        ``p``'s timeline; that occupation is what the cycle ledger calls
        on-timeline busy time (total busy minus the off-timeline
        HOST_TICK/HOST_IO domains). Hence for every pCPU, each single
        vCPU's steal — and the wait total measured at dispatch — must
        fit inside that CPU's busy timeline, and inside the run.
        """
        errors: list[str] = []
        for pcpu, per in self._pcpu_per_vcpu.items():
            cpu = machine.cpu(pcpu)
            timeline = (
                cpu.busy_ns()
                - cpu.busy_ns(CycleDomain.HOST_TICK)
                - cpu.busy_ns(CycleDomain.HOST_IO)
            )
            for src, stolen in per.items():
                if stolen > timeline:
                    errors.append(
                        f"pCPU{pcpu}: {src} steal {stolen} ns exceeds "
                        f"busy timeline {timeline} ns"
                    )
                if stolen > elapsed_ns:
                    errors.append(
                        f"pCPU{pcpu}: {src} steal {stolen} ns exceeds "
                        f"elapsed {elapsed_ns} ns"
                    )
        return errors


def runtime_steal_summary(hv: "Hypervisor") -> dict[str, dict[str, int]]:
    """Per-vCPU steal from the always-on runtime counters (no tracer)."""
    out: dict[str, dict[str, int]] = {}
    for vm in hv.vms:
        for vcpu in vm.vcpus:
            out[vcpu.trace_src] = {
                "steal_ns": vcpu.total_steal_ns,
                "episodes": vcpu.steal_episodes,
            }
    return out
