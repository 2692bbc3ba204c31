"""vCPU state.

Matches the fields paratick adds to KVM's ``kvm_vcpu`` struct (§5.1):
"a field was added to the struct KVM uses to represent a vCPU internally
(kvm_vcpu) representing the time of the last virtual tick injection" —
that is :attr:`VCpu.last_virtual_tick_ns` here.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.hw.cpu import PhysicalCPU
from repro.hw.interrupts import Vector


class VcpuState(enum.Enum):
    """Execution state of a vCPU."""

    #: Created, not yet started.
    INIT = "init"
    #: Executing guest code on its physical CPU.
    GUEST = "guest"
    #: In the hypervisor, processing a VM exit / performing VM entry.
    EXITED = "exited"
    #: Blocked after HLT, waiting for an interrupt.
    HALTED = "halted"
    #: Runnable but waiting for a physical CPU (overcommit only).
    READY = "ready"
    #: Frozen by a VM-wide suspend; thawed by resume/restore.
    SUSPENDED = "suspended"
    #: Shut down.
    OFF = "off"


class VCpu:
    """One virtual CPU: identity, pending interrupts, timer bookkeeping."""

    __slots__ = (
        "index",
        "vm_name",
        "pcpu",
        "_state",
        "pending_irqs",
        "guest_deadline_ns",
        "last_virtual_tick_ns",
        "halted_since_ns",
        "total_halted_ns",
        "halt_episodes",
        "ready_since_ns",
        "total_steal_ns",
        "steal_episodes",
        "requested_cstate",
        "cstate_residency_ns",
        "exec",
        "trace_src",
    )

    def __init__(self, index: int, vm_name: str, pcpu: PhysicalCPU):
        self.index = index
        self.vm_name = vm_name
        self.pcpu = pcpu
        self._state = VcpuState.INIT
        #: Interrupts awaiting injection, in arrival order (no duplicates).
        self.pending_irqs: list[Vector] = []
        #: Absolute expiry of the guest-programmed deadline timer, if armed.
        self.guest_deadline_ns: Optional[int] = None
        #: Paratick host state: time of the last virtual tick injection.
        self.last_virtual_tick_ns: int = 0
        #: When the current HLT block began (for idle accounting).
        self.halted_since_ns: int = 0
        #: Cumulative time spent blocked in HLT (the paper's T_idle sums).
        self.total_halted_ns: int = 0
        #: Number of completed halt episodes.
        self.halt_episodes: int = 0
        #: When the current READY wait began (overcommit only).
        self.ready_since_ns: int = 0
        #: Cumulative time spent runnable-but-not-running — the
        #: guest-visible *steal time* of arXiv:1810.01139, accounted by
        #: the host at dispatch (mirrors KVM's steal-time MSR).
        self.total_steal_ns: int = 0
        #: Number of completed READY waits (dispatches after a queue wait).
        self.steal_episodes: int = 0
        #: C-state the guest requested for the current/next halt
        #: (MWAIT hint; None = plain HLT / cpuidle model disabled).
        self.requested_cstate = None
        #: Per-C-state residency (state name -> ns), cpuidle model only.
        self.cstate_residency_ns: dict[str, int] = {}
        #: Back-reference to the executor driving this vCPU (set by KVM).
        self.exec = None
        #: Source string of this vCPU's trace records (``vm0/vcpu1``).
        self.trace_src = f"{vm_name}/vcpu{index}"

    @property
    def state(self) -> VcpuState:
        """Execution state; every transition is a structured trace event."""
        return self._state

    @state.setter
    def state(self, new: VcpuState) -> None:
        old = self._state
        self._state = new
        # All writers (the executor in repro.host.kvm and the host
        # scheduler) funnel through here, so the trace sees the complete
        # run-state machine — that is what repro.analysis checks against.
        # ``_value_`` is what ``.value`` returns, minus the Enum
        # descriptor call (a CPython 3.11 cost on this hot path).
        trace = self.pcpu._sim.trace
        if trace.enabled and old is not new:
            trace.emit(
                self.pcpu._sim.now, self.trace_src, "vcpu_state", (old._value_, new._value_)
            )

    def post_irq(self, vector: Vector) -> bool:
        """Queue ``vector`` for injection; returns False if already pending.

        Interrupt coalescing mirrors the LAPIC IRR: a vector can be
        pending at most once.
        """
        if vector in self.pending_irqs:
            return False
        self.pending_irqs.append(vector)
        return True

    def drain_irqs(self) -> tuple[Vector, ...]:
        """Remove and return all pending interrupts, in arrival order."""
        out = tuple(self.pending_irqs)
        self.pending_irqs.clear()
        return out

    def mean_idle_period_ns(self) -> float:
        """Average halt-episode length — §3.2's T_idle, measured."""
        return self.total_halted_ns / self.halt_episodes if self.halt_episodes else 0.0

    @property
    def has_pending_timer_irq(self) -> bool:
        """True if a local-timer interrupt awaits injection (§5.1 check)."""
        return Vector.LOCAL_TIMER in self.pending_irqs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<vCPU {self.vm_name}/{self.index} {self.state.value} on pCPU{self.pcpu.index}>"
