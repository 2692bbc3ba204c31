"""The simulated hypervisor (KVM-like).

Owns vCPUs and their per-vCPU execution state machines, intercepts the
timer-path instructions (``TSC_DEADLINE`` writes, HLT, I/O kicks,
hypercalls), takes host-tick external-interrupt exits, applies the
KVM preemption-timer optimization, injects interrupts on VM entry, and —
when the VM runs in paratick mode — injects virtual scheduler ticks.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    costs="CostModel DEFAULT_COSTS",
    exitreasons="ExitReason ExitTag TIMER_TAGS",
    kvm="Hypervisor VirtualMachine",
    vcpu="VCpu VcpuState",
)

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "ExitReason",
    "ExitTag",
    "TIMER_TAGS",
    "Hypervisor",
    "VirtualMachine",
    "VCpu",
    "VcpuState",
]
