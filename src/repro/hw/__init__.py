"""Simulated hardware: CPUs, timers, interrupt plumbing and I/O devices.

This layer models the x86 timer hardware the paper's mechanism touches —
the TSC, the ``TSC_DEADLINE`` MSR, the per-CPU LAPIC timer and the VMX
preemption timer — plus physical CPUs with per-domain cycle accounting
and storage/network devices with latency models.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    cpu="CycleDomain Machine PhysicalCPU",
    interrupts="Vector",
    lapic="LapicTimer TimerMode",
    msr="Msr MsrFile",
    preemption="PreemptionTimer",
    tsc="Tsc",
)

__all__ = [
    "CycleDomain",
    "Machine",
    "PhysicalCPU",
    "Vector",
    "LapicTimer",
    "TimerMode",
    "Msr",
    "MsrFile",
    "PreemptionTimer",
    "Tsc",
]
