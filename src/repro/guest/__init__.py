"""The simulated guest kernel.

A Linux-like kernel model: tasks on per-vCPU run queues, an idle loop
with HLT, hrtimers, a timer wheel, softirqs, an RCU callback model,
futex-style blocking synchronization, sync block I/O — and, at the heart
of the reproduction, the scheduler-tick management modes of
:mod:`repro.guest.ticksched` (periodic / tickless) and
:mod:`repro.core.paratick_guest` (the paper's contribution).
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, kernel="GuestKernel", task="Task TaskState")

__all__ = ["GuestKernel", "Task", "TaskState"]
