"""Paratick — the paper's contribution.

Virtual scheduler ticks (§4): the guest stops managing its own scheduler
tick; the host injects virtual ticks (vector 235) on VM entry, reusing
the VM exits its own host ticks already cause. Split exactly like the
paper's implementation (§5): a guest side
(:mod:`repro.core.paratick_guest`, the tick policy replacing
``kernel/time/tick-sched.c`` behaviour) and a host side
(the entry hook living in :mod:`repro.host.kvm`, governed by the state
declared through :mod:`repro.core.hypercall`). The analytical models of
§3 are in :mod:`repro.core.model`.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    paratick_guest="ParatickPolicy",
    model="periodic_exits tickless_exits paratick_exits crossover_idle_period_ns table1_row",
)

__all__ = [
    "ParatickPolicy",
    "periodic_exits",
    "tickless_exits",
    "paratick_exits",
    "crossover_idle_period_ns",
    "table1_row",
]
