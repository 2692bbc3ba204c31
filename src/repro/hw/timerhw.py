"""Per-architecture timer-hardware personality (ROADMAP item 4).

The paper's analysis is x86-specific: the guest arms its tick timer by
writing the ``TSC_DEADLINE`` MSR (or the virtual LAPIC's ``TMICT`` in
periodic mode), and KVM turns the write into the VMX preemption-timer
optimization (§3). Whether paratick's win *generalizes* depends on the
timer hardware's exit economics — on ARM the generic timer is a
system-register compare-value unit (CNTV) whose trapped accesses and
in-guest expiry have different costs (arXiv 2206.00258 supplies the
measured framing).

:class:`TimerHardware` is the seam: everything architecture-specific
about how a guest touches timer/interrupt-controller registers — and
how the hypervisor decodes the resulting traps — lives behind it.

* **Guest-side emission** — which primitive guest ops
  (:mod:`repro.guest.ops`) a (dis)arm of the one-shot deadline, the
  boot-time periodic tick, an EOI, or a cross-vCPU IPI compile to.
* **Host-side decode** — mapping a trapped op to the
  ``(reason, tag, handler_cycles, effect)`` tuple the vCPU executor's
  ``_begin_exit`` consumes. Exit counting, tracing and cost accounting
  stay arch-neutral in :mod:`repro.host.kvm`.
* **Deadline expiry in guest mode** — which exit reason and handler
  cost an armed guest deadline firing while the vCPU runs produces
  (x86: the VMX preemption timer; ARM: the vtimer's own IRQ).

The generic deadline machinery — :class:`repro.hw.preemption.PreemptionTimer`
counting down while in guest mode, the host stand-in timer while
blocked, ``vcpu.guest_deadline_ns`` — is shared by all backends; only
the register interface and the exit taxonomy differ.

Contract notes for backend authors (see ``docs/architectures.md``):

* ``guest_*`` methods run at op-*emission* time inside the guest
  kernel; any per-vCPU guest register state belongs in
  ``VcpuCtx.hw_state`` (reset on vCPU re-plug).
* ``decode`` runs at trap time; host-side register state belongs in
  ``_VcpuExec.timerhw_state``. Effects must translate guest-clock
  deadlines to host time through the VM's ``guest_clock_offset_ns``
  and clamp into the present, mirroring x86's ``_apply_deadline``.
* Backends without a self-reloading periodic mode return
  ``has_periodic_mode = False``; :class:`repro.guest.ticksched.PeriodicPolicy`
  then re-arms a one-shot every tick boundary instead of programming
  the hardware once at boot.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigError
from repro.guest import ops as gops
from repro.host.exitreasons import ExitReason, ExitTag
from repro.hw.interrupts import Vector
from repro.hw.msr import Msr

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.kernel import GuestKernel
    from repro.host.costs import CostModel
    from repro.hw.tsc import Tsc

#: Architectures with a registered backend.
ARCHES = ("x86", "arm")

#: A decoded synchronous exit: (reason, tag, handler_cycles, effect).
DecodedExit = tuple[ExitReason, ExitTag, int, Optional[Callable[[], None]]]

# Decode runs on every trapped write. Bound once: on CPython 3.11 each
# ``Enum.X`` read goes through the Enum metaclass and costs several
# times a global lookup.
_MSR_WRITE = ExitReason.MSR_WRITE
_TIMER_PROGRAM = ExitTag.TIMER_PROGRAM
_EOI = ExitTag.EOI
_IPI = ExitTag.IPI
_OTHER = ExitTag.OTHER
_TSC_DEADLINE = int(Msr.TSC_DEADLINE)
_TMICT = int(Msr.X2APIC_TMICT)
_X2APIC_EOI = int(Msr.X2APIC_EOI)
_ICR = int(Msr.X2APIC_ICR)
_Wrmsr = gops.Wrmsr


class TimerHardware:
    """Abstract per-architecture timer/interrupt register interface."""

    #: Architecture name (matches ``RunSpec.arch`` / ``VmSpec.arch``).
    arch = "abstract"
    #: True when the hardware offers a self-reloading periodic mode the
    #: guest can program once at boot (x86's LAPIC TMICT).
    has_periodic_mode = False

    # ------------------------------------------------- guest-side emission

    def guest_deadline_ops(
        self, kernel: "GuestKernel", vidx: int, desired: Optional[int]
    ) -> tuple[gops.GuestOp, ...]:
        """Ops that (dis)arm the one-shot deadline at ``desired`` abs ns.

        ``desired`` is on the *guest's* clock (``kernel.now()``); the
        host-side decode translates back. ``None`` disarms.
        """
        raise NotImplementedError

    def guest_periodic_ops(
        self, kernel: "GuestKernel", vidx: int, period_ns: int
    ) -> tuple[gops.GuestOp, ...]:
        """Ops that program the boot-time periodic tick (periodic mode
        only; callers must check :attr:`has_periodic_mode` first)."""
        raise NotImplementedError

    def guest_eoi_op(self, vector: Vector) -> gops.GuestOp:
        """The trapped end-of-interrupt write (virtual EOI disabled)."""
        raise NotImplementedError

    def guest_ipi_op(self, target_vidx: int, vector: Vector) -> gops.GuestOp:
        """The trapped write sending an IPI to ``target_vidx``."""
        raise NotImplementedError

    # --------------------------------------------------- host-side decode

    def decode(self, execu, op: gops.GuestOp) -> Optional[DecodedExit]:
        """Decode a trapped register write into a synchronous exit.

        Returns ``(reason, tag, handler_cycles, effect)`` for ops this
        architecture traps, or None for ops it does not recognize (the
        executor then falls through to the arch-neutral op dispatch).
        """
        raise NotImplementedError

    def deadline_fire_exit(self, costs: "CostModel") -> tuple[ExitReason, int]:
        """(reason, handler_cycles) of an armed deadline expiring while
        the vCPU is in guest mode."""
        raise NotImplementedError


class X86TimerHardware(TimerHardware):
    """x86: TSC-deadline MSR + virtual LAPIC, intercepted via WRMSR.

    This backend reproduces the pre-abstraction behaviour of
    :mod:`repro.host.kvm` exactly — the x86 golden batteries pin every
    emitted op value, exit tuple and trace byte.
    """

    arch = "x86"
    has_periodic_mode = True

    def __init__(self, tsc: "Tsc"):
        self.tsc = tsc

    # ------------------------------------------------- guest-side emission

    def guest_deadline_ops(self, kernel, vidx, desired):
        value = 0 if desired is None else self.tsc.clock.ns_to_cycles(
            max(desired, kernel.now() + 1)
        )
        return (gops.Wrmsr(Msr.TSC_DEADLINE, value),)

    def guest_periodic_ops(self, kernel, vidx, period_ns):
        return (gops.Wrmsr(Msr.X2APIC_TMICT, period_ns),)

    def guest_eoi_op(self, vector):
        return gops.Wrmsr(Msr.X2APIC_EOI, int(vector))

    def guest_ipi_op(self, target_vidx, vector):
        return gops.Wrmsr(Msr.X2APIC_ICR, target_vidx * 256 + int(vector))

    # --------------------------------------------------- host-side decode

    def decode(self, execu, op):
        if op.__class__ is not _Wrmsr:
            return None
        c = execu.costs
        index = op.index
        if index == _TSC_DEADLINE:
            return (
                _MSR_WRITE,
                _TIMER_PROGRAM,
                c.handler_msr_tsc_deadline,
                partial(execu._apply_deadline, op.value),
            )
        if index == _TMICT:
            # Virtual LAPIC in periodic mode: KVM emulates the
            # repeating timer host-side (classic periodic ticks, §3.1).
            return (
                _MSR_WRITE,
                _TIMER_PROGRAM,
                c.handler_msr_tsc_deadline,
                partial(execu._start_virtual_periodic, op.value),
            )
        if index == _X2APIC_EOI:
            return (_MSR_WRITE, _EOI, c.handler_msr_eoi, None)
        if index == _ICR:
            dest, vector = divmod(op.value, 256)
            return (
                _MSR_WRITE,
                _IPI,
                c.handler_msr_icr,
                lambda: execu.hv.send_ipi(execu.vm, execu.vcpu, dest, Vector(vector)),
            )
        return (_MSR_WRITE, _OTHER, c.handler_msr_tsc_deadline, None)

    def deadline_fire_exit(self, costs):
        return (ExitReason.PREEMPTION_TIMER, costs.handler_preemption_timer)


def make_timer_hardware(arch: str, hv) -> TimerHardware:
    """Instantiate the backend for ``arch`` against a hypervisor."""
    if arch == "x86":
        return X86TimerHardware(hv.tsc)
    if arch == "arm":
        from repro.hw.arm import ArmTimerHardware

        return ArmTimerHardware(hv.sim, hv.machine.clock)
    raise ConfigError(f"unknown timer architecture {arch!r}; know {ARCHES}")
