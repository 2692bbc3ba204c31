"""Scheduler-tick management policies (paper §2, Fig. 1).

Three policies exist; two live here and the paravirtualized one
(:class:`repro.core.paratick_guest.ParatickPolicy`) subclasses the same
base:

* :class:`PeriodicPolicy` — the classic periodic tick (§3.1): the guest
  programs its virtual LAPIC in periodic mode once at boot; every tick
  is delivered regardless of load.
* :class:`NohzPolicy` — Linux dynticks-idle (§3.2, Fig. 1): the tick is
  an hrtimer whose handler re-arms the ``TSC_DEADLINE`` MSR each period;
  idle entry stops the tick (one MSR write), idle exit restarts it
  (another MSR write).

A policy's job is exactly to decide *which timer-hardware interactions
happen when* — every hardware touch it makes becomes a VM exit upstream,
so these ~200 lines are where the paper's entire exit budget comes from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import GuestError
from repro.guest import ops as gops
from repro.hw.cpu import CycleDomain

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.kernel import GuestKernel

K = CycleDomain.GUEST_KERNEL


class TickPolicy:
    """Base tick-management policy; one instance serves all vCPUs of a VM."""

    name = "abstract"

    def __init__(self, kernel: "GuestKernel"):
        self.k = kernel

    # Hooks ------------------------------------------------------------

    def on_boot(self, vidx: int) -> None:
        """Install the tick mechanism during boot."""
        raise NotImplementedError

    def on_timer_irq(self, vidx: int) -> None:
        """A LOCAL_TIMER interrupt (vector 236) was injected."""
        raise NotImplementedError

    def on_virtual_tick(self, vidx: int) -> None:
        """A paratick virtual tick (vector 235) was injected.

        §5.2.1: ticks arriving when the mode does not expect them are
        rejected — we ignore them (the injection cost was already paid).
        """

    def on_idle_enter(self, vidx: int) -> None:
        """The idle loop is about to halt (runs on every loop pass)."""
        raise NotImplementedError

    def on_idle_exit(self, vidx: int) -> None:
        """The idle loop is exiting to run a task."""
        raise NotImplementedError

    def on_clock_jump(self, vidx: int, jump_ns: int) -> None:
        """The guest clock jumped forward (restore from a saved image).

        Default: nothing — the periodic tick keeps its phase (the paused
        virtual LAPIC resumed where it left off), and paratick re-bases
        on the host side (``last_virtual_tick_ns`` is reset at restore).
        """


class PeriodicPolicy(TickPolicy):
    """Classic periodic scheduler tick.

    On hardware with a self-reloading periodic mode (x86's virtual
    LAPIC), boot programs it once (one TMICT write); thereafter the
    hypervisor delivers LOCAL_TIMER at the fixed rate, waking the vCPU
    if it is halted — which is precisely why §3.1 finds periodic ticks
    so costly on idle, overcommitted hosts. On compare-value-only
    hardware (ARM's CNTV), the kernel re-arms a one-shot at every tick
    boundary from the tick handler, the way Linux's clockevents layer
    emulates periodic mode on ONESHOT-only devices.
    """

    name = "periodic"

    def on_boot(self, vidx: int) -> None:
        k = self.k
        if k.hv.timerhw.has_periodic_mode:
            k.push(vidx, gops.Compute(k.costs.guest_timer_program, K))
            for op in k.hv.timerhw.guest_periodic_ops(k, vidx, k.period_ns):
                k.push(vidx, op)
        else:
            period = k.period_ns
            k.program_hw(vidx, (k.now() // period + 1) * period)

    def on_timer_irq(self, vidx: int) -> None:
        # Fig. 1a without the reprogramming step: periodic hardware
        # re-fires by itself (or the one-shot emulation re-arms below).
        self.k.push_tick_work(vidx)
        k = self.k
        if not k.hv.timerhw.has_periodic_mode:
            # LOCAL_TIMER delivery already cleared armed_deadline_ns, so
            # this always programs the next boundary.
            period = k.period_ns
            k.program_hw(vidx, (k.now() // period + 1) * period)

    def on_idle_enter(self, vidx: int) -> None:
        """No tick management on idle entry — the tick just keeps firing."""

    def on_idle_exit(self, vidx: int) -> None:
        """No tick management on idle exit either."""


class NohzPolicy(TickPolicy):
    """Linux dynticks-idle ("tickless") — Fig. 1.

    Per-vCPU state lives in the kernel's vCPU context:
    ``tick_stopped`` plus the tick hrtimer handle.
    """

    name = "tickless"

    def on_boot(self, vidx: int) -> None:
        self._enqueue_tick(vidx)
        self.k.reprogram_hw(vidx)

    # ------------------------------------------------------------ tick timer

    def _enqueue_tick(self, vidx: int) -> None:
        """Arm the tick hrtimer for the next aligned tick boundary."""
        ctx = self.k.ctx(vidx)
        period = self.k.period_ns
        expires = (self.k.now() // period + 1) * period
        timer = ctx.tick_hrtimer
        if timer is None:
            # First arm only; every restart re-uses this one handle
            # (Linux's hrtimer_restart on tick_sched_timer).
            ctx.tick_hrtimer = ctx.hrtimers.add(
                expires, lambda: self._tick_fired(vidx), name="tick_sched_timer"
            )
        else:
            ctx.hrtimers.rearm(timer, expires)

    def _tick_fired(self, vidx: int) -> None:
        """hrtimer callback: do tick work, restart the timer (Fig. 1a)."""
        self.k.push_tick_work(vidx)
        ctx = self.k.ctx(vidx)
        if not ctx.tick_stopped:
            self._enqueue_tick(vidx)

    # -------------------------------------------------------------- LOCAL_TIMER

    def on_timer_irq(self, vidx: int) -> None:
        ctx = self.k.ctx(vidx)
        expired = ctx.hrtimers.pop_expired(self.k.now())
        for timer in expired:
            timer.callback()
        if ctx.tick_stopped:
            # The deadline stood in for a deferred wheel/RCU event
            # (Fig. 1b's "program tick to expire at next event").
            self.k.service_wheel(vidx)
        # Fig. 1a: "tick deferred or disabled? -> skip reprogramming";
        # reprogram_hw is a no-op when nothing needs the hardware.
        self.k.reprogram_hw(vidx)

    # ------------------------------------------------------------- idle hooks

    def on_idle_enter(self, vidx: int) -> None:
        """Fig. 1b: decide whether to stop the tick before halting."""
        ctx = self.k.ctx(vidx)
        k = self.k
        if not ctx.tick_stopped:
            if self._must_keep_tick(vidx):
                k.trace_mark(vidx, "tick_kept")
                return  # tick stays armed; no hardware touched
            # Cancel but keep the handle: the restart on idle exit
            # re-arms it instead of allocating a fresh timer.
            ctx.hrtimers.cancel(ctx.tick_hrtimer)
            ctx.tick_stopped = True
            k.trace_mark(vidx, "tick_stop")
            k.reprogram_hw(vidx)  # defer to next event, or disarm entirely
        else:
            # Re-entering idle after an interrupt that woke nothing: the
            # next-event deadline may have moved.
            k.reprogram_hw(vidx)

    def _must_keep_tick(self, vidx: int) -> bool:
        """RCU/softirq checks of Fig. 1b."""
        k = self.k
        if k.rcu.needs_cpu(vidx):
            return True
        nxt = k.next_soft_event_ns(vidx)
        return nxt is not None and nxt <= k.now() + k.period_ns

    def on_idle_exit(self, vidx: int) -> None:
        """Fig. 1c: restart the tick if it was stopped."""
        ctx = self.k.ctx(vidx)
        if not ctx.tick_stopped:
            return
        ctx.tick_stopped = False
        self.k.trace_mark(vidx, "tick_restart")
        self._enqueue_tick(vidx)
        self.k.reprogram_hw(vidx)

    # ------------------------------------------------------------ restore

    def on_clock_jump(self, vidx: int, jump_ns: int) -> None:
        """Post-restore re-base (Linux's ``tick_resume`` path).

        A busy vCPU's tick hrtimer now points into the pre-save past:
        re-arm it on the new clock's tick grid and reprogram the
        hardware so the deadline MSR holds a post-restore expiry. Idle
        vCPUs keep their deferred wake — the host stand-in timer clamps
        the stale deadline to the resume instant, so it fires right
        after thaw and the normal ``on_timer_irq`` path re-evaluates.
        """
        ctx = self.k.ctx(vidx)
        if ctx.idle or ctx.tick_stopped:
            return
        self._enqueue_tick(vidx)
        self.k.reprogram_hw(vidx)


def make_policy(kernel: "GuestKernel") -> TickPolicy:
    """Instantiate the policy selected by the VM spec."""
    from repro.config import TickMode
    from repro.core.paratick_guest import ParatickPolicy

    mode = kernel.tick_mode
    if mode is TickMode.PERIODIC:
        return PeriodicPolicy(kernel)
    if mode is TickMode.TICKLESS:
        return NohzPolicy(kernel)
    if mode is TickMode.PARATICK:
        return ParatickPolicy(
            kernel, keep_timer_on_idle_exit=kernel.vm.spec.keep_timer_on_idle_exit
        )
    raise GuestError(f"unknown tick mode {mode}")
