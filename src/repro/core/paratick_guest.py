"""Guest-side paratick (paper §5.2, Fig. 3).

The policy that replaces tickless tick management:

* **boot** (§5.2.1) — declare the tick frequency to the host through a
  hypercall; install the vector-235 handler; never arm a tick timer.
* **virtual tick handling** (§5.2.2, Fig. 3a) — perform the standard
  tick work but *never* (re)arm timer hardware.
* **physical tick handling** (§5.2.3, Fig. 3b) — a physical deadline
  programmed at idle entry fires: if the vCPU is still idle the
  interrupt is crucial (treat it as a virtual tick); if the vCPU is
  active, virtual ticks are already flowing, so return without work.
* **idle entry** (§5.2.4, Fig. 3c) — if the recycled tickless logic says
  the tick must be retained, program a one-shot at the regular tick
  interval; else if an RCU event/soft interrupt needs a wake-up, program
  for it — in both cases only when no earlier-or-equal timer is already
  running (the §4.1/§5.2.4 comparison).
* **idle exit** (§5.2.5, Fig. 3d) — nothing: timers set at idle entry
  are deliberately left armed (the keep-timer heuristic; firing while
  active costs one cheap exit, cheaper than a cancel+re-arm pair).
"""

from __future__ import annotations

from repro.guest import ops as gops
from repro.guest.ticksched import TickPolicy
from repro.host.kvm import HC_PARATICK_SET_PERIOD


class ParatickPolicy(TickPolicy):
    """Virtual scheduler ticks — the paper's mechanism."""

    name = "paratick"

    def __init__(self, kernel, *, keep_timer_on_idle_exit: bool = True):
        super().__init__(kernel)
        #: Ablation knob (§5.2.5, per VM via ``VmSpec``): when False, idle
        #: exit cancels the wake timer like tickless would — the paper's
        #: heuristic keeps it armed.
        self.keep_timer_on_idle_exit = keep_timer_on_idle_exit

    # --------------------------------------------------------------- boot

    def on_boot(self, vidx: int) -> None:
        """§4.1: declare the guest tick frequency through a hypercall."""
        if vidx == 0:
            self.k.push(vidx, gops.Hypercall(HC_PARATICK_SET_PERIOD, self.k.period_ns))

    # ------------------------------------------------------- virtual ticks

    def on_virtual_tick(self, vidx: int) -> None:
        """Fig. 3a: standard tick work, never touches timer hardware."""
        self.k.push_tick_work(vidx)

    # ------------------------------------------------------ physical timer

    def on_timer_irq(self, vidx: int) -> None:
        """Fig. 3b: a physical deadline fired.

        Expired application hrtimers (nanosleep etc.) are processed in
        any state — paratick paravirtualizes only the *scheduler tick*,
        not the hrtimer subsystem. Tick work happens only when the vCPU
        is still idle; an active vCPU is already receiving virtual
        ticks, so the handler performs no tick work and never re-arms.
        """
        k = self.k
        ctx = k.ctx(vidx)
        for timer in ctx.hrtimers.pop_expired(k.now()):
            timer.callback()
        if ctx.idle:
            # Still idle: this interrupt is crucial — treat it as a
            # virtual tick (which also services the wheel/RCU event it
            # was armed for).
            k.push_tick_work(vidx)
            k.service_wheel(vidx)
        # Remaining app hrtimers still need hardware (the §5.2.4
        # comparison: program only if sooner than anything armed —
        # nothing is armed now, the deadline just fired).
        nxt = ctx.hrtimers.next_expiry()
        if nxt is not None:
            k.program_hw(vidx, nxt)

    # ----------------------------------------------------------- idle hooks

    def on_idle_enter(self, vidx: int) -> None:
        """Fig. 3c: conditionally program a wake-up timer."""
        k = self.k
        ctx = k.ctx(vidx)
        if k.rcu.needs_cpu(vidx):
            # "Tick must be retained": wake at the regular tick interval.
            desired = k.now() + k.period_ns
        else:
            desired = k.next_soft_event_ns(vidx)
            if desired is None:
                return  # nothing scheduled; sleep until an external event
        # §5.2.4: compare with the currently-running timer; only program
        # if none is running or the new expiry is sooner.
        if ctx.armed_deadline_ns is None or desired < ctx.armed_deadline_ns:
            k.program_hw(vidx, desired)

    def on_idle_exit(self, vidx: int) -> None:
        """Fig. 3d: nothing — §5.2.5's keep-timer heuristic."""
        if not self.keep_timer_on_idle_exit:
            # Ablation variant: tear the timer down like tickless does.
            ctx = self.k.ctx(vidx)
            if ctx.armed_deadline_ns is not None:
                self.k.program_hw(vidx, None)
