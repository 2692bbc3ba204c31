"""Streaming invariant checkers for the timer path.

Each :class:`Checker` consumes the structured trace online (no record
retention) and accumulates :class:`Violation`\\ s; :class:`TickSanitizer`
is the :class:`~repro.sim.trace.Tracer` that validates every record once
and routes it to the checkers whose ``kinds`` consume it, so *any* run —
test, benchmark, fuzz sweep — becomes a self-checking artifact simply by
passing ``tracer=TickSanitizer(...)``.

The battery encodes the legality rules behind the paper's Fig. 1/Fig. 3
state machines and KVM's preemption-timer optimization (§3):

* arm/cancel/fire pairing for LAPIC timers, the VMX preemption timer,
  the guest TSC deadline, the host stand-in timer and the ARM generic
  timer (trapped CNTV write -> deadline -> vtimer IRQ);
* the per-vCPU run-state machine of ``repro.host.kvm._VcpuExec``;
* tick-sched mode transitions (stop/restart alternation, and that only
  the tickless policy ever performs them);
* vector-235 legality (only paratick guests may receive virtual ticks);
* the event schema itself (:mod:`repro.analysis.events`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.analysis import events as ev
from repro.config import TickMode
from repro.hw.interrupts import Vector
from repro.sim.trace import TraceRecord, Tracer, consumes


@dataclass(frozen=True)
class Violation:
    """One invariant breach, attributable to a checker and a source."""

    time: int
    checker: str
    source: str
    message: str

    def __str__(self) -> str:
        return f"[{self.time:>12}ns] {self.checker}: {self.source}: {self.message}"


class Checker:
    """Base streaming checker. Subclasses implement :meth:`on_event`.

    ``kinds`` declares the record kinds the checker consumes; the
    sanitizer hands it no others. ``None`` (the default) means every
    kind, registered or not.
    """

    name = "abstract"
    kinds: Optional[frozenset[str]] = None

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        #: Records this checker actually inspected (for battery stats).
        self.seen = 0

    def report(self, record: TraceRecord, message: str) -> None:
        self.violations.append(Violation(record.time, self.name, record.source, message))

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        """Consume one record. ``error`` is its schema violation
        (:func:`repro.analysis.events.validate_record`), None when well-formed;
        the sanitizer computes it once per record for every checker."""
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run hook for invariants that need the full stream."""


class SchemaChecker(Checker):
    """Every record must carry a registered kind and a well-formed detail."""

    name = "schema"

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        self.seen += 1
        if error is not None:
            self.report(record, error)


#: Legal _VcpuExec transitions (besides ``any -> off``, shutdown).
_VCPU_TRANSITIONS = frozenset(
    {
        ("init", "exited"),    # start()
        ("exited", "guest"),   # VM entry completed
        ("guest", "exited"),   # VM exit
        ("exited", "halted"),  # HLT block
        ("halted", "exited"),  # wake
        ("exited", "ready"),   # CPU busy: queued (overcommit)
        ("ready", "exited"),   # dispatched
        # VM-wide suspend freezes a vCPU from any live state and thaws
        # it back to runnable (exited) or blocked (halted).
        ("guest", "suspended"),
        ("exited", "suspended"),
        ("halted", "suspended"),
        ("ready", "suspended"),
        ("suspended", "exited"),
        ("suspended", "halted"),
    }
)


class VcpuStateChecker(Checker):
    """The vCPU run-state machine only takes legal steps."""

    name = "vcpu-state"
    kinds = frozenset({"vcpu_state", "vcpu_hotplug"})

    def __init__(self) -> None:
        super().__init__()
        self._state: dict[str, str] = {}

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        if error is not None:
            return
        if record.kind == "vcpu_hotplug":
            # A hotplug (or re-plug of a previously unplugged index)
            # installs a fresh vCPU object: forget any tracked state so
            # its init -> exited boot is not read as "after shutdown".
            self._state.pop(f"{record.source}/vcpu{record.detail}", None)
            return
        self.seen += 1
        old, new = record.detail
        known = self._state.get(record.source)
        if known is not None and known != old:
            self.report(record, f"transition from {old!r} but tracked state is {known!r}")
        if new != "off" and (old, new) not in _VCPU_TRANSITIONS:
            self.report(record, f"illegal transition {old!r} -> {new!r}")
        if known == "off":
            self.report(record, f"transition {old!r} -> {new!r} after shutdown")
        self._state[record.source] = new


class PreemptionTimerChecker(Checker):
    """VMX preemption timer start/stop/fire pairing (§3).

    The countdown runs only between a ``ptimer_start`` and the matching
    ``ptimer_stop``/``ptimer_fire``; it must fire at or after the
    deadline it was started with, and only while the owning vCPU is in
    guest mode (the hardware counts down only in non-root mode).
    """

    name = "preemption-timer"
    kinds = frozenset({"vcpu_state", "ptimer_start", "ptimer_stop", "ptimer_fire"})

    def __init__(self) -> None:
        super().__init__()
        self._running: dict[str, int] = {}  # source -> started deadline
        self._vcpu_state: dict[str, str] = {}

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        if error is not None:
            return
        kind = record.kind
        if kind == "vcpu_state":
            self._vcpu_state[record.source] = record.detail[1]
            return
        self.seen += 1
        src = record.source
        if kind == "ptimer_start":
            if src in self._running:
                self.report(record, "started while already counting down")
            self._running[src] = record.detail
        elif kind == "ptimer_stop":
            if src not in self._running:
                self.report(record, "stopped but was not counting down")
            self._running.pop(src, None)
        elif kind == "ptimer_fire":
            deadline = self._running.pop(src, None)
            if deadline is None:
                self.report(record, "fired without a start")
            elif record.time < deadline:
                self.report(record, f"fired at {record.time} before deadline {deadline}")
            if self._vcpu_state.get(ev.vcpu_of(src)) not in (None, "guest"):
                self.report(record, "fired while vCPU not in guest mode")


class LapicChecker(Checker):
    """LAPIC arm/disarm/fire pairing, for the hardware model and KVM's
    periodic vLAPIC emulation alike.

    A fire requires a pending arm; a one-shot or deadline arm is
    consumed by its fire while a periodic arm survives (the hardware
    re-fires without reprogramming — the §3.1 point); re-arming without
    an intervening disarm/fire never happens in the model (the arm
    paths cancel first), so the checker flags it.
    """

    name = "lapic"
    kinds = frozenset({"lapic_arm", "lapic_disarm", "lapic_fire"})

    def __init__(self) -> None:
        super().__init__()
        self._armed: dict[str, tuple[str, int]] = {}  # source -> (mode, expiry)

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        if error is not None:
            return
        kind = record.kind
        self.seen += 1
        src = record.source
        if kind == "lapic_arm":
            if src in self._armed:
                self.report(record, "double arm without disarm/fire")
            self._armed[src] = record.detail
        elif kind == "lapic_disarm":
            self._armed.pop(src, None)  # disarming an idle timer is legal
        elif kind == "lapic_fire":
            armed = self._armed.get(src)
            if armed is None:
                self.report(record, "fired while not armed")
                return
            mode, expiry = armed
            if record.detail[0] != mode:
                self.report(record, f"fired in mode {record.detail[0]!r} but armed as {mode!r}")
            if record.time < expiry:
                self.report(record, f"fired at {record.time} before expiry {expiry}")
            if mode != "periodic":
                del self._armed[src]


class GuestDeadlineChecker(Checker):
    """Guest TSC-deadline lifecycle across KVM's two delivery paths.

    ``deadline_set`` arms (re-arming is a legal reprogram), and a
    ``deadline_fire`` — via the preemption timer in guest mode or the
    host stand-in while blocked — requires an armed deadline, must not
    fire early, and consumes it. The host stand-in timer itself must
    pair its arms with a cancel or a fire.
    """

    name = "guest-deadline"
    kinds = frozenset({
        "deadline_set", "deadline_clear", "deadline_fire",
        "hostdl_arm", "hostdl_cancel", "hostdl_fire",
    })

    def __init__(self) -> None:
        super().__init__()
        self._deadline: dict[str, int] = {}
        self._host_armed: dict[str, int] = {}

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        if error is not None:
            return
        kind = record.kind
        self.seen += 1
        src = record.source
        if kind == "deadline_set":
            self._deadline[src] = record.detail
        elif kind == "deadline_clear":
            self._deadline.pop(src, None)
        elif kind == "deadline_fire":
            armed = self._deadline.pop(src, None)
            fired, _via = record.detail
            if armed is None:
                self.report(record, "deadline fired but none was armed")
            else:
                if fired != armed:
                    self.report(record, f"fired deadline {fired} but {armed} was armed")
                if record.time < armed:
                    self.report(record, f"fired at {record.time} before deadline {armed}")
        elif kind == "hostdl_arm":
            if src in self._host_armed:
                self.report(record, "host stand-in armed twice")
            self._host_armed[src] = record.detail
        elif kind == "hostdl_cancel":
            if src not in self._host_armed:
                self.report(record, "host stand-in cancelled but not armed")
            self._host_armed.pop(src, None)
        elif kind == "hostdl_fire":
            when = self._host_armed.pop(src, None)
            if when is None:
                self.report(record, "host stand-in fired without an arm")
            elif record.time < when:
                self.report(record, f"host stand-in fired at {record.time}, armed for {when}")


class CntvChecker(Checker):
    """ARM generic-timer trap -> deadline pairing (:mod:`repro.hw.arm`).

    KVM/arm64's vtimer emulation applies every trapped CNTV_CVAL /
    CNTV_CTL write synchronously, so for any source that traps CNTV
    sysregs (the checker is arch-aware: it engages only once a source
    emits a ``cntv_*`` record, staying inert on x86 traces):

    * a ``cntv_cval`` write while ENABLE is set must be applied as a
      ``deadline_set`` of the same host-translated expiry at the same
      instant — the single-trap steady-state re-arm;
    * ``cntv_ctl`` ENABLE=1 with a latched CVAL arms the same way, and
      setting ENABLE while already enabled never happens (Linux arm64
      leaves ENABLE set across fires and re-arms with a lone CVAL
      write);
    * ``cntv_ctl`` ENABLE=0 must be applied as a ``deadline_clear`` at
      the same instant (disarming an idle vtimer is legal);
    * ``deadline_set``/``deadline_clear`` on a CNTV source outside a
      trap application is impossible — nothing else programs the
      vtimer;
    * a ``vtimer_irq`` exit delivering the guest's tick requires an
      enabled vtimer whose latched expiry has passed (ENABLE survives
      the fire; the stale CVAL is overwritten by the next re-arm).
    """

    name = "cntv"
    kinds = frozenset({"cntv_cval", "cntv_ctl", "deadline_set", "deadline_clear", "vmexit"})

    def __init__(self) -> None:
        super().__init__()
        self._enabled: dict[str, bool] = {}
        self._cval: dict[str, Optional[int]] = {}
        #: source -> (expected kind, expected expiry or None, trap time)
        self._pending: dict[str, tuple[str, Optional[int], int]] = {}

    def _expect(self, record: TraceRecord, kind: str, detail: Optional[int]) -> None:
        stale = self._pending.get(record.source)
        if stale is not None:
            self.report(
                record, f"trapped write at {stale[2]} never applied as {stale[0]}"
            )
        self._pending[record.source] = (kind, detail, record.time)

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        kind = record.kind
        src = record.source
        if kind in ("cntv_cval", "cntv_ctl"):
            if error is not None:
                return
            self.seen += 1
            if kind == "cntv_cval":
                self._cval[src] = record.detail
                if self._enabled.get(src, False):
                    self._expect(record, "deadline_set", record.detail)
                else:
                    self._enabled.setdefault(src, False)
            elif record.detail:
                if self._enabled.get(src, False):
                    self.report(
                        record,
                        "ENABLE set while already enabled "
                        "(steady-state re-arm is a lone CVAL write)",
                    )
                self._enabled[src] = True
                cval = self._cval.get(src)
                if cval is not None:
                    self._expect(record, "deadline_set", cval)
            else:
                self._enabled[src] = False
                self._cval[src] = None
                self._expect(record, "deadline_clear", None)
            return
        if kind in ("deadline_set", "deadline_clear"):
            if src not in self._enabled or error is not None:
                return
            self.seen += 1
            pending = self._pending.pop(src, None)
            if pending is None:
                self.report(record, f"{kind} on a CNTV source without a trapped write")
                return
            want_kind, want_expiry, when = pending
            if kind != want_kind:
                self.report(record, f"trap applied as {kind}, expected {want_kind}")
            elif record.time != when:
                self.report(record, f"{kind} at {record.time}, but trap was at {when}")
            elif want_expiry is not None and record.detail != want_expiry:
                self.report(
                    record,
                    f"{kind} expiry {record.detail} != trapped CVAL expiry {want_expiry}",
                )
            return
        # vmexit: only a vtimer IRQ delivering the guest tick, on a
        # source that traps CNTV writes, is checked.
        if (
            src in self._enabled
            and isinstance(record.detail, tuple)
            and len(record.detail) == 2
            and record.detail[0] == "vtimer_irq"
            and record.detail[1] == "timer_guest_tick"
        ):
            self.seen += 1
            if not self._enabled[src]:
                self.report(record, "vtimer IRQ delivered while CNTV_CTL.ENABLE clear")
                return
            cval = self._cval.get(src)
            if cval is None:
                self.report(record, "vtimer IRQ delivered with no CVAL latched")
            elif record.time < cval:
                self.report(
                    record, f"vtimer IRQ at {record.time} before CVAL expiry {cval}"
                )

    def finish(self) -> None:
        for src, (kind, _detail, when) in sorted(self._pending.items()):
            self.violations.append(
                Violation(
                    when,
                    self.name,
                    src,
                    f"trapped write at {when} never applied as {kind}",
                )
            )


class TickSchedChecker(Checker):
    """Tick-sched legality per Fig. 1 / Fig. 3.

    Idle enters/exits alternate (an exit needs a preceding enter;
    re-entering idle without an exit is how the idle loop re-marks);
    ``tick_stop``/``tick_restart`` toggle a per-vCPU flag and never
    repeat; and only the tickless policy performs them — a periodic or
    paratick guest emitting a tick transition is a policy bug.
    """

    name = "tick-sched"
    kinds = frozenset({"idle_enter", "idle_exit", "tick_stop", "tick_restart", "tick_kept"})

    def __init__(self, mode: Optional[TickMode] = None) -> None:
        super().__init__()
        self.mode = mode
        self._idle_depth: dict[str, int] = {}
        self._stopped: dict[str, bool] = {}

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        # Acts on malformed records too: these kinds carry no detail.
        kind = record.kind
        self.seen += 1
        src = record.source
        if kind == "idle_enter":
            self._idle_depth[src] = self._idle_depth.get(src, 0) + 1
        elif kind == "idle_exit":
            if self._idle_depth.get(src, 0) < 1:
                self.report(record, "idle_exit without idle_enter")
            self._idle_depth[src] = 0
        elif kind in ("tick_stop", "tick_restart", "tick_kept"):
            if self.mode is not None and self.mode is not TickMode.TICKLESS:
                self.report(record, f"{kind} under {self.mode.value} policy")
            stopped = self._stopped.get(src, False)
            if kind == "tick_stop":
                if stopped:
                    self.report(record, "tick stopped twice")
                self._stopped[src] = True
            elif kind == "tick_restart":
                if not stopped:
                    self.report(record, "tick restarted but was not stopped")
                self._stopped[src] = False
            elif kind == "tick_kept" and stopped:
                self.report(record, "tick_kept while tick is stopped")


class InjectChecker(Checker):
    """Injection legality: virtual ticks (vector 235) reach only
    paratick guests (§5.2.1), and every injected vector is one the
    hypervisor can legally deliver."""

    name = "inject"
    kinds = frozenset({"inject"})

    def __init__(self, mode: Optional[TickMode] = None) -> None:
        super().__init__()
        self.mode = mode
        self._legal = frozenset(int(v) for v in Vector)

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        if error is not None:
            return
        self.seen += 1
        for v in record.detail:
            if v not in self._legal:
                self.report(record, f"unknown vector {v} injected")
            if (
                v == int(Vector.PARATICK_VIRTUAL_TICK)
                and self.mode is not None
                and self.mode is not TickMode.PARATICK
            ):
                self.report(record, f"vector 235 injected into a {self.mode.value} guest")


#: Kinds that represent a timer firing or CPU activity attributable to a
#: vCPU — none may occur for a frozen VM's vCPUs (docs/scenarios.md).
_SUSPEND_FORBIDDEN = frozenset(
    {
        "lapic_fire",
        "ptimer_fire",
        "hostdl_fire",
        "deadline_fire",
        "inject",
        "vmexit",
        "sched_dispatch",
    }
)


def _vm_of(source: str) -> str:
    """Owning VM name of any per-vCPU source (``vm0/vcpu1/vlapic`` -> ``vm0``)."""
    head, _, _ = source.partition("/")
    return head


class SuspendSpanChecker(Checker):
    """No tick fires — no timer expiry, exit or dispatch at all — inside
    a suspended span.

    ``vm_suspend``/``vm_resume`` bracket a span during which every vCPU
    of that VM is frozen; host-side exit work already in flight may
    still retire (emitting e.g. ``deadline_set``), but nothing may fire,
    exit or be injected on a frozen vCPU. Also enforces suspend/resume
    pairing per VM. A span left open at end of run is legal (the run
    horizon can land mid-span).
    """

    name = "suspend-span"
    kinds = frozenset({"vm_suspend", "vm_resume", "vm_restore"}) | _SUSPEND_FORBIDDEN

    def __init__(self) -> None:
        super().__init__()
        self._suspended: dict[str, int] = {}  # vm name -> suspend time

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        # Acts on malformed records too: only kind, source and time matter.
        kind = record.kind
        if kind == "vm_suspend":
            self.seen += 1
            if record.source in self._suspended:
                self.report(record, "suspended while already suspended")
            self._suspended[record.source] = record.time
            return
        if kind in ("vm_resume", "vm_restore"):
            self.seen += 1
            if kind == "vm_resume" and record.source not in self._suspended:
                self.report(record, "resumed but was not suspended")
            if kind == "vm_resume":
                self._suspended.pop(record.source, None)
            return
        if not self._suspended:
            return
        self.seen += 1
        vm = _vm_of(record.source)
        since = self._suspended.get(vm)
        # The suspend edge itself may process in-flight same-instant
        # events queued before the freeze; strictly-later activity is
        # what a frozen VM can never produce.
        if since is not None and record.time > since:
            self.report(record, f"{kind} inside suspended span (since {since})")


class RestoreMonotonicChecker(Checker):
    """Post-restore deadlines re-arm monotonically.

    After a ``vm_restore`` (resume with a guest clock jump), every
    timer armed for that VM — guest TSC deadline, host stand-in, VMX
    preemption timer, LAPIC — must carry an expiry at or after the
    restore instant. A stale pre-restore deadline surviving the jump
    would fire in the guest's past.
    """

    name = "restore-rearm"
    kinds = frozenset({
        "vm_restore", "deadline_set", "hostdl_arm", "ptimer_start", "lapic_arm", "cntv_cval",
    })

    def __init__(self) -> None:
        super().__init__()
        self._restored_at: dict[str, int] = {}  # vm name -> last restore time

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        kind = record.kind
        if kind == "vm_restore":
            # Only the restore instant matters, so a malformed one counts.
            self.seen += 1
            self._restored_at[record.source] = record.time
            return
        if error is not None or not self._restored_at:
            return
        since = self._restored_at.get(_vm_of(record.source))
        if since is None:
            return
        self.seen += 1
        expiry = record.detail[1] if kind == "lapic_arm" else record.detail
        if expiry < since:
            self.report(
                record,
                f"{kind} expiry {expiry} predates restore at {since} (stale deadline)",
            )


class HotplugChecker(Checker):
    """Hotplugged vCPUs enter the run-state machine cleanly.

    ``vcpu_hotplug`` must name an index that is not already online, and
    the new vCPU's first run-state transition must be the boot step
    ``init -> exited``. ``vcpu_unplug`` must name an online,
    previously-hotplugged vCPU; after it, that vCPU may only step to
    ``off``.
    """

    name = "hotplug"
    kinds = frozenset({"vcpu_hotplug", "vcpu_unplug", "vcpu_state"})

    def __init__(self) -> None:
        super().__init__()
        self._online: set[str] = set()        # vcpu sources seen alive
        self._awaiting_boot: set[str] = set() # hotplugged, no state event yet
        self._unplugged: set[str] = set()

    def on_event(self, record: TraceRecord, error: Optional[str]) -> None:
        if error is not None:
            return
        kind = record.kind
        if kind in ("vcpu_hotplug", "vcpu_unplug"):
            self.seen += 1
            src = f"{record.source}/vcpu{record.detail}"
            if kind == "vcpu_hotplug":
                if src in self._online:
                    self.report(record, f"hotplug of already-online vcpu{record.detail}")
                self._online.add(src)
                self._awaiting_boot.add(src)
                self._unplugged.discard(src)
            else:
                if src not in self._online:
                    self.report(record, f"unplug of absent vcpu{record.detail}")
                self._online.discard(src)
                self._awaiting_boot.discard(src)
                self._unplugged.add(src)
            return
        src = record.source
        old, new = record.detail
        if src in self._awaiting_boot:
            self.seen += 1
            self._awaiting_boot.discard(src)
            if (old, new) != ("init", "exited"):
                self.report(
                    record,
                    f"hotplugged vCPU entered as {old!r} -> {new!r}, expected init -> exited",
                )
        elif src in self._unplugged:
            self.seen += 1
            if new != "off":
                self.report(record, f"state change {old!r} -> {new!r} after unplug")
        else:
            self._online.add(src)


def default_checkers(mode: Optional[TickMode] = None) -> list[Checker]:
    """The full battery; ``mode`` enables mode-specific invariants."""
    return [
        SchemaChecker(),
        VcpuStateChecker(),
        PreemptionTimerChecker(),
        LapicChecker(),
        GuestDeadlineChecker(),
        CntvChecker(),
        TickSchedChecker(mode),
        InjectChecker(mode),
        SuspendSpanChecker(),
        RestoreMonotonicChecker(),
        HotplugChecker(),
    ]


#: ``TraceRecord(...)`` without the Python-level ``__new__`` call.
_new_record = tuple.__new__


class TickSanitizer(Tracer):
    """A tracer that runs the checker battery on every record, online.

    Each record is validated once against the event schema and handed,
    with that verdict, only to the checkers whose ``kinds`` consume it;
    the per-kind route is built on the kind's first record, so the
    battery is fixed once records flow.

    Attach directly (``run_workload(..., tracer=TickSanitizer())``) or
    alongside another tracer through :class:`~repro.sim.trace.TeeTracer`.
    It also tallies ``vmexit`` records per (reason, tag) so the exit
    counters can be reconciled afterwards
    (:func:`repro.analysis.reconcile.reconcile_exits`).
    """

    enabled = True

    def __init__(self, checkers: Optional[Iterable[Checker]] = None,
                 mode: Optional[TickMode] = None):
        self.checkers = list(checkers) if checkers is not None else default_checkers(mode)
        self.events = 0
        #: (reason_value, tag_value) -> traced exit count.
        self.exit_tally: dict[tuple[str, str], int] = {}
        self._finished = False
        #: kind -> (schema check, the ``on_event`` handlers that consume it).
        self._routes: dict[str, tuple[Callable[[str, Any], Optional[str]], tuple]] = {}

    def _route(self, kind: str) -> tuple:
        handlers = [c.on_event for c in self.checkers if consumes(c, kind)]
        if kind == "vmexit":
            handlers.append(self._tally_exit)
        route = self._routes[kind] = (ev.validator_for(kind), tuple(handlers))
        return route

    def _tally_exit(self, record: TraceRecord, error: Optional[str]) -> None:
        detail = record.detail
        if isinstance(detail, tuple) and len(detail) == 2:
            self.exit_tally[detail] = self.exit_tally.get(detail, 0) + 1

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        self.events += 1
        route = self._routes.get(kind)
        if route is None:
            route = self._route(kind)
        check, handlers = route
        if handlers:
            record = _new_record(TraceRecord, (time, source, kind, detail))
            error = check(kind, detail)
            for on_event in handlers:
                on_event(record, error)

    def feed(self, records: Iterable[TraceRecord]) -> "TickSanitizer":
        """Replay an existing record stream (offline checking)."""
        for r in records:
            self.emit(r.time, r.source, r.kind, r.detail)
        return self

    def finish(self) -> list[Violation]:
        """Run end-of-stream checks once and return all violations."""
        if not self._finished:
            self._finished = True
            for checker in self.checkers:
                checker.finish()
        return self.violations

    @property
    def violations(self) -> list[Violation]:
        out: list[Violation] = []
        for checker in self.checkers:
            out.extend(checker.violations)
        out.sort(key=lambda v: (v.time, v.checker))
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        """One line per checker: records inspected and violations found."""
        parts = [f"{c.name}: {c.seen} seen, {len(c.violations)} bad" for c in self.checkers]
        return f"{self.events} events | " + "; ".join(parts)
