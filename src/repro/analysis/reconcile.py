"""Post-run reconciliation: trace vs counters vs cycle ledger.

The streaming checkers (:mod:`repro.analysis.checkers`) validate event
*sequences*; this module cross-checks the three independent accounting
systems of a finished run against each other:

* the sanitizer's per-``(reason, tag)`` tally of traced ``vmexit``
  events against the hypervisor's :class:`~repro.metrics.counters.ExitCounters`
  — both count every exit, through entirely separate code paths, so any
  drift means an exit was counted but not traced (or vice versa);
* the per-domain busy-ns ledger against the headline cycle totals
  (``total_cycles``/``useful_cycles``/``overhead_cycles`` are all
  derived from it, at a known clock);
* the per-CPU timeline invariant ``busy_ns − HOST_TICK − HOST_IO ≤
  elapsed`` (those two domains are booked without occupying the vCPU
  timeline — see :mod:`repro.hw.cpu`).

All functions return a list of human-readable problem strings; empty
means reconciled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.analysis.checkers import TickSanitizer
from repro.config import TickMode
from repro.errors import ReproError
from repro.hw.cpu import CycleDomain, Machine, OVERHEAD_DOMAINS
from repro.metrics.perf import RunMetrics
from repro.sim.timebase import CpuClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Domains that run concurrently with the vCPU timeline (see hw.cpu).
_OFF_TIMELINE = (CycleDomain.HOST_TICK, CycleDomain.HOST_IO)


def reconcile_exits(sanitizer: "TickSanitizer", metrics: RunMetrics) -> list[str]:
    """Compare the trace-observed exit tally against ExitCounters."""
    problems: list[str] = []
    counted = {
        (k.reason.value, k.tag.value): c for k, c in metrics.exits.breakdown().items()
    }
    for key in sorted(set(counted) | set(sanitizer.exit_tally)):
        traced = sanitizer.exit_tally.get(key, 0)
        booked = counted.get(key, 0)
        if traced != booked:
            problems.append(
                f"exit {key[0]}/{key[1]}: traced {traced} times but counted {booked}"
            )
    return problems


def check_ledger(metrics: RunMetrics, freq_hz: int) -> list[str]:
    """Cycle-ledger conservation at the machine's nominal clock."""
    problems: list[str] = []
    clock = CpuClock(freq_hz)
    ledger = metrics.ledger
    for domain, ns in ledger.items():
        if ns < 0:
            problems.append(f"ledger[{domain.value}] is negative: {ns}")
    total_ns = sum(ledger.values())
    if clock.ns_to_cycles(total_ns) != metrics.total_cycles:
        problems.append(
            f"sum(ledger) = {total_ns}ns = {clock.ns_to_cycles(total_ns)} cycles "
            f"but total_cycles = {metrics.total_cycles}"
        )
    useful_ns = ledger.get(CycleDomain.GUEST_USER, 0)
    if clock.ns_to_cycles(useful_ns) != metrics.useful_cycles:
        problems.append(
            f"ledger[guest_user] = {useful_ns}ns but useful_cycles = {metrics.useful_cycles}"
        )
    overhead_ns = sum(ns for d, ns in ledger.items() if d in OVERHEAD_DOMAINS)
    if clock.ns_to_cycles(overhead_ns) != metrics.overhead_cycles:
        problems.append(
            f"overhead domains sum to {overhead_ns}ns "
            f"but overhead_cycles = {metrics.overhead_cycles}"
        )
    # Floor rounding makes each part <= the whole; a breach means a
    # domain was double-booked as both useful and overhead.
    if metrics.useful_cycles + metrics.overhead_cycles > metrics.total_cycles:
        problems.append(
            f"useful ({metrics.useful_cycles}) + overhead ({metrics.overhead_cycles}) "
            f"exceed total_cycles ({metrics.total_cycles})"
        )
    return problems


def check_counters(metrics: RunMetrics) -> list[str]:
    """Internal consistency of the merged ExitCounters."""
    problems: list[str] = []
    exits = metrics.exits
    by_key = sum(exits.breakdown().values())
    if by_key != exits.total:
        problems.append(f"breakdown sums to {by_key} but total is {exits.total}")
    by_vcpu = sum(int(c) for c in exits.to_dict()["by_vcpu"].values())
    if by_vcpu != exits.total:
        problems.append(f"per-vCPU counts sum to {by_vcpu} but total is {exits.total}")
    return problems


def check_machine(machine: Machine, now_ns: int) -> list[str]:
    """Per-CPU timeline invariant at simulation end."""
    problems: list[str] = []
    for cpu in machine.cpus:
        on_timeline = cpu.busy_ns() - sum(cpu.busy_ns(d) for d in _OFF_TIMELINE)
        if on_timeline > now_ns:
            problems.append(
                f"cpu{cpu.index}: timeline busy {on_timeline}ns exceeds "
                f"elapsed {now_ns}ns"
            )
    return problems


def check_steal(
    steal_tracker,
    hv,
    machine: Optional[Machine] = None,
    now_ns: Optional[int] = None,
) -> list[str]:
    """Steal-time reconciliation (trace vs runtime vs busy timeline).

    ``steal_tracker`` is a :class:`repro.obs.steal.StealTracker` that
    observed the run's event stream. Two independent derivations of
    steal must agree exactly (dispatch-closed trace intervals vs the
    executors' runtime counters), and no vCPU's steal on a pCPU may
    exceed that CPU's on-timeline busy time — a stolen nanosecond is by
    definition a nanosecond someone else was using.
    """
    problems = steal_tracker.reconcile_runtime(hv)
    if machine is not None and now_ns is not None:
        problems += steal_tracker.reconcile_timeline(machine, now_ns)
    return problems


def reconcile_run(
    sanitizer: "TickSanitizer",
    metrics: RunMetrics,
    *,
    freq_hz: int,
    machine: Optional[Machine] = None,
    now_ns: Optional[int] = None,
    steal_tracker=None,
    hv=None,
) -> list[str]:
    """The full post-run battery; empty list means everything agrees."""
    problems = reconcile_exits(sanitizer, metrics)
    problems += check_ledger(metrics, freq_hz)
    problems += check_counters(metrics)
    if machine is not None and now_ns is not None:
        problems += check_machine(machine, now_ns)
    if steal_tracker is not None and hv is not None:
        problems += check_steal(steal_tracker, hv, machine, now_ns)
    return problems


def sanitized_run(
    run: Callable[..., RunMetrics], mode: TickMode
) -> tuple[Optional[RunMetrics], TickSanitizer, list[str]]:
    """One run under the full checking battery: ``(metrics, sanitizer, problems)``.

    ``run(tracer, inspect)`` performs the run with the given hooks. A
    :class:`~repro.analysis.checkers.TickSanitizer` and a
    :class:`~repro.obs.steal.StealTracker` ride the trace through a tee;
    afterwards :func:`reconcile_run` cross-checks the trace, the
    counters, the per-CPU ledgers and steal. A run that raises
    :class:`~repro.errors.ReproError` yields no metrics and a single
    "run failed" problem.
    """
    from repro.obs.steal import StealTracker
    from repro.sim.trace import TeeTracer

    sanitizer = TickSanitizer(mode=mode)
    steal = StealTracker()
    seen: dict = {}

    def inspect(sim, machine, hv, vms) -> None:
        seen.update(machine=machine, now_ns=sim.now, hv=hv)

    try:
        metrics = run(TeeTracer(sanitizer, steal), inspect)
    except ReproError as exc:
        sanitizer.finish()
        return None, sanitizer, [f"run failed: {type(exc).__name__}: {exc}"]
    problems = [str(v) for v in sanitizer.finish()]
    problems += reconcile_run(
        sanitizer, metrics, freq_hz=seen["machine"].spec.freq_hz,
        steal_tracker=steal, **seen,
    )
    return metrics, sanitizer, problems
