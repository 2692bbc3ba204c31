"""Fixed-bucket log2 latency histograms and the trace-fed recorder.

The paper reports aggregate counts; when hunting a hot path you need
*distributions* — how long one exit round-trip takes, how late a timer
fires, how long a woken vCPU waits for its CPU. :class:`Log2Histogram`
is an HDR-style fixed-layout histogram (64 power-of-two buckets covers
1 ns .. ~584 years), so recording is O(1), memory is constant, and two
histograms merge bucket-wise — the same design as Linux's BPF
``lh_hist`` and HdrHistogram's coarsest setting.

:class:`LatencyRecorder` is a :class:`~repro.sim.trace.Tracer` sink that
derives the four paper-relevant latencies from the structured event
stream online (nothing is retained):

* ``exit_rt/<reason>`` — VM-exit round trip: ``vmexit`` until the vCPU
  leaves the EXITED state (guest re-entry, halt, or READY queueing);
* ``timer_skew`` — deadline arm → fire lateness (fire time minus the
  programmed expiry; the checkers guarantee it is never negative);
* ``wake_dispatch`` — interrupt wake of a halted vCPU until it is back
  in guest mode (includes READY steal time under overcommit);
* ``tick_deliver`` — guest timer deadline fire until the tick's vector
  is injected at VM entry (the tick *delivery* latency; the in-guest
  handler cost is cycle-accounted, not event-delimited).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.hw.interrupts import Vector
from repro.sim.trace import Tracer

#: Bucket count: bucket ``b`` holds values with ``bit_length() == b``,
#: i.e. the half-open range ``[2^(b-1), 2^b)`` ns; bucket 0 holds 0.
N_BUCKETS = 64


class Log2Histogram:
    """Fixed-layout power-of-two histogram of non-negative ns values."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * N_BUCKETS
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max = 0

    def record(self, value: int) -> None:
        """Record one observation (negative values are a caller bug)."""
        if value < 0:
            raise ValueError(f"latency cannot be negative: {value}")
        b = min(value.bit_length(), N_BUCKETS - 1)
        self.counts[b] += 1
        self.count += 1
        self.total += value
        self.max = max(self.max, value)
        self.min = value if self.min is None else min(self.min, value)

    def merge(self, other: "Log2Histogram") -> "Log2Histogram":
        """Bucket-wise sum (for aggregating per-run histograms)."""
        out = Log2Histogram()
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.count = self.count + other.count
        out.total = self.total + other.total
        out.max = max(self.max, other.max)
        mins = [m for m in (self.min, other.min) if m is not None]
        out.min = min(mins) if mins else None
        return out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Approximate p-th percentile (bucket geometric midpoint).

        Resolution is the bucket width (a factor of two) — good enough
        to tell a 2 us exit from a 200 us steal stall, which is what a
        log histogram is for.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0
        target = p / 100.0 * self.count
        seen = 0
        for b, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                if b == 0:
                    return 0
                lo, hi = 1 << (b - 1), (1 << b) - 1
                mid = (lo + hi) // 2
                # Clamp to the observed envelope so tiny samples do not
                # report a midpoint outside [min, max].
                return max(self.min or 0, min(mid, self.max))
        return self.max  # pragma: no cover - unreachable (seen==count)

    def nonzero_buckets(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(low_ns, high_ns, count)`` for occupied buckets."""
        for b, c in enumerate(self.counts):
            if c:
                lo = 0 if b == 0 else 1 << (b - 1)
                hi = 0 if b == 0 else (1 << b) - 1
                yield lo, hi, c

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "total_ns": self.total,
            "min_ns": self.min,
            "max_ns": self.max,
            "buckets": {str(b): c for b, c in enumerate(self.counts) if c},
        }

    def summary(self) -> dict[str, float]:
        """The headline numbers a report row shows."""
        return {
            "count": self.count,
            "mean_ns": self.mean,
            "p50_ns": self.percentile(50),
            "p95_ns": self.percentile(95),
            "p99_ns": self.percentile(99),
            "max_ns": self.max,
        }


class HistogramRegistry:
    """Named histograms, created on first use."""

    def __init__(self) -> None:
        self._hists: dict[str, Log2Histogram] = {}

    def get(self, name: str) -> Log2Histogram:
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = Log2Histogram()
        return h

    def record(self, name: str, value: int) -> None:
        self.get(name).record(value)

    def names(self) -> list[str]:
        return sorted(self._hists)

    def items(self) -> list[tuple[str, Log2Histogram]]:
        return sorted(self._hists.items())

    def __len__(self) -> int:
        return len(self._hists)

    def to_json_dict(self) -> dict:
        return {name: h.to_json_dict() for name, h in self.items()}

    def summary_rows(self) -> list[tuple[str, str, str, str, str, str]]:
        """Rows for :func:`repro.metrics.report.format_table`."""
        from repro.sim.timebase import fmt_time

        rows = []
        for name, h in self.items():
            s = h.summary()
            rows.append((
                name,
                f"{h.count:,}",
                fmt_time(int(s["p50_ns"])),
                fmt_time(int(s["p95_ns"])),
                fmt_time(int(s["p99_ns"])),
                fmt_time(int(s["max_ns"])),
            ))
        return rows


#: Vectors that carry a guest tick (LOCAL_TIMER or the paratick virtual
#: tick) — used to close ``tick_deliver`` measurements.
_TICK_VECTORS = frozenset({int(Vector.LOCAL_TIMER), int(Vector.PARATICK_VIRTUAL_TICK)})


class LatencyRecorder(Tracer):
    """Streams trace events into the latency histogram registry."""

    enabled = True
    kinds = frozenset({"vmexit", "vcpu_state", "deadline_fire", "lapic_fire", "inject"})

    def __init__(self, registry: Optional[HistogramRegistry] = None) -> None:
        self.registry = registry if registry is not None else HistogramRegistry()
        #: source -> (exit time, reason) of the in-flight exit.
        self._open_exit: dict[str, tuple[int, str]] = {}
        #: source -> wake time (halted -> exited transition).
        self._open_wake: dict[str, int] = {}
        #: source -> fire time of a not-yet-injected guest tick.
        self._open_tick: dict[str, int] = {}

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        if kind == "vmexit":
            if isinstance(detail, tuple) and len(detail) == 2:
                self._open_exit[source] = (time, detail[0])
        elif kind == "vcpu_state":
            if not (isinstance(detail, tuple) and len(detail) == 2):
                return
            old, new = detail
            if old == "exited":
                opened = self._open_exit.pop(source, None)
                if opened is not None:
                    t0, reason = opened
                    self.registry.record(f"exit_rt/{reason}", time - t0)
            if old == "halted" and new == "exited":
                self._open_wake[source] = time
            elif new == "guest":
                t0 = self._open_wake.pop(source, None)
                if t0 is not None:
                    self.registry.record("wake_dispatch", time - t0)
        elif kind == "deadline_fire":
            if isinstance(detail, tuple) and len(detail) == 2 and isinstance(detail[0], int):
                self.registry.record("timer_skew", max(0, time - detail[0]))
                self._open_tick[source] = time
        elif kind == "lapic_fire":
            # Collapse the vLAPIC sub-source onto its owning vCPU so the
            # subsequent inject (emitted by the executor) closes it.
            from repro.analysis.events import vcpu_of

            self._open_tick[vcpu_of(source)] = time
        elif kind == "inject":
            if isinstance(detail, tuple) and not _TICK_VECTORS.isdisjoint(detail):
                t0 = self._open_tick.pop(source, None)
                if t0 is not None:
                    self.registry.record("tick_deliver", time - t0)

    def to_json_dict(self) -> dict:
        return self.registry.to_json_dict()
