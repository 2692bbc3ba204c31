"""Discrete-event simulation substrate.

Integer-nanosecond event engine with deterministic RNG streams,
generator-based processes, tracing and online statistics. This layer is
domain-agnostic: the virtualization model (:mod:`repro.hw`,
:mod:`repro.host`, :mod:`repro.guest`) is built entirely on top of it.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    engine="Simulator",
    events="Event EventQueue",
    process="Delay Process Signal WaitSignal",
    rng="RngStreams",
    stats="OnlineStats",
    timebase="NSEC USEC MSEC SEC CpuClock fmt_time hz_to_period_ns",
    trace="NullTracer RingTracer TraceRecord Tracer",
)

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "Process",
    "Delay",
    "Signal",
    "WaitSignal",
    "RngStreams",
    "OnlineStats",
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "CpuClock",
    "fmt_time",
    "hz_to_period_ns",
    "Tracer",
    "NullTracer",
    "RingTracer",
    "TraceRecord",
]
