"""Lightweight structured tracing for simulation runs.

Tracing is how we debugged the tick-sched state machines and how the
integration tests assert *sequences* of behaviour (e.g. "idle entry is
followed by exactly one MSR-write exit in tickless mode, none in
paratick"). Production experiment runs use :class:`NullTracer`, which
compiles down to a single attribute check on the hot path.

A sink declares the kinds it consumes as a class-level ``kinds``
frozenset (``None``, the default, means every kind); :class:`TeeTracer`
delivers each record only to the sinks that consume its kind.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, NamedTuple, Optional


class TraceRecord(NamedTuple):
    """One trace entry: ``(time, source, kind, detail)``."""

    time: int
    source: str
    kind: str
    detail: Any = None

    def __str__(self) -> str:
        d = f" {self.detail}" if self.detail is not None else ""
        return f"[{self.time:>12}ns] {self.source}: {self.kind}{d}"


class Tracer:
    """Base tracer interface."""

    #: Fast-path flag: components skip building detail objects when False.
    enabled: bool = True
    #: Kinds this sink consumes; None means every kind.
    kinds: Optional[frozenset[str]] = None

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        raise NotImplementedError


class NullTracer(Tracer):
    """Discards everything; ``enabled`` is False so callers skip work."""

    enabled = False

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        pass


class RingTracer(Tracer):
    """Keeps the last ``capacity`` records in memory.

    Optionally filters by ``kinds`` (an iterable of kind strings) so long
    runs can trace only the events of interest. The filter is applied
    here, not by routing: every record counts toward :attr:`offered`,
    so the ring consumes every kind (its :meth:`kinds` is a histogram,
    not a routing declaration).
    """

    enabled = True

    def __init__(self, capacity: int = 100_000, kinds: Optional[Iterable[str]] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.records: deque[TraceRecord] = deque(maxlen=capacity)
        self._kinds = frozenset(kinds) if kinds is not None else None
        #: Total records offered, including ones filtered or evicted.
        self.offered = 0
        #: Records evicted by capacity overflow. Consumers (profiler,
        #: trace export) must surface a non-zero count instead of
        #: silently under-reporting the head of the run.
        self.dropped = 0

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        self.offered += 1
        if self._kinds is not None and kind not in self._kinds:
            return
        if len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append(TraceRecord(time, source, kind, detail))

    @property
    def truncated(self) -> bool:
        """True when the ring evicted records (output is a suffix)."""
        return self.dropped > 0

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All retained records of one kind, in time order."""
        return [r for r in self.records if r.kind == kind]

    def kinds(self) -> dict[str, int]:
        """Histogram of retained record kinds."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out


class CallbackTracer(Tracer):
    """Forwards every record to a callable (used by the CLI ``--trace``)."""

    enabled = True

    def __init__(self, fn: Callable[[TraceRecord], None]):
        self._fn = fn

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        self._fn(TraceRecord(time, source, kind, detail))


def consumed_kinds(sink: Any) -> Optional[frozenset[str]]:
    """The kinds ``sink`` declares it consumes, or None for every kind.

    Only a frozenset is a declaration; anything else (unset, or a
    method such as :meth:`RingTracer.kinds`) routes every kind.
    """
    kinds = getattr(sink, "kinds", None)
    return kinds if isinstance(kinds, frozenset) else None


def consumes(sink: Any, kind: str) -> bool:
    """Whether ``sink`` is to be handed records of ``kind``."""
    kinds = consumed_kinds(sink)
    return kinds is None or kind in kinds


def union_kinds(sinks: Iterable[Any]) -> Optional[frozenset[str]]:
    """The kinds any of ``sinks`` consumes; None if one consumes all."""
    out: frozenset[str] = frozenset()
    for s in sinks:
        kinds = consumed_kinds(s)
        if kinds is None:
            return None
        out |= kinds
    return out


class TeeTracer(Tracer):
    """Fans every record out to the sinks that consume its kind.

    This is how an analysis sink (e.g. the invariant sanitizer in
    :mod:`repro.analysis`) rides along with a user-facing tracer: both
    attach as sinks and see the identical stream, filtered by each
    sink's ``kinds``. The route for a kind is built on its first record,
    so a kind no sink consumes costs one dict probe. ``enabled`` is True
    iff any sink is enabled, so the NullTracer fast path is preserved
    when every sink is disabled; disabled sinks are never routed to.
    """

    def __init__(self, *sinks: Tracer):
        if not sinks:
            raise ValueError("TeeTracer needs at least one sink")
        self.sinks = tuple(sinks)
        self.enabled = any(s.enabled for s in self.sinks)
        self.kinds = union_kinds(s for s in self.sinks if s.enabled)
        self._routes: dict[str, tuple[Callable[..., None], ...]] = {}

    def _route(self, kind: str) -> tuple[Callable[..., None], ...]:
        route = self._routes[kind] = tuple(
            s.emit for s in self.sinks if s.enabled and consumes(s, kind)
        )
        return route

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        route = self._routes.get(kind)
        if route is None:
            route = self._route(kind)
        for emit in route:
            emit(time, source, kind, detail)
