"""Base class for queueing I/O devices.

A device accepts requests, services them one at a time (queue depth 1 —
the paper's fio runs use the sync engine, so there is never more than one
outstanding request per job anyway) and signals completion through a
callback. Service time comes from a per-device latency model plus
deterministic per-stream jitter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import HardwareError
from repro.sim.stats import OnlineStats

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


@dataclass
class IoRequest:
    """One device request."""

    op: str  # "read" | "write"
    offset: int
    size: int
    submit_ns: int = 0
    complete_ns: int = 0
    #: Opaque cookie for the submitter (e.g. the waiting guest task).
    cookie: object = None


CompletionFn = Callable[[IoRequest], None]


class IoDevice:
    """Queue-depth-1 device with a pluggable service-time model."""

    def __init__(self, sim: Simulator, name: str, complete_fn: CompletionFn):
        self.sim = sim
        self.name = name
        self._complete_fn = complete_fn
        self._queue: deque[IoRequest] = deque()
        self._busy = False
        #: Completed-request service-time statistics (ns).
        self.service_stats = OnlineStats()
        self.completed = 0

    # ------------------------------------------------------------ interface

    def service_time_ns(self, req: IoRequest) -> int:
        """Service latency for ``req``; subclasses implement the model."""
        raise NotImplementedError

    def submit(self, req: IoRequest) -> None:
        """Enqueue a request; it completes via the completion callback."""
        if req.size <= 0:
            raise HardwareError(f"{self.name}: request size must be positive")
        if req.op not in ("read", "write"):
            raise HardwareError(f"{self.name}: unknown op {req.op!r}")
        req.submit_ns = self.sim.now
        self._queue.append(req)
        if not self._busy:
            self._start_next()

    @property
    def queue_depth(self) -> int:
        """Requests waiting or in service."""
        return len(self._queue) + (1 if self._busy else 0)

    # ------------------------------------------------------------- internals

    def _start_next(self) -> None:
        if not self._queue:
            return
        self._busy = True
        req = self._queue.popleft()
        dur = self.service_time_ns(req)
        if dur < 0:
            raise HardwareError(f"{self.name}: negative service time {dur}")
        self.sim.schedule(dur, self._finish, req)

    def _finish(self, req: IoRequest) -> None:
        req.complete_ns = self.sim.now
        self.completed += 1
        self.service_stats.add(req.complete_ns - req.submit_ns)
        self._busy = False
        # Deliver completion before starting the next request so the
        # submitter observes strict FIFO completion order.
        self._complete_fn(req)
        self._start_next()
