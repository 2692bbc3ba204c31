"""Span recording and self-time accounting for the traced benchmark run.

A span is one call across a layer boundary: ``(id, name, start_ns,
end_ns, parent_id, cell)``. Times come from ``time.monotonic_ns``, the
system-wide monotonic clock, so spans recorded in pool workers line up
with the parent's.

A span's *self time* is its duration minus the part of its interval that
its child spans cover. Children of one call stack never overlap; children
recorded by several pool workers under one grid span do, which is why
coverage is an interval union and not a sum.
"""

from __future__ import annotations

import json
import time
from typing import Iterable, Optional

#: Raw spans kept for the JSON dump; totals are exact beyond this.
DEFAULT_KEEP = 20_000


def covered_ns(intervals: Iterable[tuple[int, int]],
               lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """Length of the union of ``[start, end)`` intervals, clipped to ``[lo, hi)``."""
    spans = sorted(intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in spans:
        if lo is not None:
            s = max(s, lo)
        if hi is not None:
            e = min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Iterable[tuple]) -> dict[int, int]:
    """Self time in ns of every span in ``spans``, keyed by span id.

    Each span is ``(id, name, start_ns, end_ns, parent_id, cell)``; a
    child's interval counts only where it lies inside its parent's.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, _name, start, end, parent, _cell in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered_ns(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _cell in spans
    }


def self_by_name(spans: Iterable[tuple]) -> dict[str, int]:
    """Self time in ns summed per span name."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, int] = {}
    for sid, name, *_ in spans:
        out[name] = out.get(name, 0) + own[sid]
    return out


class SpanRecorder:
    """In-memory spans of one process, with per-name totals.

    ``totals[name]`` is ``[calls, total_ns, self_ns]`` over every span
    closed so far. The first ``keep`` spans are also kept verbatim for
    :meth:`dump`; later ones update the totals only, so memory stays
    bounded on a run with millions of calls.
    """

    def __init__(self, keep: int = DEFAULT_KEEP):
        self.keep = keep
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.cell: Optional[str] = None
        #: Open spans, innermost last: ``[id, children]``.
        self.stack: list[list] = []
        self._next_id = 1

    def reset(self) -> None:
        """Forget everything (a forked worker starts from a clean slate)."""
        self.__init__(self.keep)

    def open(self) -> list:
        sid = self._next_id
        self._next_id = sid + 1
        frame = [sid, []]
        self.stack.append(frame)
        return frame

    def close(self, frame: list, name: str, start: int, end: int) -> None:
        stack = self.stack
        stack.pop()
        children = frame[1]
        dur = end - start
        if not children:
            own = dur
        elif len(children) == 1:
            s, e = children[0]
            own = dur - (min(e, end) - max(s, start))
        else:
            own = dur - covered_ns(children, start, end)
        tot = self.totals.get(name)
        if tot is None:
            self.totals[name] = [1, dur, own]
        else:
            tot[0] += 1
            tot[1] += dur
            tot[2] += own
        parent = None
        if stack:
            top = stack[-1]
            top[1].append((start, end))
            parent = top[0]
        if len(self.spans) < self.keep:
            self.spans.append((frame[0], name, start, end, parent, self.cell))
        else:
            self.dropped += 1

    def adopt(self, frame: list, name: str, start: int, end: int,
              cell: Optional[str]) -> None:
        """Add a span recorded elsewhere (a pool worker) as a child of
        the open ``frame``; its totals arrive via :meth:`merge_totals`."""
        frame[1].append((start, end))
        if len(self.spans) < self.keep:
            sid = self._next_id
            self._next_id = sid + 1
            self.spans.append((sid, name, start, end, frame[0], cell))
        else:
            self.dropped += 1

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def merge_totals(self, totals: dict[str, list[int]],
                     counts: dict[str, int]) -> None:
        """Fold another process's totals and counts into this one."""
        for name, (calls, dur, own) in totals.items():
            tot = self.totals.setdefault(name, [0, 0, 0])
            tot[0] += calls
            tot[1] += dur
            tot[2] += own
        for name, n in counts.items():
            self.count(name, n)

    def dump(self, path, **meta) -> None:
        """Write kept spans, totals and counts as one JSON document."""
        doc = {
            **meta,
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "cell"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "totals": {k: {"calls": c, "total_ns": t, "self_ns": s}
                       for k, (c, t, s) in sorted(self.totals.items())},
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _Span:
    __slots__ = ("rec", "name", "frame", "start")

    def __init__(self, rec: SpanRecorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.frame = self.rec.open()
        self.start = time.monotonic_ns()
        return self

    def __exit__(self, *exc):
        self.rec.close(self.frame, self.name, self.start, time.monotonic_ns())
        return False
