"""VM-exit counters.

Counts exits per ``(reason, tag)`` pair and per vCPU — the raw material
for the paper's "VM exits" metric and for the trace-level assertions in
the integration tests ("tickless idle entry produces exactly one
TIMER_PROGRAM exit; paratick produces none unless a wake timer differs").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.host.exitreasons import EXIT_KEY_SLOTS, TIMER_TAGS, ExitReason, ExitTag


@dataclass(frozen=True)
class ExitRecordKey:
    """Classification key of one exit."""

    reason: ExitReason
    tag: ExitTag


_NTAGS = len(ExitTag)
#: Every key, at its slot in an :class:`ExitCounters` table.
_KEYS = tuple(ExitRecordKey(r, t) for r in ExitReason for t in ExitTag)
#: Table slots in wire order (sorted by reason value, then tag value).
_WIRE_ORDER = sorted(
    range(EXIT_KEY_SLOTS), key=lambda i: (_KEYS[i].reason.value, _KEYS[i].tag.value)
)


class ExitCounters:
    """Per-VM exit counters, also split per vCPU."""

    def __init__(self) -> None:
        #: Exits per (reason, tag), at ``reason.slot * len(ExitTag) + tag.slot``.
        self._counts = [0] * EXIT_KEY_SLOTS
        self._by_vcpu: Counter[int] = Counter()

    def record(self, vcpu_index: int, reason: ExitReason, tag: ExitTag) -> None:
        """Record one exit."""
        self._counts[reason.slot * _NTAGS + tag.slot] += 1
        self._by_vcpu[vcpu_index] += 1

    # --------------------------------------------------------------- totals

    @property
    def total(self) -> int:
        """All exits."""
        return sum(self._counts)

    def by_reason(self, reason: ExitReason) -> int:
        base = reason.slot * _NTAGS
        return sum(self._counts[base : base + _NTAGS])

    def by_tag(self, tag: ExitTag) -> int:
        return sum(self._counts[tag.slot :: _NTAGS])

    def by_tags(self, tags: Iterable[ExitTag]) -> int:
        return sum(self.by_tag(t) for t in frozenset(tags))

    @property
    def timer_related(self) -> int:
        """Exits caused by scheduler-tick management (the paper's target)."""
        return self.by_tags(TIMER_TAGS)

    def for_vcpu(self, vcpu_index: int) -> int:
        return self._by_vcpu[vcpu_index]

    def breakdown(self) -> dict[ExitRecordKey, int]:
        """Copy of the full (reason, tag) -> count table, in enum order."""
        return {k: c for k, c in zip(_KEYS, self._counts) if c}

    def tag_breakdown(self) -> dict[ExitTag, int]:
        """Exits per tag, in enum order, for tags that occurred."""
        return {t: n for t in ExitTag if (n := self.by_tag(t))}

    def merge(self, other: "ExitCounters") -> "ExitCounters":
        """Sum of two counter sets (used to aggregate multi-VM scenarios)."""
        out = ExitCounters()
        out._counts = [a + b for a, b in zip(self._counts, other._counts)]
        out._by_vcpu = self._by_vcpu + other._by_vcpu
        return out

    # --------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """JSON-safe encoding (the experiment cache stores these)."""
        counts = self._counts
        return {
            "by_key": [
                [_KEYS[i].reason.value, _KEYS[i].tag.value, counts[i]]
                for i in _WIRE_ORDER
                if counts[i]
            ],
            "by_vcpu": {str(i): c for i, c in sorted(self._by_vcpu.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExitCounters":
        """Inverse of :meth:`to_dict`; raises on malformed input."""
        out = cls()
        for reason, tag, count in data["by_key"]:
            out._counts[ExitReason(reason).slot * _NTAGS + ExitTag(tag).slot] = int(count)
        for idx, count in data["by_vcpu"].items():
            out._by_vcpu[int(idx)] = int(count)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExitCounters):
            return NotImplemented
        return self._counts == other._counts and self._by_vcpu == other._by_vcpu

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExitCounters total={self.total} timer={self.timer_related}>"
