"""Statistics and correctness bookkeeping of the benchmark.

Kept free of program imports so the benchmark's own tests run without
the simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples leave at least :data:`SAMPLES_BEYOND` beyond ``p``."""
    return n - math.ceil(p / 100 * n) >= SAMPLES_BEYOND


def digest(encoded: Mapping) -> str:
    """Short sha256 of a JSON-encodable result in canonical form."""
    blob = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Cell:
    """One settled cell: its id, host seconds and what was checked."""

    id: str
    seconds: float
    #: Digest of the cell's result; None when the cell produced none.
    digest: Optional[str]
    #: False when a check other than the digest failed.
    ok: bool = True
    problem: str = ""


def failures(cells: Iterable[Cell], expected: Mapping[str, str]) -> list[str]:
    """One line per failed cell.

    A cell fails when a check failed, when it produced no result, or when
    its digest differs from the expected one or has none to compare with.
    """
    out = []
    for cell in cells:
        want = expected.get(cell.id)
        if not cell.ok:
            out.append(f"{cell.id}: {cell.problem or 'check failed'}")
        elif cell.digest is None:
            out.append(f"{cell.id}: no result")
        elif want is None:
            out.append(f"{cell.id}: no expected digest")
        elif cell.digest != want:
            out.append(f"{cell.id}: digest {cell.digest} != expected {want}")
    return out
