#!/usr/bin/env python3
"""Record the result digests the benchmark checks every cell against.

Run from the repository root, at a commit whose results are trusted::

    python3 perfbench/record_expected.py [--workload NAME ...]

Writes ``perfbench/expected/<workload>.json``, mapping each input
variant (``seed % VARIANTS``; ``window`` for the fuzz workload, whose
input does not depend on the seed) to ``{cell id: digest}``. Fleet
aggregates are recorded under ``<fleet>#aggregate``. Refuses to write
when a cell fails a check of its own (a fuzz seed that is not ok, a
cell without a result).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import EXPECTED_DIR, VARIANTS, WORKLOADS, MatrixWarm  # noqa: E402

WORKDIR = HERE.parent / ".perfbench" / "record"


def record(name: str) -> dict:
    cls = WORKLOADS[name]
    out = {}
    for seed in range(VARIANTS):
        wl = cls(seed)
        key = wl.expected_key()
        if key in out:
            continue
        shutil.rmtree(WORKDIR, ignore_errors=True)
        inputs = wl.setup(WORKDIR / "setup")
        if isinstance(wl, MatrixWarm):
            digests = dict(inputs.digests)
            missing = [i for i in inputs.ids if i not in digests]
        else:
            batch = wl.run_batch(inputs, WORKDIR)
            digests = {c.id: c.digest for c in batch.cells}
            digests.update(batch.notes.get("aggregates", {}))
            missing = [f"{c.id}: {c.problem or 'no result'}" for c in batch.cells
                       if c.digest is None
                       or (not c.ok and not c.problem.startswith("fleet aggregate"))]
        if missing:
            raise SystemExit(f"{name} variant {key}: refusing to record, "
                             f"{len(missing)} bad cell(s), first: {missing[0]}")
        out[key] = dict(sorted(digests.items()))
        print(f"{name} {key}: {len(digests)} digests", file=sys.stderr)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        doc = record(name)
        (EXPECTED_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
