"""Sanitizer verdicts pinned against a fixture captured from the
un-routed sanitizer (every checker offered every record).

Two families of evidence, both compared for exact equality:

* **runs** — fuzz cells (x86 seeds 0–19 × 3 modes × solo/overcommit,
  ARM seeds 0–9 × 3 modes solo, perturbed seeds 0–9 × 3 modes ×
  solo/overcommit): per-checker ``seen``/``bad`` (the sanitizer
  summary), the record count, the traced exit tally and the full
  problem list of the sanitized run;
* **mutations** — five recorded traces replayed through a
  ``TeeTracer(TickSanitizer, StealTracker)`` after a deterministic
  mutation (drop the k-th record, duplicate an arm, replace a detail
  with a malformed value, rename a kind to an unregistered one); the
  full violation list and the reconstructed steal are pinned for each.

Routing records by kind must not change a single verdict, so this
fixture is never re-captured to make a routing change pass. Re-capture
only for an intended verdict change::

    PYTHONPATH=src python tests/analysis/test_sanitizer_routing.py --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import fuzz
from repro.analysis.checkers import TickSanitizer
from repro.config import TickMode
from repro.experiments.parallel import run_spec
from repro.obs.steal import StealTracker
from repro.sim.trace import CallbackTracer, TeeTracer, TraceRecord

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "sanitizer_routing.json"

#: (family, seeds, arch, placements, perturbed)
RUN_FAMILIES = (
    ("x86", range(20), "x86", (fuzz.SOLO, fuzz.OVERCOMMIT), False),
    ("arm", range(10), "arm", (fuzz.SOLO,), False),
    ("perturb", range(10), "x86", (fuzz.SOLO, fuzz.OVERCOMMIT), True),
)

#: (name, seed, arch, placement, perturbed, mode) of the mutated traces.
TRACES = (
    ("x86-perturb-tickless", 2, "x86", fuzz.OVERCOMMIT, True, TickMode.TICKLESS),
    ("x86-perturb-periodic", 4, "x86", fuzz.OVERCOMMIT, True, TickMode.PERIODIC),
    ("arm-tickless", 4, "arm", fuzz.SOLO, False, TickMode.TICKLESS),
    # vCPU 2 is plugged, unplugged and re-plugged at the same index.
    ("x86-replug-tickless", 35, "x86", fuzz.SOLO, True, TickMode.TICKLESS),
    # Host-scheduler dispatches and virtual ticks after a suspend.
    ("x86-perturb-paratick", 36, "x86", fuzz.OVERCOMMIT, True, TickMode.PARATICK),
)

#: Kinds that arm a timer or open a span; "duplicate an arm" copies one.
ARM_KINDS = (
    "lapic_arm", "ptimer_start", "deadline_set", "hostdl_arm", "cntv_cval", "cntv_ctl",
    "vm_suspend", "vcpu_hotplug",
)

#: Replacement details: ill-typed for every kind, or well-typed but
#: illegal for some (an unknown vector, an expiry in the distant past).
MALFORMED = ("malformed", (999,), 0)

#: Evenly spaced drop positions per trace, besides each kind's first record.
DROP_POINTS = 16


def _perturbations(seed: int, perturbed: bool):
    if not perturbed:
        return ()
    return fuzz.perturbations_for_seed(seed, fuzz.scenario_for_seed(seed).horizon_ns)


def _family(name: str):
    return next(f for f in RUN_FAMILIES if f[0] == name)


def run_entries(family: str, seed: int) -> dict:
    """Every (mode, placement) cell of one seed in one family."""
    _name, _seeds, arch, placements, perturbed = _family(family)
    scenario = fuzz.scenario_for_seed(seed)
    out = {}
    for placement in placements:
        for mode in TickMode:
            _metrics, san, problems = fuzz.run_scenario(
                scenario, mode, placement=placement,
                perturbations=_perturbations(seed, perturbed), arch=arch,
            )
            out[f"{mode.value}/{placement}"] = {
                "summary": san.summary(),
                "events": san.events,
                "exit_tally": {f"{r}/{t}": n for (r, t), n in sorted(san.exit_tally.items())},
                "problems": problems,
            }
    return out


def record_trace(name: str) -> tuple[list[TraceRecord], TickMode]:
    _name, seed, arch, placement, perturbed, mode = next(t for t in TRACES if t[0] == name)
    spec = fuzz.scenario_spec(
        fuzz.scenario_for_seed(seed), mode, placement=placement,
        perturbations=_perturbations(seed, perturbed), arch=arch,
    )
    records: list[TraceRecord] = []
    run_spec(spec, tracer=CallbackTracer(records.append))
    return records, mode


def _digest(records) -> str:
    return hashlib.sha256("\n".join(map(str, records)).encode()).hexdigest()


def mutations(records: list[TraceRecord]):
    """Deterministic ``(label, mutated records)`` pairs over one trace."""
    first: dict[str, int] = {}
    by_kind: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        first.setdefault(r.kind, i)
        by_kind.setdefault(r.kind, []).append(i)
    n = len(records)
    drops = sorted(set(first.values()) | {i * n // DROP_POINTS for i in range(DROP_POINTS)})
    for k in drops:
        yield f"drop/{k}", records[:k] + records[k + 1:]
    for kind in ARM_KINDS:
        idxs = by_kind.get(kind)
        for k in sorted({idxs[0], idxs[len(idxs) // 2]}) if idxs else ():
            yield f"dup/{kind}/{k}", records[:k + 1] + [records[k]] + records[k + 1:]
    for kind in sorted(by_kind):
        idxs = by_kind[kind]
        for k in sorted({idxs[0], idxs[len(idxs) // 2]}):
            r = records[k]
            for bad in MALFORMED:
                yield (f"malformed/{kind}/{k}/{bad!r}",
                       records[:k] + [TraceRecord(r.time, r.source, r.kind, bad)] + records[k + 1:])
            yield (f"rename/{kind}/{k}",
                   records[:k] + [TraceRecord(r.time, r.source, f"{kind}_v2", r.detail)]
                   + records[k + 1:])


def verdict(records, mode: TickMode) -> dict:
    """Replay ``records`` through a sanitizer + steal tee."""
    san, steal = TickSanitizer(mode=mode), StealTracker()
    tee = TeeTracer(san, steal)
    for r in records:
        tee.emit(r.time, r.source, r.kind, r.detail)
    return {
        "violations": [str(v) for v in san.finish()],
        "summary": san.summary(),
        "steal": steal.to_json_dict(),
    }


def trace_entry(name: str) -> dict:
    records, mode = record_trace(name)
    return {
        "records": len(records),
        "digest": _digest(records),
        "clean": verdict(records, mode),
        "mutations": {label: verdict(recs, mode) for label, recs in mutations(records)},
    }


def capture() -> dict:
    return {
        "runs": {
            f"{family}/{seed}": run_entries(family, seed)
            for family, seeds, *_ in RUN_FAMILIES for seed in seeds
        },
        "traces": {name: trace_entry(name) for name, *_ in TRACES},
    }


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "family,seed",
    [(family, seed) for family, seeds, *_ in RUN_FAMILIES for seed in seeds],
)
def test_run_verdicts_match_fixture(fixture, family, seed):
    assert run_entries(family, seed) == fixture["runs"][f"{family}/{seed}"]


@pytest.mark.parametrize("name", [t[0] for t in TRACES])
def test_mutation_verdicts_match_fixture(fixture, name):
    want = fixture["traces"][name]
    records, mode = record_trace(name)
    # The recorded stream itself is pinned, so a mismatch below is a
    # verdict change, not a simulation change.
    assert (len(records), _digest(records)) == (want["records"], want["digest"])
    assert verdict(records, mode) == want["clean"]
    got = dict(mutations(records))
    assert sorted(got) == sorted(want["mutations"])
    for label, recs in got.items():
        assert verdict(recs, mode) == want["mutations"][label], label


def test_mutations_exercise_every_checker(fixture):
    """The corpus is only proof if each checker flags something in it."""
    flagged = {
        v.split(": ", 1)[0].split("] ", 1)[1]
        for t in fixture["traces"].values()
        for m in t["mutations"].values()
        for v in m["violations"]
    }
    names = {c.name for c in TickSanitizer().checkers}
    assert names <= flagged, sorted(names - flagged)


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(__doc__)
    FIXTURE.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
