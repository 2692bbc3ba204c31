"""Golden fixtures for the bit-identical engine guarantee.

The simulation core is rewritten for throughput from time to time (free
lists, re-arm fast paths, inlined dispatch loops). Every such rewrite
must be *behaviour preserving down to the bit*: same seed, same
workload, same tick mode ⇒ the same ``RunMetrics`` JSON and the same
structured event stream. This module pins that contract with four
batteries, one :data:`BATTERIES` registry entry each:

* ``simcore`` — a hand-picked workload set per tick mode (with a
  hashing tracer riding along) plus the first 20 differential-fuzz
  scenarios per tick mode and placement (untraced, the production fast
  path);
* ``arm`` — the same battery under the ARM generic-timer backend;
* ``perturb`` — every perturbation kind under every tick mode;
* ``fleet`` — small racks at two consolidation ratios under every tick
  mode, per-host digests plus the fleet aggregate.

:func:`capture` runs a battery and writes its fixture; :func:`compare`
re-runs it against the committed fixture and reports every diverged,
missing and unpinned entry. The ``simcore`` fixture
(``tests/fixtures/golden_simcore.json``) was captured on the seed-era
engine *before* the first fast-path rewrite; the integration tests
replay every fixture on every run. Update one only when behaviour is
*intended* to change::

    PYTHONPATH=src python -m repro.analysis.golden --battery simcore --write

and call out the behaviour change in the PR description.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.analysis.fuzz import SOLO, OVERCOMMIT, scenario_for_seed, scenario_spec
from repro.config import MachineSpec, TickMode
from repro.experiments.parallel import run_spec
from repro.experiments.runner import run_workload
from repro.host.perturb import Perturbation
from repro.metrics.perf import RunMetrics
from repro.sim.timebase import MSEC, USEC
from repro.sim.trace import Tracer

#: Seeds covered by the fuzz-equivalence section.
FUZZ_SEEDS = tuple(range(20))

#: Bump when the battery itself changes shape (invalidates old files).
SCHEMA = 1

Note = Callable[[str], None]


def _canon(detail: Any) -> str:
    """Stable text form of a trace detail (tuples of ints/strs in practice)."""
    return json.dumps(detail, sort_keys=True, default=repr)


class HashTracer(Tracer):
    """Folds the full structured event stream into one SHA-256."""

    enabled = True

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.records = 0

    def emit(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        self.records += 1
        self._h.update(f"{time}|{source}|{kind}|{_canon(detail)}\n".encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def metrics_digest(metrics: RunMetrics) -> str:
    """Canonical SHA-256 of a run's full metrics JSON."""
    payload = json.dumps(metrics.to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _traced_case(workload, **kwargs) -> dict:
    """One traced run → fixture entry (metrics + event-stream hash)."""
    tracer = HashTracer()
    metrics = run_workload(workload, tracer=tracer, **kwargs)
    return {
        "metrics": metrics.to_json_dict(),
        "trace_sha256": tracer.hexdigest(),
        "trace_records": tracer.records,
    }


# ------------------------------------------------- simcore / arm battery


def _workload_cases() -> Iterator[tuple[str, Callable, dict]]:
    """(case name, workload factory, run_workload kwargs) triples.

    Factories, not instances: task bodies are single-use generators and
    each (case, mode) cell needs a fresh one.
    """
    from repro.workloads.micro import IdlePeriodWorkload, PingPongWorkload, SyncStormWorkload
    from repro.workloads.netserve import NetServiceWorkload

    yield (
        "syncstorm",
        lambda: SyncStormWorkload(threads=2, events_per_second=800.0, duration_cycles=20_000_000),
        {"seed": 3},
    )
    yield (
        "idleperiod",
        lambda: IdlePeriodWorkload(500 * USEC, iterations=30, work_cycles=100_000),
        {"seed": 5, "cpuidle": True},
    )
    yield (
        "netserve",
        lambda: NetServiceWorkload(workers=2, requests=120, think_cycles=30_000),
        {"seed": 7},
    )
    yield (
        "pingpong-overcommit",
        lambda: PingPongWorkload(rounds=120, work_cycles=50_000, same_vcpu=False),
        {
            "seed": 11,
            "machine_spec": MachineSpec(sockets=1, cpus_per_socket=1),
            "pinned_cpus": (0, 0),
        },
    )


def _run_simcore(note: Note, arch: str) -> dict:
    """Traced workload cells plus untraced fuzz-scenario metric hashes."""
    prefix = "golden" if arch == "x86" else f"golden-{arch}"
    workloads: dict[str, dict] = {}
    for name, factory, kwargs in _workload_cases():
        for mode in TickMode:
            key = f"{name}/{mode.value}"
            workloads[key] = _traced_case(factory(), tick_mode=mode, arch=arch,
                                          label=f"{prefix}/{key}", **kwargs)
            note(key)
    fuzz: dict[str, str] = {}
    for seed in FUZZ_SEEDS:
        scenario = scenario_for_seed(seed)
        for placement in (SOLO, OVERCOMMIT):
            for mode in TickMode:
                label = f"fuzz{seed}/{scenario.kind}/{mode.value}/{placement}"
                if arch != "x86":
                    label += f"/{arch}"
                spec = scenario_spec(scenario, mode, placement=placement, arch=arch,
                                     label=label)
                fuzz[f"seed{seed}/{mode.value}/{placement}"] = metrics_digest(run_spec(spec))
        note(f"fuzz seed {seed}")
    payload = {"schema": SCHEMA, "workloads": workloads, "fuzz": fuzz}
    if arch != "x86":
        # Like a RunSpec's arch: emitted only when non-default, so the
        # x86 fixture predating the field stays byte-identical.
        payload["arch"] = arch
    return payload


# ------------------------------------------------- perturbation battery


def perturb_cases() -> Iterator[tuple[str, tuple[Perturbation, ...]]]:
    """(case name, schedule) pairs — one per perturbation kind.

    Each schedule is applied to the same idle-period workload (long
    enough, at ~16 ms, to straddle every event) under all three tick
    modes, pinning 12 golden traces total. The schedules hit the
    interesting edges: a suspend span across halt/run boundaries, a
    save/restore with a guest-visible clock jump, a hotplug + LIFO
    unplug window, and a multi-step clock-offset drift.
    """
    yield "suspend", (Perturbation("suspend", at_ns=4 * MSEC, duration_ns=3 * MSEC),)
    yield "restore", (Perturbation("restore", at_ns=4 * MSEC, duration_ns=3 * MSEC),)
    yield "hotplug", (Perturbation("hotplug", at_ns=2 * MSEC, duration_ns=6 * MSEC),)
    yield "drift", (
        Perturbation("drift", at_ns=2 * MSEC, count=3, period_ns=4 * MSEC,
                     step_ns=250 * USEC),
    )


def _perturb_workload():
    from repro.workloads.micro import IdlePeriodWorkload

    return IdlePeriodWorkload(500 * USEC, iterations=30, work_cycles=100_000)


def _run_perturb(note: Note) -> dict:
    """Every perturbation kind under every tick mode (12 traced cases)."""
    cases: dict[str, dict] = {}
    for name, schedule in perturb_cases():
        for mode in TickMode:
            key = f"{name}/{mode.value}"
            cases[key] = _traced_case(
                _perturb_workload(), tick_mode=mode, seed=5, cpuidle=True,
                perturbations=schedule, label=f"golden-perturb/{key}",
            )
            note(key)
    return {"schema": SCHEMA, "cases": cases}


# ------------------------------------------------------- fleet battery


def fleet_cases():
    """(case name, FleetSpec) pairs: 2 consolidation ratios x 3 modes.

    Small racks (2 hosts x 4 guests) with a poisson arrival burst — the
    profile that exercises the dedicated ``fleet.burst`` RNG stream, so
    the fixture pins the arrival sampling as well as the multi-VM
    scheduling. ``oc2`` is mild contention, ``oc8`` is the saturated
    regime (all guests time-slicing one pCPU).
    """
    from repro.experiments.parallel import WorkloadSpec
    from repro.fleet.spec import FleetSpec

    guest = WorkloadSpec.make(
        "micro.pingpong", rounds=15, work_cycles=30_000, same_vcpu=False
    )
    for oc in (2, 8):
        for mode in TickMode:
            yield f"oc{oc}/{mode.value}", FleetSpec(
                name=f"golden-fleet-oc{oc}",
                workload=guest,
                tick_mode=mode,
                hosts=2,
                guests_per_host=4,
                consolidation=oc,
                burst="poisson",
                burst_window_ns=2 * MSEC,
                seed=9,
                horizon_ns=400 * MSEC,
                label_parts=(mode.value,),
            )


def _run_fleet(note: Note) -> dict:
    """Per-host digests plus the fleet aggregate, hosts run serially.

    Hosts run through :func:`repro.experiments.parallel.run_spec`
    directly (no pool, no cache) — the identity gate separately proves
    the engine paths match this serial reference byte-for-byte.
    """
    from repro.fleet.aggregate import aggregate_hosts, fleet_bytes

    cases: dict[str, dict] = {}
    for name, fleet in fleet_cases():
        metrics = [run_spec(spec) for spec in fleet.host_specs()]
        agg = aggregate_hosts(metrics)
        cases[name] = {
            "aggregate": agg.to_json_dict(),
            "aggregate_sha256": hashlib.sha256(fleet_bytes(agg)).hexdigest(),
            "hosts": {m.label: metrics_digest(m) for m in metrics},
        }
        note(name)
    return {"schema": SCHEMA, "cases": cases}


# ------------------------------------------------------------ registry


@dataclass(frozen=True)
class Battery:
    """One golden battery: its committed fixture and the run behind it."""

    fixture: Path
    #: ``run(note)`` → fixture payload; ``note(case)`` after each case.
    run: Callable[[Note], dict]
    #: Timer architecture the battery runs; replaying a fixture that
    #: pins another one is an error, not a diff.
    arch: str = "x86"


#: Battery name → battery. Fixture paths are relative to the repo root.
BATTERIES = {
    "simcore": Battery(Path("tests/fixtures/golden_simcore.json"),
                       functools.partial(_run_simcore, arch="x86")),
    "arm": Battery(Path("tests/fixtures/golden_arm.json"),
                   functools.partial(_run_simcore, arch="arm"), arch="arm"),
    "perturb": Battery(Path("tests/fixtures/golden_perturb.json"), _run_perturb),
    "fleet": Battery(Path("tests/fixtures/golden_fleet.json"), _run_fleet),
}


def _quiet(_: str) -> None:
    pass


def load(path: Path) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"golden fixture schema {data.get('schema')} != expected {SCHEMA}; re-capture"
        )
    return data


def capture(name: str, path: Optional[Path] = None,
            progress: Optional[Note] = None) -> Path:
    """Run battery ``name`` and write its fixture; return the path."""
    path = Path(path or BATTERIES[name].fixture)
    payload = BATTERIES[name].run(progress or _quiet)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def compare(name: str, path: Optional[Path] = None,
            progress: Optional[Note] = None) -> list[str]:
    """Re-run battery ``name`` against its fixture (or ``path``);
    return human-readable divergences (empty = ok)."""
    battery = BATTERIES[name]
    path = Path(path or battery.fixture)
    golden = load(path)
    pinned = golden.get("arch", "x86")
    if pinned != battery.arch:
        return [f"fixture {path} pins arch {pinned!r}, battery {name} runs {battery.arch!r}"]
    # Through JSON, so the fresh side reads exactly as its fixture would.
    fresh = json.loads(json.dumps(battery.run(progress or _quiet)))
    return diff(golden, fresh, name)


def diff(want: Any, got: Any, where: str) -> list[str]:
    """Every diverged, missing and unpinned entry of ``got`` against ``want``."""
    if not (isinstance(want, dict) and isinstance(got, dict)):
        return [] if want == got else [f"{where}: diverged ({want!r} -> {got!r})"]
    problems = [f"{where}/{key}: not pinned in fixture" for key in got if key not in want]
    for key, value in want.items():
        if key not in got:
            problems.append(f"{where}/{key}: missing from battery")
        else:
            problems += diff(value, got[key], f"{where}/{key}")
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--battery", choices=sorted(BATTERIES), default="simcore",
                    help="battery to check or capture (default: simcore)")
    ap.add_argument("--fixture", type=Path, default=None,
                    help="fixture file (default: the battery's own)")
    ap.add_argument("--write", action="store_true",
                    help="re-capture the fixture instead of checking it")
    args = ap.parse_args(argv)
    if args.write:
        print(f"wrote {capture(args.battery, args.fixture, progress=print)}")
        return 0
    problems = compare(args.battery, args.fixture)
    for p in problems:
        print(f"DIVERGED: {p}")
    print(f"{args.battery} battery:", "clean" if not problems else f"{len(problems)} divergences")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
