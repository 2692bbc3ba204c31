"""Golden fixtures for the bit-identical engine guarantee.

The simulation core is rewritten for throughput from time to time (free
lists, re-arm fast paths, inlined dispatch loops). Every such rewrite
must be *behaviour preserving down to the bit*: same seed, same
workload, same tick mode ⇒ the same ``RunMetrics`` JSON and the same
structured event stream. This module pins that contract:

* :func:`capture` runs a fixed battery — a hand-picked workload set per
  tick mode (with a hashing tracer riding along) plus the first 20
  differential-fuzz scenarios per tick mode and placement (untraced,
  the production fast path) — and writes every metrics dict and stream
  hash to a fixture file;
* :func:`compare` re-runs the battery against the committed fixture and
  reports every divergence.

The committed fixture (``tests/fixtures/golden_simcore.json``) was
captured on the seed-era engine *before* the first fast-path rewrite;
``tests/integration/test_determinism_golden.py`` replays it on every
run. Update it only when behaviour is *intended* to change::

    PYTHONPATH=src python -m repro.analysis.golden --write

and call out the behaviour change in the PR description.
"""

from __future__ import annotations

import hashlib
import json
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

#: Fixture location relative to the repo root.
DEFAULT_FIXTURE = Path("tests/fixtures/golden_simcore.json")

#: Perturbation-conformance fixture (every kind x every tick mode).
PERTURB_FIXTURE = Path("tests/fixtures/golden_perturb.json")

#: Fleet battery fixture (3 tick modes x 2 consolidation ratios).
FLEET_FIXTURE = Path("tests/fixtures/golden_fleet.json")

#: ARM generic-timer battery fixture — the same workload/fuzz battery
#: executed under ``arch="arm"`` (repro.hw.arm), pinning the second
#: timer architecture to the bit exactly like the x86 seed fixture.
ARM_FIXTURE = Path("tests/fixtures/golden_arm.json")

#: Seeds covered by the fuzz-equivalence section.
FUZZ_SEEDS = tuple(range(20))

#: Bump when the battery itself changes shape (invalidates old files).
SCHEMA = 1


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


# --------------------------------------------------------------- batteries


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


def _traced_case(workload, **kwargs) -> dict:
    """One traced run → fixture entry (metrics + event-stream hash)."""
    tracer = HashTracer()
    metrics = run_workload(workload, tracer=tracer, **kwargs)
    return {
        "metrics": metrics.to_json_dict(),
        "trace_sha256": tracer.hexdigest(),
        "trace_records": tracer.records,
    }


def _run_workload_case(
    name: str, factory: Callable, kwargs: dict, mode: TickMode, arch: str = "x86"
) -> dict:
    prefix = "golden" if arch == "x86" else f"golden-{arch}"
    return _traced_case(factory(), tick_mode=mode, arch=arch,
                        label=f"{prefix}/{name}/{mode.value}", **kwargs)


def _run_fuzz_case(seed: int, mode: TickMode, placement: str, arch: str = "x86") -> str:
    """One untraced (production fast path) fuzz-scenario run → metrics hash."""
    scenario = scenario_for_seed(seed)
    label = f"fuzz{seed}/{scenario.kind}/{mode.value}/{placement}"
    if arch != "x86":
        label += f"/{arch}"
    spec = scenario_spec(scenario, mode, placement=placement, arch=arch, label=label)
    return metrics_digest(run_spec(spec))


def run_battery(
    progress: Optional[Callable[[str], None]] = None, arch: str = "x86"
) -> dict:
    """Execute the full battery and return the fixture payload."""

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    workloads: dict[str, dict] = {}
    for name, factory, kwargs in _workload_cases():
        for mode in TickMode:
            key = f"{name}/{mode.value}"
            workloads[key] = _run_workload_case(name, factory, kwargs, mode, arch)
            note(key)
    fuzz: dict[str, str] = {}
    for seed in FUZZ_SEEDS:
        for placement in (SOLO, OVERCOMMIT):
            for mode in TickMode:
                key = f"seed{seed}/{mode.value}/{placement}"
                fuzz[key] = _run_fuzz_case(seed, mode, placement, arch)
        note(f"fuzz seed {seed}")
    return {"schema": SCHEMA, "arch": arch, "workloads": workloads, "fuzz": fuzz}


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


def run_perturb_case(name: str, schedule: tuple, mode: TickMode) -> dict:
    """One traced perturbed run → fixture entry (metrics + stream hash)."""
    return _traced_case(
        _perturb_workload(), tick_mode=mode, seed=5, cpuidle=True,
        perturbations=schedule, label=f"golden-perturb/{name}/{mode.value}",
    )


def run_perturb_battery(progress: Optional[Callable[[str], None]] = None) -> dict:
    """Every perturbation kind under every tick mode (12 cases)."""
    cases: dict[str, dict] = {}
    for name, schedule in perturb_cases():
        for mode in TickMode:
            key = f"{name}/{mode.value}"
            cases[key] = run_perturb_case(name, schedule, mode)
            if progress is not None:
                progress(key)
    return {"schema": SCHEMA, "cases": cases}


def capture_perturb(path: Path = PERTURB_FIXTURE, progress=None) -> dict:
    payload = run_perturb_battery(progress)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def compare_perturb(path: Path = PERTURB_FIXTURE, progress=None) -> list[str]:
    """Replay the perturbation battery against its fixture."""
    golden = load(path)
    fresh = run_perturb_battery(progress)
    problems: list[str] = []
    for key, want in golden["cases"].items():
        got = fresh["cases"].get(key)
        if got is None:
            problems.append(f"perturb case {key} missing from battery")
            continue
        if got["metrics"] != want["metrics"]:
            diffs = [
                f"{field}: {want['metrics'][field]!r} -> {got['metrics'][field]!r}"
                for field in want["metrics"]
                if got["metrics"].get(field) != want["metrics"][field]
            ]
            problems.append(f"perturb {key}: RunMetrics diverged ({'; '.join(diffs)})")
        if got["trace_sha256"] != want["trace_sha256"]:
            problems.append(
                f"perturb {key}: event stream diverged "
                f"({want['trace_records']} -> {got['trace_records']} records)"
            )
    for key in fresh["cases"]:
        if key not in golden["cases"]:
            problems.append(f"perturb case {key} not pinned in fixture")
    return problems


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


def run_fleet_case(fleet) -> dict:
    """One fleet case, serially: per-host digests + the fleet aggregate.

    Hosts run through :func:`repro.experiments.parallel.run_spec`
    directly (no pool, no cache) — the identity gate separately proves
    the engine paths match this serial reference byte-for-byte.
    """
    from repro.fleet.aggregate import aggregate_hosts, fleet_bytes

    metrics = [run_spec(spec) for spec in fleet.host_specs()]
    agg = aggregate_hosts(metrics)
    return {
        "aggregate": agg.to_json_dict(),
        "aggregate_sha256": hashlib.sha256(fleet_bytes(agg)).hexdigest(),
        "hosts": {m.label: metrics_digest(m) for m in metrics},
    }


def run_fleet_battery(progress: Optional[Callable[[str], None]] = None) -> dict:
    cases: dict[str, dict] = {}
    for name, fleet in fleet_cases():
        cases[name] = run_fleet_case(fleet)
        if progress is not None:
            progress(name)
    return {"schema": SCHEMA, "cases": cases}


def capture_fleet(path: Path = FLEET_FIXTURE, progress=None) -> dict:
    payload = run_fleet_battery(progress)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def compare_fleet(path: Path = FLEET_FIXTURE, progress=None) -> list[str]:
    """Replay the fleet battery against its fixture."""
    golden = load(path)
    fresh = run_fleet_battery(progress)
    problems: list[str] = []
    for key, want in golden["cases"].items():
        got = fresh["cases"].get(key)
        if got is None:
            problems.append(f"fleet case {key} missing from battery")
            continue
        if got["aggregate"] != want["aggregate"]:
            diffs = [
                f"{field}: {want['aggregate'][field]!r} -> {got['aggregate'][field]!r}"
                for field in want["aggregate"]
                if got["aggregate"].get(field) != want["aggregate"][field]
            ]
            problems.append(f"fleet {key}: aggregate diverged ({'; '.join(diffs)})")
        for host, digest in want["hosts"].items():
            fresh_digest = got["hosts"].get(host)
            if fresh_digest != digest:
                problems.append(f"fleet {key}: host {host} metrics diverged")
    for key in fresh["cases"]:
        if key not in golden["cases"]:
            problems.append(f"fleet case {key} not pinned in fixture")
    return problems


# ------------------------------------------------------------ read/compare


def capture(path: Path = DEFAULT_FIXTURE, progress=None, arch: str = "x86") -> dict:
    """Run the battery and write the fixture file."""
    payload = run_battery(progress, arch=arch)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def capture_arm(path: Path = ARM_FIXTURE, progress=None) -> dict:
    """Capture the battery under the ARM generic-timer backend."""
    return capture(path, progress, arch="arm")


def load(path: Path = DEFAULT_FIXTURE) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"golden fixture schema {data.get('schema')} != expected {SCHEMA}; re-capture"
        )
    return data


def compare(path: Path = DEFAULT_FIXTURE, progress=None, arch: str = "x86") -> list[str]:
    """Re-run the battery; return human-readable divergences (empty = ok)."""
    golden = load(path)
    pinned_arch = golden.get("arch", "x86")
    if pinned_arch != arch:
        return [f"fixture {path} pins arch {pinned_arch!r}, battery ran {arch!r}"]
    fresh = run_battery(progress, arch=arch)
    problems: list[str] = []
    for key, want in golden["workloads"].items():
        got = fresh["workloads"].get(key)
        if got is None:
            problems.append(f"workload case {key} missing from battery")
            continue
        if got["metrics"] != want["metrics"]:
            diffs = [
                f"{field}: {want['metrics'][field]!r} -> {got['metrics'][field]!r}"
                for field in want["metrics"]
                if got["metrics"].get(field) != want["metrics"][field]
            ]
            problems.append(f"{key}: RunMetrics diverged ({'; '.join(diffs)})")
        if got["trace_sha256"] != want["trace_sha256"]:
            problems.append(
                f"{key}: event stream diverged "
                f"({want['trace_records']} -> {got['trace_records']} records)"
            )
    for key, want in golden["fuzz"].items():
        got = fresh["fuzz"].get(key)
        if got is None:
            problems.append(f"fuzz case {key} missing from battery")
        elif got != want:
            problems.append(f"fuzz {key}: metrics hash diverged")
    return problems


def compare_arm(path: Path = ARM_FIXTURE, progress=None) -> list[str]:
    """Replay the battery on the ARM backend against its fixture."""
    return compare(path, progress, arch="arm")


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--fixture", type=Path, default=None)
    ap.add_argument("--write", action="store_true",
                    help="re-capture the fixture instead of checking it")
    ap.add_argument("--perturb", action="store_true",
                    help="operate on the perturbation battery "
                         f"(default fixture: {PERTURB_FIXTURE})")
    ap.add_argument("--fleet", action="store_true",
                    help="operate on the fleet battery "
                         f"(default fixture: {FLEET_FIXTURE})")
    ap.add_argument("--arm", action="store_true",
                    help="operate on the ARM generic-timer battery "
                         f"(default fixture: {ARM_FIXTURE})")
    args = ap.parse_args(argv)
    if sum((args.perturb, args.fleet, args.arm)) > 1:
        ap.error("--perturb, --fleet and --arm are mutually exclusive")
    if args.arm:
        fixture, do_capture, do_compare, name = (
            ARM_FIXTURE, capture_arm, compare_arm, "arm battery")
    elif args.fleet:
        fixture, do_capture, do_compare, name = (
            FLEET_FIXTURE, capture_fleet, compare_fleet, "fleet battery")
    elif args.perturb:
        fixture, do_capture, do_compare, name = (
            PERTURB_FIXTURE, capture_perturb, compare_perturb, "perturb battery")
    else:
        fixture, do_capture, do_compare, name = (
            DEFAULT_FIXTURE, capture, compare, "golden battery")
    if args.fixture is not None:
        fixture = args.fixture
    if args.write:
        do_capture(fixture, progress=print)
        print(f"wrote {fixture}")
        return 0
    problems = do_compare(fixture, progress=None)
    for p in problems:
        print(f"DIVERGED: {p}")
    print(f"{name}:", "clean" if not problems else f"{len(problems)} divergences")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
