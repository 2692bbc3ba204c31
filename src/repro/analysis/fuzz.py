"""Differential fuzz harness for the timer path.

Each seed deterministically expands into one randomized scenario (a
workload, tick rate, noise/cpuidle knobs and a horizon, drawn from the
same :class:`~repro.sim.rng.RngStreams` machinery the simulator uses),
which then runs under **all three tick modes** — periodic, tickless,
paratick — in both a solo (1:1 pinned) and an overcommitted placement,
every run wrapped in the :class:`~repro.analysis.checkers.TickSanitizer`
and reconciled afterwards (:mod:`repro.analysis.reconcile`).

Two properties must hold for every seed:

1. **sanitizer-clean** — no run, in any mode or placement, violates a
   timer-path invariant or drifts from its own counters/ledger;
2. **differential** — tick management must not change the work done:
   every main task completes under every mode, and the useful
   (GUEST_USER) cycle totals agree across modes to within a small
   tolerance (preemption splits re-quantize ns↔cycles with round-up, so
   bit-equality is not expected; §4's claim is precisely that only the
   *overhead* differs).

Replay a failure with ``python -m repro fuzz --seed N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.checkers import TickSanitizer
from repro.analysis.reconcile import sanitized_run
from repro.config import MachineSpec, TickMode
from repro.experiments.parallel import RunSpec, WorkloadSpec, run_spec
from repro.host.perturb import Perturbation
from repro.metrics.perf import RunMetrics
from repro.sim.rng import RngStreams
from repro.sim.timebase import MSEC, USEC
from repro.workloads.base import Workload

#: Relative tolerance on useful cycles across tick modes; the absolute
#: slack covers tiny runs where one noise burst dominates the ratio.
USEFUL_REL_TOL = 0.02
USEFUL_ABS_SLACK = 200_000

#: Placement labels used in problem reports.
SOLO, OVERCOMMIT = "solo", "overcommit"

#: Fuzz scenario kind -> registered workload-factory kind.
WORKLOAD_KINDS = {
    "pingpong": "micro.pingpong",
    "syncstorm": "micro.syncstorm",
    "idleperiod": "micro.idleperiod",
    "idle": "micro.idle",
}


@dataclass(frozen=True)
class FuzzScenario:
    """One deterministic scenario, fully described by its seed."""

    seed: int
    kind: str
    params: tuple[tuple[str, int], ...]
    tick_hz: int
    noise: bool
    cpuidle: bool
    horizon_ns: int

    def param(self, name: str) -> int:
        return dict(self.params)[name]

    def workload_spec(self) -> WorkloadSpec:
        """The scenario's workload as a grid-compatible :class:`WorkloadSpec`."""
        p = dict(self.params)
        if self.kind == "pingpong":
            params = {"rounds": p["rounds"], "work_cycles": p["work_cycles"],
                      "same_vcpu": bool(p["same_vcpu"])}
        elif self.kind == "syncstorm":
            params = {"threads": p["threads"],
                      "events_per_second": float(p["events_hz"]),
                      "duration_cycles": p["duration_cycles"]}
        elif self.kind == "idleperiod":
            params = {"idle_ns": p["idle_ns"], "iterations": p["iterations"],
                      "work_cycles": p["work_cycles"]}
        elif self.kind == "idle":
            params = {"vcpus": p["vcpus"]}
        else:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        return WorkloadSpec.make(WORKLOAD_KINDS[self.kind], **params)

    def make_workload(self) -> Workload:
        """A fresh workload instance (task generators are single-use)."""
        return self.workload_spec().build()

    def describe(self) -> str:
        knobs = ", ".join(f"{k}={v}" for k, v in self.params)
        return (
            f"seed {self.seed}: {self.kind}({knobs}) @ {self.tick_hz} Hz, "
            f"noise={'on' if self.noise else 'off'}, "
            f"cpuidle={'on' if self.cpuidle else 'off'}, "
            f"horizon={self.horizon_ns / MSEC:.0f}ms"
        )


def scenario_for_seed(seed: int) -> FuzzScenario:
    """Expand a seed into a scenario (pure function of the seed)."""
    rng = RngStreams(seed).stream("fuzz.scenario")

    def pick(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi + 1))

    kind = ("pingpong", "syncstorm", "idleperiod", "idle")[pick(0, 3)]
    if kind == "pingpong":
        params = (
            ("rounds", pick(50, 250)),
            ("work_cycles", pick(20_000, 120_000)),
            ("same_vcpu", pick(0, 1)),
        )
    elif kind == "syncstorm":
        params = (
            ("threads", pick(2, 4)),
            ("events_hz", pick(200, 1500)),
            ("duration_cycles", pick(20, 60) * 1_000_000),
        )
    elif kind == "idleperiod":
        params = (
            ("idle_ns", pick(50, 3000) * USEC),
            ("iterations", pick(20, 80)),
            ("work_cycles", pick(50_000, 200_000)),
        )
    else:  # idle
        params = (("vcpus", pick(1, 3)),)
    return FuzzScenario(
        seed=seed,
        kind=kind,
        params=params,
        tick_hz=(100, 250, 1000)[pick(0, 2)],
        noise=bool(pick(0, 1)),
        cpuidle=bool(pick(0, 1)),
        horizon_ns=pick(60, 200) * MSEC if kind == "idle" else 10_000 * MSEC,
    )


def perturbations_for_seed(seed: int, horizon_ns: int) -> tuple[Perturbation, ...]:
    """Expand a seed into a perturbation schedule (pure function).

    Drawn from the dedicated ``fuzz.perturb`` RNG stream, so turning
    perturbations on never changes which *scenario* a seed maps to —
    the schedule rides on top of the frozen scenario expansion.
    Times are absolute and front-loaded (0.2–5 ms) so even short runs
    meet at least the first disturbance; schedules are identical across
    tick modes and placements, keeping the differential property sound.
    """
    rng = RngStreams(seed).stream("fuzz.perturb")

    def pick(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi + 1))

    out: list[Perturbation] = []
    for _ in range(pick(1, 3)):
        kind = ("suspend", "restore", "hotplug", "drift")[pick(0, 3)]
        at_ns = pick(200, 5000) * USEC
        if kind in ("suspend", "restore"):
            out.append(Perturbation(kind, at_ns=at_ns, duration_ns=pick(100, 2000) * USEC))
        elif kind == "hotplug":
            out.append(Perturbation("hotplug", at_ns=at_ns, duration_ns=pick(0, 3000) * USEC))
        else:
            steps = pick(1, 4)
            sign = 1 if pick(0, 1) else -1
            out.append(Perturbation(
                "drift", at_ns=at_ns, count=steps,
                period_ns=pick(500, 2000) * USEC if steps > 1 else 0,
                step_ns=sign * pick(1, 500) * USEC,
            ))
    # Clamp every occurrence inside the scenario horizon: events past
    # the stop instant would never fire and add nothing.
    return tuple(
        p for p in out
        if p.at_ns + p.duration_ns + (p.count - 1) * p.period_ns < horizon_ns
    )


def placement_for(nvcpus: int, placement: str) -> tuple[MachineSpec, tuple[int, ...]]:
    """Machine + pinning for a placement. Overcommit squeezes the vCPUs
    onto one fewer physical CPU, exercising the READY/preempt paths."""
    if placement == OVERCOMMIT:
        pcpus = max(1, nvcpus - 1)
    else:
        pcpus = nvcpus
    spec = MachineSpec(sockets=1, cpus_per_socket=pcpus)
    return spec, tuple(i % pcpus for i in range(nvcpus))


def scenario_spec(
    scenario: FuzzScenario,
    mode: TickMode,
    *,
    placement: str = SOLO,
    perturbations: tuple[Perturbation, ...] = (),
    arch: str = "x86",
    label: Optional[str] = None,
) -> RunSpec:
    """One (mode, placement) cell of a scenario as a grid spec.

    The label defaults to ``fuzz<seed>/<kind>/<mode>/<placement>``.
    """
    ws = scenario.workload_spec()
    nvcpus = ws.build().default_vcpus()
    mspec, pinned = placement_for(nvcpus, placement)
    return RunSpec(
        workload=ws,
        tick_mode=mode,
        seed=scenario.seed,
        vcpus=nvcpus,
        machine=mspec,
        pinned_cpus=pinned,
        tick_hz=scenario.tick_hz,
        noise=scenario.noise,
        cpuidle=scenario.cpuidle,
        horizon_ns=scenario.horizon_ns,
        perturbations=perturbations,
        arch=arch,
        label=label or f"fuzz{scenario.seed}/{scenario.kind}/{mode.value}/{placement}",
    )


def run_scenario(
    scenario: FuzzScenario,
    mode: TickMode,
    *,
    placement: str = SOLO,
    perturbations: tuple[Perturbation, ...] = (),
    arch: str = "x86",
) -> tuple[Optional[RunMetrics], TickSanitizer, list[str]]:
    """One sanitized run of :func:`scenario_spec`; returns (metrics,
    sanitizer, problems).

    The battery is :func:`repro.analysis.reconcile.sanitized_run`: its
    steal tracker rides the same event stream as the sanitizer, and the
    overcommit placements are exactly where steal accounting is
    exercised.
    """
    spec = scenario_spec(scenario, mode, placement=placement,
                         perturbations=perturbations, arch=arch)
    return sanitized_run(
        lambda tracer, inspect: run_spec(spec, tracer=tracer, inspect=inspect), mode
    )


def differential_problems(per_mode: dict[TickMode, RunMetrics]) -> list[str]:
    """Cross-mode comparison: tick management must not change the work."""
    if len(per_mode) < len(TickMode):
        return []  # some run already failed; reported individually
    ref = per_mode[TickMode.TICKLESS]
    out: list[str] = []
    allowed = max(int(ref.useful_cycles * USEFUL_REL_TOL), USEFUL_ABS_SLACK)
    for mode, metrics in per_mode.items():
        if mode is TickMode.TICKLESS:
            continue
        delta = abs(metrics.useful_cycles - ref.useful_cycles)
        if delta > allowed:
            out.append(
                f"useful cycles diverge: {mode.value} did {metrics.useful_cycles} "
                f"vs tickless {ref.useful_cycles} (|delta| {delta} > {allowed})"
            )
    return out


#: Architectures the cross-arch sweep compares (x86 is the reference).
ARCH_SWEEP = ("x86", "arm")


def arch_differential_problems(
    per_arch: dict[str, RunMetrics], mode: TickMode
) -> list[str]:
    """Cross-architecture comparison for one tick mode.

    The timer architecture changes the *overhead* (exit counts, handler
    costs) but must not change the *work*: useful cycles agree across
    backends to the same tolerance the cross-mode check uses, and each
    backend stays inside its own exit taxonomy (no MSR-write exits on
    ARM, no sysreg traps on x86).
    """
    from repro.host.exitreasons import ExitReason

    if len(per_arch) < len(ARCH_SWEEP):
        return []  # some run already failed; reported individually
    ref = per_arch["x86"]
    out: list[str] = []
    allowed = max(int(ref.useful_cycles * USEFUL_REL_TOL), USEFUL_ABS_SLACK)
    for arch, metrics in per_arch.items():
        if arch != "x86":
            delta = abs(metrics.useful_cycles - ref.useful_cycles)
            if delta > allowed:
                out.append(
                    f"useful cycles diverge: {arch} did {metrics.useful_cycles} "
                    f"vs x86 {ref.useful_cycles} (|delta| {delta} > {allowed})"
                )
        foreign = (
            (ExitReason.SYSREG_TRAP, ExitReason.VTIMER_IRQ)
            if arch == "x86"
            else (ExitReason.MSR_WRITE, ExitReason.PREEMPTION_TIMER)
        )
        for reason in foreign:
            n = metrics.exits.by_reason(reason)
            if n:
                out.append(
                    f"{arch}/{mode.value}: {n} {reason.value} exit(s) — "
                    f"foreign to this architecture's taxonomy"
                )
    return out


def fuzz_seed_arch(
    seed: int,
    *,
    placements: tuple[str, ...] = (SOLO,),
) -> "FuzzReport":
    """Run one seed's scenario on every (arch, mode) cell and diff.

    The arch sweep keeps the placement list small by default (solo):
    its job is comparing timer backends, not re-testing overcommit —
    the plain :func:`fuzz_seed` already covers that per arch.
    """
    scenario = scenario_for_seed(seed)
    problems: list[str] = []
    runs = 0
    events = 0
    for placement in placements:
        for mode in TickMode:
            per_arch: dict[str, RunMetrics] = {}
            for arch in ARCH_SWEEP:
                metrics, sanitizer, probs = run_scenario(
                    scenario, mode, placement=placement, arch=arch
                )
                runs += 1
                events += sanitizer.events
                problems += [
                    f"[{arch}/{mode.value}/{placement}] {p}" for p in probs
                ]
                if metrics is not None:
                    per_arch[arch] = metrics
            problems += [
                f"[archdiff/{mode.value}/{placement}] {p}"
                for p in arch_differential_problems(per_arch, mode)
            ]
    return FuzzReport(seed=seed, scenario=scenario, problems=problems,
                      runs=runs, events=events)


@dataclass
class FuzzReport:
    """Everything learned from fuzzing one seed."""

    seed: int
    scenario: FuzzScenario
    problems: list[str]
    runs: int
    events: int

    @property
    def ok(self) -> bool:
        return not self.problems


def fuzz_seed(
    seed: int,
    *,
    placements: tuple[str, ...] = (SOLO, OVERCOMMIT),
    perturb: bool = False,
) -> FuzzReport:
    """Run one seed's scenario under every (mode, placement) cell.

    With ``perturb=True`` the seed additionally expands (via
    :func:`perturbations_for_seed`) into a perturbation schedule applied
    identically to every cell — the sanitizer's suspend/restore/hotplug
    checkers then run against real disturbances, and the differential
    property must hold *through* them.
    """
    scenario = scenario_for_seed(seed)
    perturbations = (
        perturbations_for_seed(seed, scenario.horizon_ns) if perturb else ()
    )
    problems: list[str] = []
    runs = 0
    events = 0
    for placement in placements:
        per_mode: dict[TickMode, RunMetrics] = {}
        for mode in TickMode:
            metrics, sanitizer, probs = run_scenario(
                scenario, mode, placement=placement, perturbations=perturbations
            )
            runs += 1
            events += sanitizer.events
            problems += [f"[{mode.value}/{placement}] {p}" for p in probs]
            if metrics is not None:
                per_mode[mode] = metrics
        problems += [f"[diff/{placement}] {p}" for p in differential_problems(per_mode)]
    return FuzzReport(seed=seed, scenario=scenario, problems=problems,
                      runs=runs, events=events)


def fuzz_many(
    seeds,
    *,
    placements: tuple[str, ...] = (SOLO, OVERCOMMIT),
    perturb: bool = False,
    progress=None,
) -> list[FuzzReport]:
    """Fuzz a seed range; ``progress(report)`` is called per seed."""
    reports = []
    for seed in seeds:
        report = fuzz_seed(int(seed), placements=placements, perturb=perturb)
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports
