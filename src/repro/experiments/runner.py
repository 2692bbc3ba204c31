"""The experiment driver: build a stack, run a workload, measure.

:func:`run_workload` is the single entry point every benchmark, example
and integration test uses; :func:`run_comparison` performs the A/B
(tickless vs paratick) measurement the paper's figures are built from,
guaranteeing both runs share machine, seed and workload parameters.
"""

from __future__ import annotations

from typing import Optional

from repro.config import HostFeatures, IoDeviceKind, MachineSpec, TickMode, VmSpec
from repro.experiments.assembly import GuestSpec, assemble_host
from repro.host.costs import DEFAULT_COSTS, CostModel
from repro.metrics.perf import RunMetrics
from repro.metrics.report import Comparison, compare_runs
from repro.sim.timebase import SEC
from repro.workloads.base import Workload

#: Default wall-clock bound on a run (simulated).
DEFAULT_HORIZON_NS = 60 * SEC


def run_workload(
    workload: Workload,
    *,
    tick_mode: TickMode = TickMode.TICKLESS,
    vcpus: Optional[int] = None,
    pinned_cpus: Optional[tuple[int, ...]] = None,
    machine_spec: Optional[MachineSpec] = None,
    features: HostFeatures = HostFeatures(),
    costs: CostModel = DEFAULT_COSTS,
    tick_hz: int = 250,
    seed: int = 0,
    noise: bool = True,
    cpuidle: bool = False,
    keep_timer_on_idle_exit: bool = True,
    device_kind: Optional[IoDeviceKind] = None,
    horizon_ns: int = DEFAULT_HORIZON_NS,
    label: Optional[str] = None,
    perturbations=(),
    arch: str = "x86",
    tracer=None,
    inspect=None,
    obs=None,
) -> RunMetrics:
    """Run one workload in one VM and return its metrics.

    The one-guest case of :func:`repro.experiments.assembly.assemble_host`,
    which documents the run's end, ``perturbations``, ``inspect`` (called
    as ``inspect(sim, machine, hv, vms)``) and ``obs``. The VM's vCPUs
    are pinned 1:1 to pCPUs ``0..vcpus-1`` unless ``pinned_cpus`` says
    otherwise.
    """
    nvcpus = vcpus if vcpus is not None else workload.default_vcpus()
    vm = VmSpec(
        name="vm0",
        vcpus=nvcpus,
        tick_mode=tick_mode,
        tick_hz=tick_hz,
        pinned_cpus=pinned_cpus if pinned_cpus is not None else tuple(range(nvcpus)),
        noise=noise,
        cpuidle=cpuidle,
        arch=arch,
        keep_timer_on_idle_exit=keep_timer_on_idle_exit,
    )
    return assemble_host(
        [GuestSpec(vm, workload, device_kind=device_kind)],
        machine=machine_spec or MachineSpec(),
        seed=seed,
        costs=costs,
        features=features,
        arch=arch,
        horizon_ns=horizon_ns,
        perturbations=perturbations,
        tracer=tracer,
        inspect=inspect,
        obs=obs,
        label=label or f"{workload.name}/{tick_mode.value}",
    ).metrics


def run_comparison(
    workload: Workload,
    *,
    baseline: TickMode = TickMode.TICKLESS,
    candidate: TickMode = TickMode.PARATICK,
    label: Optional[str] = None,
    **kwargs,
) -> tuple[Comparison, RunMetrics, RunMetrics]:
    """A/B run of a workload under two tick modes with shared parameters.

    This is the paper's measurement: the same workload, the same
    machine, the same seed — only the guest's tick management differs.
    A caller-supplied ``label`` names the comparison *and* is propagated
    into both runs' metrics (as ``label/<mode>``), so per-seed runs stay
    attributable when replicated or cached.
    """
    stem = label or workload.name
    base = run_workload(
        workload, tick_mode=baseline, label=f"{stem}/{baseline.value}", **kwargs
    )
    cand = run_workload(
        workload, tick_mode=candidate, label=f"{stem}/{candidate.value}", **kwargs
    )
    return compare_runs(base, cand, stem), base, cand


def run_replicated_comparison(
    workload: Workload,
    *,
    seeds: tuple[int, ...] = (0, 1, 2),
    label: Optional[str] = None,
    jobs: Optional[int] = None,
    cache_dir=None,
    use_cache: bool = False,
    progress=None,
    **kwargs,
) -> tuple[Comparison, dict[str, float]]:
    """The paper's methodology (§6): repeat each experiment over several
    seeds and report the mean; the per-metric standard deviations are
    returned alongside ("a deviation of 5% is possible due to the
    multitude of non-deterministic factors").

    The (seed x tick-mode) grid runs through the parallel experiment
    engine (:mod:`repro.experiments.parallel`): ``jobs=N`` fans the
    replicas out over worker processes and ``use_cache``/``cache_dir``
    reuse previously computed cells. Workloads the engine cannot
    describe declaratively (or a live ``tracer``) fall back to the
    serial in-process loop.

    Returns the mean comparison and a dict of standard deviations
    (``vm_exits`` / ``throughput`` / ``exec_time``).

    Raises:
        ValueError: if ``seeds`` is empty — a replication without at
            least one seed has no defined mean.
    """
    from repro.sim.stats import OnlineStats

    if not seeds:
        raise ValueError("need at least one seed")
    baseline = kwargs.pop("baseline", TickMode.TICKLESS)
    candidate = kwargs.pop("candidate", TickMode.PARATICK)
    stem = label or workload.name
    comparisons = _replicated_comparisons(
        workload, seeds=seeds, stem=stem, baseline=baseline, candidate=candidate,
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, progress=progress,
        **kwargs,
    )
    stats = {m: OnlineStats() for m in ("vm_exits", "throughput", "exec_time")}
    for comp in comparisons:
        stats["vm_exits"].add(comp.vm_exits)
        stats["throughput"].add(comp.throughput)
        stats["exec_time"].add(comp.exec_time)
    mean = Comparison(
        label=stem,
        vm_exits=stats["vm_exits"].mean,
        throughput=stats["throughput"].mean,
        exec_time=stats["exec_time"].mean,
    )
    sds = {m: (s.stdev if s.n > 1 else 0.0) for m, s in stats.items()}
    return mean, sds


def _replicated_comparisons(
    workload: Workload,
    *,
    seeds: tuple[int, ...],
    stem: str,
    baseline: TickMode,
    candidate: TickMode,
    jobs: Optional[int],
    cache_dir,
    use_cache: bool,
    progress,
    **kwargs,
) -> list[Comparison]:
    """Per-seed comparisons, engine-first with a serial fallback."""
    from repro.experiments import parallel

    try:
        pairs = []
        specs = []
        for seed in seeds:
            b = parallel.spec_for(
                workload, tick_mode=baseline, seed=seed,
                label=f"{stem}/{baseline.value}", **kwargs,
            )
            c = parallel.spec_for(
                workload, tick_mode=candidate, seed=seed,
                label=f"{stem}/{candidate.value}", **kwargs,
            )
            pairs.append((b, c))
            specs += [b, c]
    except parallel.GridError:
        # Not expressible as a declarative grid: run serially in-process.
        return [
            run_comparison(
                workload, seed=seed, label=stem,
                baseline=baseline, candidate=candidate, **kwargs,
            )[0]
            for seed in seeds
        ]
    grid = parallel.run_grid(
        specs, jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, progress=progress
    ).raise_if_failed()
    return [compare_runs(grid[b], grid[c], stem) for b, c in pairs]
