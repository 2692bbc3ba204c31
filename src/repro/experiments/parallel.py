"""Parallel experiment engine with content-addressed result caching.

Every figure in the paper (Tables 1-4, Figs. 4-6) is a grid of
independent ``run_workload`` calls over (scenario x tick-mode x seed).
This module turns that grid into data — a list of :class:`RunSpec` — and
executes it:

* **fan-out** — one dispatch loop feeds a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs=N``, at most
  N + 1 cells in flight) or its in-process stand-in; the simulator is
  deterministic per seed, so a run's result does not depend on which
  process executes it;
* **result cache** — each spec hashes to a stable content address
  (:func:`spec_key`); finished runs are stored as JSON under that key
  and re-running a benchmark only executes changed cells;
* **fault tolerance** — a per-run timeout (enforced *inside* the worker
  via ``SIGALRM``, so a stuck run cannot wedge the pool) and automatic
  retries (with the :class:`~repro.resilience.policy.RetryPolicy`
  backoff ladder) for raising/timing-out/crashing workers; what still
  fails lands in :attr:`GridResult.failed_specs` — classified as
  ``timeout`` / ``crash`` / ``error`` — instead of sinking the rest of
  the grid. Pool rebuilds after worker crashes are capped, and a
  failure-rate circuit breaker shrinks the pool and falls back to
  in-process execution before giving up (:mod:`repro.resilience.policy`);
* **crash safety** — an optional append-only run *journal*
  (:mod:`repro.resilience.journal`) records every cell's lifecycle;
  ``resume=`` replays it, skipping completed cells after re-verifying
  their cached bytes against the journaled result hash. Cache files
  carry checksum footers; corrupt entries are quarantined (demoted to
  miss, never fatal) by :mod:`repro.resilience.integrity`;
* **chaos** — a :class:`~repro.resilience.chaos.ChaosPolicy` injects
  deterministic faults (worker SIGKILL, delays, simulated harness
  crash, filesystem failures via the injectable ``cache_fs`` shim) so
  every recovery path above is exercised in tests;
* **progress** — an optional callback receives a
  :class:`ProgressEvent` per finished cell (the CLI prints these), and
  every grid returns a structured
  :class:`~repro.resilience.policy.RunReport`
  (completed / degraded / failed) in :attr:`GridResult.report`.

A :class:`RunSpec` is declarative: the workload is named by a
:class:`WorkloadSpec` (factory kind + keyword parameters) rather than a
live object, so specs are hashable, picklable and JSON-serializable.
Results round-trip through :meth:`RunMetrics.to_json_dict`; both
executors return cache-decoded objects, so a cached grid is
bit-identical to a fresh one.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import signal
import threading
import time
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Optional

from repro.config import HostFeatures, IoDeviceKind, MachineSpec, TickMode
from repro.errors import ReproError
from repro.host.perturb import perturbation_from_dict, perturbation_to_dict
from repro.metrics.perf import RunMetrics
from repro.metrics.report import Comparison, compare_runs
from repro.resilience.integrity import CacheFS, attach_footer, quarantine_file, split_verified
from repro.resilience.journal import JournalState, RunJournal, replay_journal, result_hash
from repro.resilience.policy import (
    ChaosAbort,
    CircuitBreaker,
    RetryPolicy,
    RunReport,
    classify_failure,
)

#: Bump when the spec encoding or result encoding changes shape —
#: invalidates every previously cached result.
CACHE_VERSION = 3

#: Default per-run wall-clock timeout (seconds of *real* time).
DEFAULT_TIMEOUT_S = 600.0

#: Default cache location; override with ``REPRO_CACHE_DIR`` or the
#: ``cache_dir`` argument. Kept repo-local (and git-ignored).
DEFAULT_CACHE_DIR = ".repro-cache"

#: A worker crash costs the whole pool; rebuilding forever against a
#: deterministic crasher is an outage, not resilience. After this many
#: rebuilds the remaining cells fail with a clear error instead.
DEFAULT_MAX_POOL_REBUILDS = 3


class GridError(ReproError):
    """A grid could not produce the results a driver requires."""


class RunTimeout(ReproError):
    """A single run exceeded its per-run timeout."""


# --------------------------------------------------------------------------
# Workload registry
# --------------------------------------------------------------------------

#: The built-in kinds: kind -> (module, factory name). A kind's module
#: is imported on its first lookup, so importing the engine imports no
#: workload model.
_DEFAULT_KINDS = {
    "parsec": ("repro.workloads.parsec", "benchmark"),
    "fio": ("repro.workloads.fio", "job"),
    "micro.idle": ("repro.workloads.micro", "IdleWorkload"),
    "micro.syncstorm": ("repro.workloads.micro", "SyncStormWorkload"),
    "micro.idleperiod": ("repro.workloads.micro", "IdlePeriodWorkload"),
    "micro.pingpong": ("repro.workloads.micro", "PingPongWorkload"),
    "netserve": ("repro.workloads.netserve", "NetServiceWorkload"),
}


def _default_factory(kind: str) -> Callable[..., Any]:
    module, name = _DEFAULT_KINDS[kind]
    return getattr(importlib.import_module(module), name)


class _WorkloadRegistry(dict):
    """``kind -> factory``; a built-in kind resolves on its first lookup,
    so one registered before then keeps the registered factory."""

    def __missing__(self, kind: str) -> Callable[..., Any]:
        if kind not in _DEFAULT_KINDS:
            raise KeyError(kind)
        factory = self[kind] = _default_factory(kind)
        return factory


#: kind -> factory(**params) -> Workload. Extend with
#: :func:`register_workload` (test fixtures and future workloads).
WORKLOAD_FACTORIES = _WorkloadRegistry()


def register_workload(kind: str, factory: Callable[..., Any]) -> None:
    """Register (or replace) a workload factory under ``kind``."""
    WORKLOAD_FACTORIES[kind] = factory


def _register_defaults() -> None:
    """Resolve every built-in kind not registered yet."""
    for kind in _DEFAULT_KINDS:
        if kind not in WORKLOAD_FACTORIES:
            WORKLOAD_FACTORIES[kind] = _default_factory(kind)


#: Special kind executed by :func:`repro.experiments.overcommit.run_idle_overcommit`
#: (N idle guests time-sharing a few pCPUs); params ``vms``,
#: ``vcpus_per_vm``, ``pcpus``, and the spec's horizon is the duration.
OVERCOMMIT_IDLE = "overcommit.idle"

#: Special kind executed by :func:`repro.fleet.hostsim.run_host` — one
#: host of a fleet (multi-VM, burst arrivals), sharded per host so a
#: rack fans out across the pool like any other grid.
FLEET_HOST = "fleet.host"


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload named by factory kind + sorted keyword parameters."""

    kind: str
    #: Sorted (name, value) pairs; values must be JSON-scalar.
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, **params: Any) -> "WorkloadSpec":
        return cls(kind, tuple(sorted(params.items())))

    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)

    def build(self) -> Any:
        try:
            factory = WORKLOAD_FACTORIES[self.kind]
        except KeyError:
            _register_defaults()
            raise GridError(
                f"unknown workload kind {self.kind!r}; know {sorted(WORKLOAD_FACTORIES)}"
            ) from None
        return factory(**self.kwargs())


# --------------------------------------------------------------------------
# RunSpec
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment grid: workload + tick mode + seed + knobs.

    Mirrors :func:`repro.experiments.runner.run_workload`'s signature,
    but as pure data. ``cost_overrides`` are applied on top of
    :data:`~repro.host.costs.DEFAULT_COSTS`;
    ``keep_timer_on_idle_exit`` is the §5.2.5 paratick heuristic, set on
    every guest's :class:`~repro.config.VmSpec`. :func:`run_spec` applies
    every field to every kind.
    """

    workload: WorkloadSpec
    tick_mode: TickMode = TickMode.TICKLESS
    seed: int = 0
    vcpus: Optional[int] = None
    pinned_cpus: Optional[tuple[int, ...]] = None
    machine: Optional[MachineSpec] = None
    features: HostFeatures = field(default_factory=HostFeatures)
    cost_overrides: tuple[tuple[str, int], ...] = ()
    tick_hz: int = 250
    noise: bool = True
    cpuidle: bool = False
    device_kind: Optional[IoDeviceKind] = None
    horizon_ns: Optional[int] = None
    label: Optional[str] = None
    keep_timer_on_idle_exit: bool = True
    #: Timed disturbances (:class:`repro.host.perturb.Perturbation`)
    #: installed against the VM before boot. Part of the cache key:
    #: the same run with a different schedule is a different cell.
    perturbations: tuple = ()
    #: Collect a virtual-perf profile (sampling profiler + latency
    #: histograms + steal) alongside the run. The profile is returned
    #: in :attr:`GridResult.artifacts` and cached content-addressed
    #: next to the result (``<key>.obs.json``). Profiling never
    #: perturbs simulated time, so the RunMetrics are identical either
    #: way.
    profile: bool = False
    #: Collect the windowed in-sim time series (:mod:`repro.obs.series`)
    #: alongside the run; returned in :attr:`GridResult.series` and
    #: cached as ``<key>.series.json``. Like ``profile``, free of
    #: simulated-time side effects.
    #: Serialized into the cache key only when set, so every
    #: pre-existing spec keeps its exact content address.
    series: bool = False
    #: Timer architecture to simulate (see :mod:`repro.hw.timerhw`).
    #: Rides the cache key, but — like ``series`` — is emitted only
    #: when non-default so pre-existing x86 content addresses survive.
    arch: str = "x86"

    def with_(self, **changes: Any) -> "RunSpec":
        from dataclasses import replace

        return replace(self, **changes)

    def display_label(self) -> str:
        return self.label or f"{self.workload.kind}/{self.tick_mode.value}/s{self.seed}"


def spec_to_dict(spec: RunSpec) -> dict:
    """Canonical JSON-safe encoding of a spec (the cache-key input).

    ``series`` is emitted only when True: a False default must encode
    byte-identically to a pre-``series`` spec so existing cache keys —
    and the golden batteries pinned to them — stay valid.
    """
    out = {
        "workload": {"kind": spec.workload.kind, "params": spec.workload.kwargs()},
        "tick_mode": spec.tick_mode.value,
        "seed": spec.seed,
        "vcpus": spec.vcpus,
        "pinned_cpus": list(spec.pinned_cpus) if spec.pinned_cpus is not None else None,
        "machine": asdict(spec.machine) if spec.machine is not None else None,
        "features": asdict(spec.features),
        "cost_overrides": dict(spec.cost_overrides),
        "tick_hz": spec.tick_hz,
        "noise": spec.noise,
        "cpuidle": spec.cpuidle,
        "device_kind": spec.device_kind.value if spec.device_kind is not None else None,
        "horizon_ns": spec.horizon_ns,
        "label": spec.label,
        "keep_timer_on_idle_exit": spec.keep_timer_on_idle_exit,
        "profile": spec.profile,
        "perturbations": [perturbation_to_dict(p) for p in spec.perturbations],
    }
    if spec.series:
        out["series"] = True
    if spec.arch != "x86":
        out["arch"] = spec.arch
    return out


def spec_from_dict(data: dict) -> RunSpec:
    """Inverse of :func:`spec_to_dict` (cache-file rehydration)."""
    return RunSpec(
        workload=WorkloadSpec.make(data["workload"]["kind"], **data["workload"]["params"]),
        tick_mode=TickMode(data["tick_mode"]),
        seed=int(data["seed"]),
        vcpus=data["vcpus"],
        pinned_cpus=tuple(data["pinned_cpus"]) if data["pinned_cpus"] is not None else None,
        machine=MachineSpec(**data["machine"]) if data["machine"] is not None else None,
        features=HostFeatures(**data["features"]),
        cost_overrides=tuple(sorted(data["cost_overrides"].items())),
        tick_hz=int(data["tick_hz"]),
        noise=bool(data["noise"]),
        cpuidle=bool(data["cpuidle"]),
        device_kind=IoDeviceKind(data["device_kind"]) if data["device_kind"] is not None else None,
        horizon_ns=data["horizon_ns"],
        label=data["label"],
        keep_timer_on_idle_exit=bool(data["keep_timer_on_idle_exit"]),
        profile=bool(data.get("profile", False)),
        series=bool(data.get("series", False)),
        arch=data.get("arch", "x86"),
        perturbations=tuple(
            perturbation_from_dict(p) for p in data.get("perturbations", [])
        ),
    )


def spec_key(spec: RunSpec) -> str:
    """Stable content address of a spec (sha256 over canonical JSON).

    Any knob change — workload parameter, tick mode, seed, machine,
    features, costs — changes the key and therefore invalidates the
    cached cell; bumping :data:`CACHE_VERSION` invalidates everything.
    """
    payload = json.dumps({"v": CACHE_VERSION, "spec": spec_to_dict(spec)},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------------------
# Execution of one spec
# --------------------------------------------------------------------------

def run_spec(spec: RunSpec, *, tracer=None, inspect=None, obs=None):
    """Run one spec in-process and return its :class:`RunMetrics`.

    The one place a spec's fields become a run: the grid worker,
    :func:`repro.scenarios.runcheck.check_cell` and the fuzz harness all
    go through it, for every kind, so no path can drop a field.
    ``tracer``/``inspect``/``obs`` are the hooks of
    :func:`repro.experiments.assembly.assemble_host`.

    Raises:
        GridError: if a multi-VM kind (``overcommit.idle``,
            ``fleet.host``) sets a single-VM placement field; those kinds
            place their own guests.
    """
    from repro.experiments.runner import DEFAULT_HORIZON_NS, run_workload
    from repro.host.costs import DEFAULT_COSTS

    costs = DEFAULT_COSTS
    if spec.cost_overrides:
        costs = costs.with_overrides(**dict(spec.cost_overrides))
    horizon = spec.horizon_ns if spec.horizon_ns is not None else DEFAULT_HORIZON_NS
    common = dict(
        seed=spec.seed, tick_hz=spec.tick_hz, noise=spec.noise, cpuidle=spec.cpuidle,
        keep_timer_on_idle_exit=spec.keep_timer_on_idle_exit, costs=costs,
        features=spec.features, perturbations=spec.perturbations, arch=spec.arch,
        label=spec.label, tracer=tracer, inspect=inspect, obs=obs,
    )
    kind = spec.workload.kind
    if kind in (OVERCOMMIT_IDLE, FLEET_HOST):
        placed = [name for name in ("vcpus", "pinned_cpus", "machine", "device_kind")
                  if getattr(spec, name) is not None]
        if placed:
            raise GridError(f"{kind} specs place their own guests; {placed} must be unset")
    if kind == FLEET_HOST:
        from repro.fleet.hostsim import execute_fleet_spec

        return execute_fleet_spec(spec, horizon_ns=horizon, **common)
    if kind == OVERCOMMIT_IDLE:
        from repro.experiments.overcommit import run_idle_overcommit

        return run_idle_overcommit(spec.tick_mode, duration_ns=horizon,
                                   **spec.workload.kwargs(), **common)
    return run_workload(
        spec.workload.build(),
        tick_mode=spec.tick_mode,
        vcpus=spec.vcpus,
        pinned_cpus=spec.pinned_cpus,
        machine_spec=spec.machine,
        device_kind=spec.device_kind,
        horizon_ns=horizon,
        **common,
    )


def _obs_for(spec: RunSpec):
    """The :class:`~repro.obs.Observability` bundle a spec asks for.

    ``profile`` selects the full virtual-perf defaults; ``series``
    alone attaches only the :class:`~repro.obs.series.SeriesRecorder`
    (no profiler/latency/steal cost). None when the spec wants neither.
    """
    if not (spec.profile or spec.series):
        return None
    from repro.obs import ObsConfig, Observability

    if spec.profile:
        return Observability(ObsConfig(series=spec.series))
    return Observability(
        ObsConfig(profile=False, latency=False, steal=False, series=True)
    )


def execute_spec_full(spec: RunSpec) -> tuple[RunMetrics, Optional[dict], Optional[dict]]:
    """Run one spec, returning ``(metrics, obs_json, series_json)``.

    The second element is the profile artifact (``spec.profile``), the
    third the windowed in-sim time series (``spec.series``); each is
    None when not requested.
    """
    obs = _obs_for(spec)
    metrics = run_spec(spec, obs=obs)
    return (
        metrics,
        obs.to_json_dict() if spec.profile and obs is not None else None,
        obs.series_json() if spec.series and obs is not None else None,
    )


def encode_result(obj: Any) -> dict:
    """Encode a run result for the cache / the worker return channel."""
    if isinstance(obj, RunMetrics):
        return {"type": "run_metrics", "data": obj.to_json_dict()}
    raise GridError(f"cannot encode result of type {type(obj).__name__}")


def decode_result(encoded: dict) -> Any:
    """Inverse of :func:`encode_result`; raises on malformed input."""
    kind = encoded["type"]
    if kind == "run_metrics":
        return RunMetrics.from_json_dict(encoded["data"])
    raise GridError(f"unknown cached result type {kind!r}")


@contextlib.contextmanager
def _alarm(seconds: Optional[float]):
    """Raise :class:`RunTimeout` after ``seconds`` of real time.

    SIGALRM-based, so it interrupts a compute-bound simulation; only
    armed in a main thread (worker processes always qualify).
    """
    if not seconds or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded the per-run timeout of {seconds:g}s")

    prev = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, prev)


def _worker_run(spec: RunSpec, timeout_s: Optional[float], chaos=None) -> dict:
    """Pool entry point: execute one spec under its timeout, encoded.

    A profile artifact (``spec.profile``) rides back in the ``"obs"``
    key of the encoded dict and a time series (``spec.series``) in
    ``"series"``; :func:`decode_result` ignores both and the grid
    driver strips them into :attr:`GridResult.artifacts` /
    :attr:`GridResult.series`. ``"wall_s"`` / ``"pid"`` carry the
    in-worker wall-clock and worker identity for harness telemetry
    (also stripped before the result is cached).

    ``chaos`` (a :class:`~repro.resilience.chaos.ChaosPolicy`) is
    consulted before execution: it may delay this cell past its
    timeout or SIGKILL the worker — inside the alarm scope, so an
    injected delay fails exactly like a genuinely stuck run.
    """
    t0 = time.monotonic()
    with _alarm(timeout_s):
        if chaos is not None:
            chaos.maybe_injure(spec_key(spec))
        result, obs, series = execute_spec_full(spec)
        encoded = encode_result(result)
        if obs is not None:
            encoded["obs"] = obs
        if series is not None:
            encoded["series"] = series
        encoded["wall_s"] = time.monotonic() - t0
        encoded["pid"] = os.getpid()
        return encoded


# --------------------------------------------------------------------------
# Result cache
# --------------------------------------------------------------------------

class ResultCache:
    """Content-addressed on-disk store of encoded run results.

    Layout: ``<root>/<key[:2]>/<key>.json``, one file per spec, written
    atomically (tmp + rename) with a checksum footer
    (:func:`repro.resilience.integrity.attach_footer`). On read the
    footer is verified: a corrupt file is moved to the cache's
    ``quarantine/`` directory and treated as a miss — never fatal, and
    never silently trusted. A footer-less ("legacy") file that still
    parses stays readable. Structurally stale entries (old
    ``CACHE_VERSION``, wrong shape) are plain-discarded as before —
    staleness is not corruption.

    Multi-file entries (result + profile/series artifacts) go through
    :meth:`store_entry`, which stages the whole set in a temp directory
    and publishes the result file *last* — an interruption leaves
    either a complete entry or a cold miss, never a result whose
    artifacts are missing.

    All filesystem traffic goes through an injectable
    :class:`~repro.resilience.integrity.CacheFS` shim so the chaos
    harness can fail chosen writes deterministically.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 fs: Optional[CacheFS] = None,
                 on_quarantine: Optional[Callable[[Path, Optional[Path]], None]] = None,
                 ) -> None:
        self.root = Path(root or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))
        self.fs = fs or CacheFS()
        self.on_quarantine = on_quarantine

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def artifact_path_for(self, key: str) -> Path:
        """Profile artifact sibling of :meth:`path_for` (same address)."""
        return self.root / key[:2] / f"{key}.obs.json"

    def series_path_for(self, key: str) -> Path:
        """Time-series artifact sibling (``<key>.series.json``)."""
        return self.root / key[:2] / f"{key}.series.json"

    def _read_json(self, path: Path) -> Any | None:
        """Footer-verified JSON payload of ``path``, or None.

        Missing file → miss. Corrupt bytes (failed checksum, or a
        legacy file that does not parse) → quarantine + miss. A legacy
        footer-less file that parses is served as-is.
        """
        try:
            text = self.fs.read_text(path)
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path)
            return None
        body, status = split_verified(text)
        if status == "corrupt":
            self._quarantine(path)
            return None
        try:
            return json.loads(body if body is not None else text)
        except ValueError:
            self._quarantine(path)
            return None

    def load(self, spec: RunSpec, key: Optional[str] = None) -> Any | None:
        """Decoded result for ``spec``, or None on miss/corruption.

        ``key`` is ``spec_key(spec)`` when the caller already has it.
        """
        path = self.path_for(key or spec_key(spec))
        payload = self._read_json(path)
        if payload is None:
            return None
        try:
            if payload["version"] != CACHE_VERSION:
                raise ValueError("cache version mismatch")
            return decode_result(payload["result"])
        except (KeyError, TypeError, ValueError, ReproError):
            self._discard(path)
            return None

    def _result_body(self, spec: RunSpec, encoded: dict, key: str) -> str:
        return json.dumps(
            {"version": CACHE_VERSION, "key": key, "spec": spec_to_dict(spec),
             "result": encoded},
            sort_keys=True,
        )

    def _write_atomic(self, path: Path, body: str) -> Path:
        """Publish ``attach_footer(body)`` at ``path`` via tmp + rename."""
        self.fs.mkdir(path.parent)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            self.fs.write_text(tmp, attach_footer(body))
            self.fs.replace(tmp, path)
        except OSError:
            self.fs.unlink(tmp)
            raise
        return path

    def store_entry(self, spec: RunSpec, encoded: dict, *,
                    obs: Optional[dict] = None,
                    series: Optional[dict] = None,
                    key: Optional[str] = None) -> Path:
        """Store a result plus its artifacts as one atomic unit.

        Everything is staged in a throwaway directory first, then
        renamed into place with the result file **last** — the cache's
        hit predicate requires a profiled/series entry's artifacts to
        be present, so any interruption before the final rename reads
        as a cold miss, not a torn entry.
        """
        key = key or spec_key(spec)
        result_path = self.path_for(key)
        plan: list[tuple[Path, str]] = []
        if obs is not None:
            plan.append((self.artifact_path_for(key), json.dumps(obs, sort_keys=True)))
        if series is not None:
            plan.append((self.series_path_for(key), json.dumps(series, sort_keys=True)))
        plan.append((result_path, self._result_body(spec, encoded, key)))
        if len(plan) == 1:
            return self._write_atomic(result_path, plan[0][1])
        stage = result_path.parent / f".stage-{os.getpid()}-{key[:8]}"
        self.fs.mkdir(stage)
        staged: list[tuple[Path, Path]] = []
        try:
            for path, body in plan:
                tmp = stage / path.name
                self.fs.write_text(tmp, attach_footer(body))
                staged.append((tmp, path))
            for tmp, path in staged:  # result file is last in `plan`
                self.fs.replace(tmp, path)
        finally:
            for tmp, _ in staged:
                self.fs.unlink(tmp)
            with contextlib.suppress(OSError):
                stage.rmdir()
        return result_path

    def load_sidecar(self, path: Path) -> Optional[dict]:
        """A cached profile or series artifact (:meth:`artifact_path_for`,
        :meth:`series_path_for`), or None."""
        payload = self._read_json(path)
        if payload is not None and not isinstance(payload, dict):
            self._discard(path)
            return None
        return payload

    def quarantine_entry(self, key: str) -> int:
        """Quarantine every file of entry ``key`` (result + artifacts).

        Used when an entry's *content* is suspect as a unit — e.g. a
        resume re-verification hash mismatch — not just one file's
        bytes. Returns how many files were moved.
        """
        moved = 0
        for path in (self.path_for(key), self.artifact_path_for(key),
                     self.series_path_for(key)):
            if path.exists():
                self._quarantine(path)
                moved += 1
        return moved

    def _quarantine(self, path: Path) -> None:
        target = quarantine_file(self.root, path, self.fs)
        if self.on_quarantine is not None:
            with contextlib.suppress(Exception):
                self.on_quarantine(path, target)

    def _discard(self, path: Path) -> None:
        self.fs.unlink(path)


# --------------------------------------------------------------------------
# Grid execution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProgressEvent:
    """One cell of the grid settled (from cache, a run, or failure)."""

    spec: RunSpec
    #: "cached" | "resumed" | "ran" | "retry" | "failed"
    status: str
    done: int
    total: int
    attempt: int = 1
    error: Optional[str] = None
    #: Wall-clock of *this attempt* in seconds: in-worker execution
    #: time for "ran", submit-to-settle (queue included) for
    #: "retry"/"failed", None for "cached" and for drivers predating
    #: the field.
    duration_s: Optional[float] = None
    #: True when the cell was served from the result cache.
    cache_hit: bool = False
    #: For "retry"/"failed": "timeout" | "crash" | "error"; else None.
    failure_kind: Optional[str] = None


@dataclass(frozen=True)
class FailedSpec:
    """A cell that failed every attempt; the grid continued without it."""

    spec: RunSpec
    error: str
    attempts: int
    #: What killed the last attempt: "timeout" | "crash" | "error".
    kind: str = "error"


@dataclass
class GridResult:
    """Outcome of one grid execution (possibly partial)."""

    specs: list[RunSpec]
    results: dict[RunSpec, Any]
    failed_specs: list[FailedSpec] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0
    #: Profile artifacts for specs run with ``profile=True``
    #: (the :meth:`repro.obs.Observability.to_json_dict` payload).
    artifacts: dict[RunSpec, dict] = field(default_factory=dict)
    #: Windowed in-sim time series for specs run with ``series=True``
    #: (the :meth:`repro.obs.Observability.series_json` payload).
    series: dict[RunSpec, dict] = field(default_factory=dict)
    #: Structured resilience outcome (retries by kind, resume stats,
    #: degradation ladder steps); populated by every run_grid call.
    report: Optional[RunReport] = None

    @property
    def complete(self) -> bool:
        return not self.failed_specs

    def ordered(self) -> list[Any]:
        """Results aligned with the input spec order (None where failed)."""
        return [self.results.get(s) for s in self.specs]

    def failed_by_kind(self) -> Counter:
        """Failure counts keyed by kind ("timeout" / "crash" / "error")."""
        return Counter(f.kind for f in self.failed_specs)

    def __getitem__(self, spec: RunSpec) -> Any:
        try:
            return self.results[spec]
        except KeyError:
            raise GridError(f"no result for {spec.display_label()} "
                            f"(failed or not part of this grid)") from None

    def raise_if_failed(self) -> "GridResult":
        """For drivers that need the *full* grid (tables, aggregates)."""
        if self.failed_specs:
            names = ", ".join(f.spec.display_label() for f in self.failed_specs[:5])
            kinds = ", ".join(f"{k}: {v}" for k, v in
                              sorted(self.failed_by_kind().items()))
            raise GridError(
                f"{len(self.failed_specs)} grid cell(s) failed ({kinds}) "
                f"(first: {names}); "
                f"last error: {self.failed_specs[-1].error}"
            )
        return self


def _pool_context():
    """Prefer fork: cheap on Linux, and workers inherit workload kinds
    registered by the calling process (tests rely on this).

    A forked worker also inherits the parent's imports, so the run path
    is imported here once instead of once in every fresh worker: the
    model behind :func:`run_spec`, the tick policies and default
    workload kinds it resolves on first use, and ``numpy.random``,
    which :mod:`repro.sim.rng` imports only on its first draw.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" not in methods:
        return multiprocessing.get_context(methods[0])
    import numpy.random  # noqa: F401

    import repro.core.paratick_guest  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.fleet.hostsim  # noqa: F401

    _register_defaults()
    return multiprocessing.get_context("fork")


class CellTransition(NamedTuple):
    """One step of a grid cell's life, as the grid's observers see it:
    ``cached`` or ``resumed`` (the probe served the cell), ``scheduled``
    (the probe missed), ``started`` (an attempt was submitted), ``retry``
    or ``failed`` (an attempt failed; the cell is re-queued or given up)
    or ``ran`` (an attempt's result settled)."""

    status: str
    spec: RunSpec
    key: str
    attempt: int = 1
    error: Optional[str] = None
    failure_kind: Optional[str] = None
    duration_s: Optional[float] = None
    #: The decoded result ("cached", "resumed", "ran"); for "ran" also
    #: its encoded form as cached and the pid that executed it.
    result: Any = None
    encoded: Optional[dict] = None
    pid: Optional[int] = None


def journal_observer(journal: RunJournal) -> Callable[[CellTransition], None]:
    """Journal every transition but ``retry`` (the next ``started``
    record carries the new attempt number); ``ran`` is a ``done``."""

    def observe(t: CellTransition) -> None:
        extra: dict[str, Any] = {}
        if t.status == "started":
            extra = {"attempt": t.attempt}
        elif t.status == "failed":
            extra = {"error": t.error, "kind": t.failure_kind, "attempts": t.attempt}
        elif t.status in ("cached", "resumed", "ran"):
            extra = {"result_hash": result_hash(t.encoded or encode_result(t.result))}
        elif t.status != "scheduled":
            return
        journal.record("done" if t.status == "ran" else t.status, t.key, **extra)

    return observe


def telemetry_observer(tel, *, cache: bool,
                       resume_done: Iterable[str] = ()) -> Callable[[CellTransition], None]:
    """Counters, instants and worker-lane spans of ``tel`` per transition.

    ``cache`` says whether the grid probes a cache (only then is a
    ``scheduled`` cell a miss); a ``scheduled`` key in ``resume_done``
    (the keys a resumed journal witnessed as done) is a resume miss.
    """
    resume_done = frozenset(resume_done)

    def settled(status: str, duration_s: Optional[float]) -> None:
        tel.counter("cells", help="grid cells settled by status", status=status)
        if duration_s is not None:
            tel.observe("shard_wall_ns", int(duration_s * 1e9),
                        help="per-attempt shard wall-clock", status=status)

    def observe(t: CellTransition) -> None:
        label = t.spec.display_label()
        if t.status == "resumed":
            tel.instant("resume.hit", lane="cache", spec=label)
            tel.counter("cells_resumed", help="cells skipped via journal resume")
            tel.counter("cells_reverified",
                        help="resumed cells re-verified against the journaled result hash")
        if t.status in ("cached", "resumed"):
            tel.instant("cache.hit", lane="cache", spec=label)
            tel.counter("cache_hits", help="grid cells served from cache")
            settled(t.status, None)
        elif t.status == "scheduled":
            if t.key in resume_done:
                # Journaled as done, but the cache cannot serve it.
                tel.instant("resume.miss", lane="cache", spec=label)
            if cache:
                tel.instant("cache.miss", lane="cache", spec=label)
                tel.counter("cache_misses", help="grid cells not in cache")
        elif t.status == "ran" and t.duration_s is not None:
            # The worker's execution as a slice on its lane: it ended
            # (approximately) now and lasted duration_s.
            wall_ns = int(t.duration_s * 1e9)
            tel.add_span("shard.execute", tel.now_ns() - wall_ns, wall_ns,
                         lane=f"worker-{t.pid}", spec=label)
            settled("ran", t.duration_s)
        elif t.status in ("retry", "failed"):
            count = {"attempt" if t.status == "retry" else "attempts": t.attempt}
            tel.instant(f"shard.{t.status}", spec=label, error=t.error,
                        kind=t.failure_kind, **count)
            settled(t.status, t.duration_s)

    return observe


def progress_observer(progress: Callable[[ProgressEvent], None],
                      total: int) -> Callable[[CellTransition], None]:
    """A :class:`ProgressEvent` per settled cell and per retry. A
    callback that raises is disabled (with a :class:`RuntimeWarning`)
    after its first exception: observation must never abort the grid."""
    done = 0

    def observe(t: CellTransition) -> None:
        nonlocal done, progress
        if progress is None or t.status in ("scheduled", "started"):
            return
        if t.status != "retry":
            done += 1
        try:
            progress(ProgressEvent(t.spec, t.status, done, total, t.attempt, t.error,
                                   t.duration_s, t.status in ("cached", "resumed"),
                                   t.failure_kind))
        except Exception as exc:
            warnings.warn(f"progress callback disabled after raising {exc!r}",
                          RuntimeWarning, stacklevel=2)
            progress = None

    return observe


class _InlineExecutor:
    """The pool's in-process stand-in: ``submit`` runs the call at once
    and returns its completed Future."""

    def submit(self, fn, *args):
        from concurrent.futures import Future

        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class _Grid:
    """One :func:`run_grid` call: probe, dispatch and settle its cells."""

    def __init__(self, specs: list[RunSpec], keys: dict[RunSpec, str],
                 cache: Optional[ResultCache], report: RunReport, observers: list,
                 tel, policy: RetryPolicy, timeout_s: Optional[float], chaos) -> None:
        self.result = GridResult(specs=specs, results={}, report=report)
        self.keys, self.cache, self.report = keys, cache, report
        self.observers, self.tel = observers, tel
        self.policy, self.timeout_s, self.chaos = policy, timeout_s, chaos
        #: spec -> number of its current (or next) attempt.
        self.attempts: dict[RunSpec, int] = {}
        #: What a broken pool raises: matches nothing until a pool
        #: exists, so an in-process grid never imports the pool module.
        self.pool_break: Any = ()

    def note(self, status: str, spec: RunSpec, **fields: Any) -> None:
        if self.observers:
            t = CellTransition(status, spec, self.keys[spec], **fields)
            for observe in self.observers:
                observe(t)

    def probe(self, resume_state: Optional[JournalState]) -> list[RunSpec]:
        """Serve every cell the cache can (re-verified against a resumed
        journal); return the rest in submission order."""
        cache, tel, report = self.cache, self.tel, self.report
        pending: list[RunSpec] = []
        for spec, key in self.keys.items():
            hit = art = ser = None
            if cache is not None:
                hit = cache.load(spec, key)
                art = cache.load_sidecar(cache.artifact_path_for(key)) if spec.profile else None
                ser = cache.load_sidecar(cache.series_path_for(key)) if spec.series else None
                if tel is not None:
                    tel.instant("cache.probe", lane="cache", spec=spec.display_label())
            # A profiled (or series) spec is a hit only with its artifacts.
            if (spec.profile and art is None) or (spec.series and ser is None):
                hit = None
            want = resume_state.done.get(key) if resume_state is not None else None
            if hit is not None and want is not None:
                if result_hash(encode_result(hit)) == want:
                    report.resumed += 1
                    report.reverified += 1
                    self.serve(spec, hit, art, ser, "resumed")
                    continue
                # The cached bytes no longer match what the journal
                # witnessed: quarantine the entry as a unit and re-run.
                report.resume_mismatches += 1
                cache.quarantine_entry(key)
                if tel is not None:
                    tel.instant("resume.mismatch", lane="cache", spec=spec.display_label())
                    tel.counter("resume_mismatches", help="resume re-verification failures")
                hit = None
            if hit is not None:
                self.serve(spec, hit, art, ser, "cached")
            else:
                self.note("scheduled", spec)
                pending.append(spec)
        return pending

    def keep(self, spec: RunSpec, value: Any, art: Optional[dict],
             ser: Optional[dict]) -> None:
        self.result.results[spec] = value
        if art is not None:
            self.result.artifacts[spec] = art
        if ser is not None:
            self.result.series[spec] = ser

    def serve(self, spec: RunSpec, hit: Any, art: Optional[dict], ser: Optional[dict],
              status: str) -> None:
        self.keep(spec, hit, art, ser)
        self.result.cache_hits += 1
        self.note(status, spec, result=hit)

    def dispatch(self, pending: list[RunSpec], jobs: Optional[int],
                 max_pool_rebuilds: int, breaker: Optional[CircuitBreaker]) -> None:
        """Run ``pending`` through one loop over an executor: a pool of
        ``jobs`` workers, or the in-process stand-in for ``jobs<=1`` and
        after the breaker's last step. A pool holds at most ``workers +
        1`` cells in flight (its own prefetch depth), and a pool break
        charges an attempt to those alone."""
        from collections import deque
        from concurrent.futures import FIRST_COMPLETED, Future, wait

        self.attempts = dict.fromkeys(pending, 1)
        queue = deque(pending)
        in_flight: dict[Any, tuple[RunSpec, float]] = {}
        workers = jobs if jobs and jobs > 1 else 0
        brk = breaker if breaker is not None else CircuitBreaker()
        rebuilds = 0
        executor = self.executor(workers)
        if workers and self.tel is not None:
            self.tel.gauge("pool_workers", workers, help="process pool size")

        def top_up(depth: int) -> None:
            while queue and len(in_flight) < depth:
                spec = queue.popleft()
                self.note("started", spec, attempt=self.attempts[spec])
                t0 = time.monotonic()
                try:
                    fut = executor.submit(_worker_run, spec, self.timeout_s, self.chaos)
                except self.pool_break as exc:  # the pool died under us
                    fut = Future()
                    fut.set_exception(exc)
                    in_flight[fut] = (spec, t0)
                    return
                in_flight[fut] = (spec, t0)

        def recall() -> list[tuple[RunSpec, float]]:
            """Shut the executor down; take back every cell in flight."""
            lost = list(in_flight.values())
            in_flight.clear()
            with contextlib.suppress(Exception):
                executor.shutdown(wait=False, cancel_futures=True)
            return lost

        try:
            while queue or in_flight:
                # The stand-in runs one cell and settles it before the
                # next; a pool refills its window before settling.
                depth = workers + 1 if workers else 0
                top_up(depth or 1)
                finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                ready = [(fut, fut.exception(), *in_flight.pop(fut))
                         for fut in list(in_flight) if fut in finished]
                broken = next((exc for _, exc, _, _ in ready
                               if isinstance(exc, self.pool_break)), None)
                if broken is None:
                    top_up(depth)
                casualties = []
                for fut, exc, spec, t0 in ready:
                    if isinstance(exc, self.pool_break):
                        casualties.append((spec, t0))
                        continue
                    if workers:
                        brk.record(exc is None)
                    if exc is None:
                        self.settle_ok(spec, fut.result())
                    elif self.fail_attempt(spec, exc, time.monotonic() - t0):
                        queue.appendleft(spec)
                    self.maybe_abort()
                if broken is not None:
                    # A worker died and took the pool with it: only the
                    # cells in flight are lost, and only they are charged.
                    casualties += recall()
                    rebuilds += 1
                    self.report.pool_rebuilds += 1
                    brk.record(False)
                    capped = None
                    if rebuilds > max_pool_rebuilds:
                        # A pool that cannot stay alive is an outage, not
                        # a transient: fail what is left.
                        capped = (f"pool rebuild cap reached ({max_pool_rebuilds}); "
                                  f"last crash: {broken!r}")
                    else:
                        executor = self.executor(workers)
                        if self.tel is not None:
                            self.tel.instant("pool.rebuild", error=repr(broken),
                                             casualties=len(casualties))
                            self.tel.counter("pool_rebuilds",
                                             help="process pool crash recoveries")
                    now = time.monotonic()
                    queue.extendleft(reversed([
                        spec for spec, t0 in casualties
                        if self.fail_attempt(spec, broken, now - t0, capped)]))
                    while capped and queue:
                        spec = queue.popleft()
                        self.settle_failed(spec, capped, self.attempts[spec] - 1, None, "crash")
                    self.maybe_abort()
                if workers and (queue or in_flight) and brk.tripped:
                    # Degradation ladder: the windowed failure rate
                    # tripped the breaker. The first trip halves the
                    # pool, the next falls back to the in-process
                    # executor — degrade before giving up.
                    queue.extendleft(reversed([spec for spec, _ in recall()]))
                    step = brk.trip_and_reset()
                    workers = max(1, workers // 2) if step == 1 and workers > 1 else 0
                    self.report.degradation.append(
                        f"pool shrunk to {workers}" if workers else "fell back to serial")
                    if self.tel is not None:
                        mode = {} if workers else {"mode": "serial"}
                        self.tel.instant("pool.degrade", step=step, jobs=workers or 1, **mode)
                        self.tel.counter("pool_degrades", help="degradation ladder steps")
                        if workers:
                            self.tel.gauge("pool_workers", workers, help="process pool size")
                    executor = self.executor(workers)
        finally:
            recall()

    def executor(self, workers: int):
        """A process pool of ``workers``, or the in-process stand-in."""
        if not workers:
            return _InlineExecutor()
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        self.pool_break = BrokenProcessPool
        return ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())

    def fail_attempt(self, spec: RunSpec, exc: BaseException, elapsed: float,
                     give_up: Optional[str] = None) -> bool:
        """The retry-or-fail decision for a failed attempt, whether it
        raised, timed out or died with the pool. True means retry (the
        caller re-queues the cell); ``give_up`` fails it with that error."""
        kind = classify_failure(exc)
        attempt = self.attempts[spec]
        if give_up is not None or attempt > self.policy.retries:
            self.settle_failed(spec, give_up or repr(exc), attempt, elapsed, kind)
            return False
        self.report.retries[kind] += 1
        self.note("retry", spec, attempt=attempt, error=repr(exc), failure_kind=kind,
                  duration_s=elapsed)
        self.attempts[spec] = attempt + 1
        delay = self.policy.delay_s(self.keys[spec], attempt)
        if delay > 0:
            time.sleep(delay)
        return True

    def maybe_abort(self) -> None:
        abort_after = getattr(self.chaos, "abort_after", None)
        settled = self.result.executed + len(self.result.failed_specs)
        if abort_after is not None and settled >= abort_after:
            if self.tel is not None:
                self.tel.instant("chaos.abort", after=settled)
            raise ChaosAbort(f"chaos: simulated harness crash after {settled} settled cell(s)")

    def settle_ok(self, spec: RunSpec, encoded: dict) -> None:
        obs, series = encoded.pop("obs", None), encoded.pop("series", None)
        wall_s, pid = encoded.pop("wall_s", None), encoded.pop("pid", None)
        decoded = decode_result(encoded)
        self.keep(spec, decoded, obs, series)
        self.result.executed += 1
        if self.cache is not None:
            try:
                self.cache.store_entry(spec, encoded, obs=obs, series=series,
                                       key=self.keys[spec])
                if self.tel is not None:
                    self.tel.instant("cache.write", lane="cache", spec=spec.display_label())
                    self.tel.counter("cache_writes", help="results written to cache")
            except OSError as exc:
                # An unwritable store (bad cache_dir, full disk) must not
                # sink a grid whose results are already in memory.
                warnings.warn(f"result cache disabled: cannot write {self.cache.root}: {exc}",
                              RuntimeWarning, stacklevel=2)
                self.cache = None
        self.note("ran", spec, attempt=self.attempts[spec], duration_s=wall_s,
                  result=decoded, encoded=encoded, pid=pid)

    def settle_failed(self, spec: RunSpec, error: str, attempts: int,
                      duration_s: Optional[float], kind: str) -> None:
        self.result.failed_specs.append(FailedSpec(spec, error, attempts, kind))
        self.report.failures[kind] += 1
        self.note("failed", spec, attempt=attempts, error=error, failure_kind=kind,
                  duration_s=duration_s)


def run_grid(
    specs: Iterable[RunSpec],
    *,
    jobs: Optional[int] = None,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
    timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
    retries: int = 1,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    telemetry=None,
    retry_policy: Optional[RetryPolicy] = None,
    journal: "RunJournal | os.PathLike | str | None" = None,
    resume: "JournalState | os.PathLike | str | None" = None,
    chaos=None,
    max_pool_rebuilds: int = DEFAULT_MAX_POOL_REBUILDS,
    breaker: Optional[CircuitBreaker] = None,
    cache_fs: Optional[CacheFS] = None,
) -> GridResult:
    """Execute a grid of specs, using the cache and ``jobs`` workers.

    Each unique cell is **probed** (served from the cache when it can
    be), the misses are **dispatched** through one loop — in-process
    for ``jobs=None``/``0``/``1``, else across ``jobs`` worker
    processes — and every outcome is **settled** into the
    :class:`GridResult` and its :class:`~repro.resilience.policy.RunReport`.
    A failing cell (exception, timeout, worker crash) is retried
    ``retries`` times — on the backoff schedule of ``retry_policy``,
    which overrides ``retries`` when given — and then lands in
    :attr:`GridResult.failed_specs`, classified as timeout / crash /
    error; the rest of the grid completes regardless. A worker crash
    charges an attempt only to the cells in flight (at most
    ``jobs + 1``); pool rebuilds are capped at ``max_pool_rebuilds``,
    and the ``breaker`` (default-constructed when None) degrades the
    pool — half the workers, then in-process — when the failure rate
    trips it.

    ``journal`` (a path or an open :class:`RunJournal`) records every
    cell's lifecycle durably. ``resume`` (a path or a replayed
    :class:`JournalState`) serves the cells a previous journal witnessed
    as done from the cache after **re-verifying** their bytes against
    the journaled result hash (a mismatch quarantines the entry and
    re-runs the cell); resuming against a changed matrix raises
    :class:`~repro.resilience.journal.ResumeError`. Passing both (the
    ``--resume`` shape) appends to the same journal file.

    ``chaos`` (a :class:`~repro.resilience.chaos.ChaosPolicy`) and
    ``cache_fs`` (a :class:`~repro.resilience.integrity.CacheFS`) inject
    deterministic faults for the chaos battery.

    The journal, ``telemetry`` (a :class:`repro.telemetry.HarnessTelemetry`)
    and ``progress`` observe each cell's transitions
    (:class:`CellTransition`).
    Detached telemetry attaches no observer and is touched only through
    its ``enabled`` flag; attached, it records harness wall-clock only,
    so results and cache bytes are identical either way. A ``progress``
    callback that raises is disabled after its first exception.
    """
    tel = telemetry if (telemetry is not None and telemetry.enabled) else None
    spec_list = list(specs)
    keys = {spec: spec_key(spec) for spec in dict.fromkeys(spec_list)}
    resume_state: Optional[JournalState] = None
    if resume is not None:
        resume_state = resume if isinstance(resume, JournalState) else replay_journal(resume)
        resume_state.check_digest(keys.values())
    own_journal = journal is not None and not isinstance(journal, RunJournal)
    if own_journal:
        journal = (RunJournal.resume(journal) if resume_state is not None
                   else RunJournal.create(journal, keys.values()))

    observers = []
    if journal is not None:
        observers.append(journal_observer(journal))
    if tel is not None:
        done = resume_state.done if resume_state is not None else ()
        observers.append(telemetry_observer(tel, cache=use_cache, resume_done=done))
    if progress is not None:
        observers.append(progress_observer(progress, len(keys)))
    report = RunReport(cells=len(keys))

    def quarantined(path: Path, moved: Optional[Path]) -> None:
        # Holds the report, not the grid: the cache keeps this callback,
        # and a grid <-> cache cycle would outlive the call.
        report.quarantined += 1
        if tel is not None:
            tel.instant("cache.quarantine", lane="cache", path=str(path))
            tel.counter("cache_quarantined", help="corrupt cache files quarantined")

    cache = (ResultCache(cache_dir, fs=cache_fs, on_quarantine=quarantined)
             if use_cache else None)
    policy = retry_policy if retry_policy is not None else RetryPolicy(retries=retries)
    grid = _Grid(spec_list, keys, cache, report, observers, tel, policy, timeout_s, chaos)
    with contextlib.ExitStack() as stack:
        grid_attrs = stack.enter_context(
            tel.span("grid.run", cells=len(keys), jobs=jobs or 1) if tel is not None
            else contextlib.nullcontext({}))
        if own_journal:
            stack.callback(journal.close)
        pending = grid.probe(resume_state)
        if pending:
            grid.dispatch(pending, jobs, max_pool_rebuilds, breaker)
        result = grid.result
        grid.report.cache_hits, grid.report.executed = result.cache_hits, result.executed
        if tel is not None:
            grid_attrs.update(cache_hits=result.cache_hits, executed=result.executed,
                              failed=len(result.failed_specs))
        return result


def progress_reporter(stream=None):
    """A ``(stats, callback)`` pair for CLI-style grid drivers.

    ``callback`` prints one line per settled cell to ``stream`` (stderr
    by default) and tallies statuses in ``stats`` — drivers use the
    tally to report how much of a sweep was served from cache.
    """
    import collections
    import sys

    stats: collections.Counter[str] = collections.Counter()
    out = stream if stream is not None else sys.stderr

    def callback(event: ProgressEvent) -> None:
        stats[event.status] += 1
        detail = f" ({event.error})" if event.error else ""
        took = f" [{event.duration_s:.2f}s]" if event.duration_s is not None else ""
        print(f"[{event.done}/{event.total}] {event.status:<6} "
              f"{event.spec.display_label()}{took}{detail}", file=out)

    return stats, callback


# --------------------------------------------------------------------------
# A/B comparison helpers (the paper's measurement, grid-shaped)
# --------------------------------------------------------------------------

def ab_specs(
    workload: WorkloadSpec,
    *,
    baseline: TickMode = TickMode.TICKLESS,
    candidate: TickMode = TickMode.PARATICK,
    seed: int = 0,
    label: Optional[str] = None,
    **knobs: Any,
) -> tuple[RunSpec, RunSpec]:
    """The paper's A/B pair: same workload/seed/knobs, two tick modes."""
    stem = label or workload.kind
    base = RunSpec(workload=workload, tick_mode=baseline, seed=seed,
                   label=f"{stem}/{baseline.value}", **knobs)
    cand = base.with_(tick_mode=candidate, label=f"{stem}/{candidate.value}")
    return base, cand


def compare_from_grid(
    grid: GridResult, base: RunSpec, cand: RunSpec, label: str
) -> Comparison:
    """Build one paper-style comparison row out of a finished grid."""
    return compare_runs(grid[base], grid[cand], label)


def cost_overrides_from(costs: Any) -> tuple[tuple[str, int], ...]:
    """Diff a :class:`CostModel` against the defaults, as spec overrides."""
    from repro.host.costs import DEFAULT_COSTS

    out = []
    for f in fields(costs):
        value = getattr(costs, f.name)
        if value != getattr(DEFAULT_COSTS, f.name):
            out.append((f.name, value))
    return tuple(sorted(out))


def spec_for(
    workload: Any,
    *,
    tick_mode: TickMode,
    seed: int = 0,
    label: Optional[str] = None,
    **run_kwargs: Any,
) -> RunSpec:
    """Translate a ``run_workload``-style call into a :class:`RunSpec`.

    ``workload`` may be a :class:`WorkloadSpec` or a live workload
    object (reverse-mapped via :func:`describe_workload`); the remaining
    keywords mirror :func:`~repro.experiments.runner.run_workload`.
    Raises :class:`GridError` for anything the engine cannot express
    (an unknown workload type, a live ``tracer``).
    """
    ws = workload if isinstance(workload, WorkloadSpec) else describe_workload(workload)
    if run_kwargs.get("tracer") is not None:
        raise GridError("a live tracer cannot cross the worker boundary")
    run_kwargs.pop("tracer", None)
    machine = run_kwargs.pop("machine_spec", None)
    costs = run_kwargs.pop("costs", None)
    overrides = cost_overrides_from(costs) if costs is not None else ()
    return RunSpec(workload=ws, tick_mode=tick_mode, seed=seed, machine=machine,
                   cost_overrides=overrides, label=label, **run_kwargs)


def describe_workload(workload: Any) -> WorkloadSpec:
    """Reverse-map a live workload object to its declarative spec.

    Covers every in-tree workload class; raises :class:`GridError` for
    unknown types (callers fall back to serial in-process execution).
    """
    from repro.hw.nic import DATACENTER_10G
    from repro.workloads.fio import FioWorkload
    from repro.workloads.micro import (
        IdlePeriodWorkload,
        IdleWorkload,
        PingPongWorkload,
        SyncStormWorkload,
    )
    from repro.workloads.netserve import NetServiceWorkload
    from repro.workloads.parsec import ParsecWorkload

    if isinstance(workload, ParsecWorkload):
        return WorkloadSpec.make(
            "parsec", name=workload.profile.name, threads=workload.threads,
            target_cycles=workload.target_cycles,
        )
    if isinstance(workload, FioWorkload):
        return WorkloadSpec.make(
            "fio", category=workload.job.category, block_size=workload.job.block_size,
            total_bytes=workload.total_bytes,
        )
    if isinstance(workload, IdleWorkload):
        return WorkloadSpec.make("micro.idle", vcpus=workload.vcpus)
    if isinstance(workload, SyncStormWorkload):
        return WorkloadSpec.make(
            "micro.syncstorm", threads=workload.threads,
            events_per_second=workload.events_per_second,
            duration_cycles=workload.duration_cycles,
        )
    if isinstance(workload, IdlePeriodWorkload):
        return WorkloadSpec.make(
            "micro.idleperiod", idle_ns=workload.idle_ns,
            iterations=workload.iterations, work_cycles=workload.work_cycles,
        )
    if isinstance(workload, PingPongWorkload):
        return WorkloadSpec.make(
            "micro.pingpong", rounds=workload.rounds,
            work_cycles=workload.work_cycles, same_vcpu=workload.same_vcpu,
        )
    if isinstance(workload, NetServiceWorkload) and workload.profile is DATACENTER_10G:
        return WorkloadSpec.make(
            "netserve", workers=workload.workers, requests=workload.requests,
            request_bytes=workload.request_bytes, think_cycles=workload.think_cycles,
        )
    raise GridError(f"cannot describe workload {type(workload).__name__} as a spec")
