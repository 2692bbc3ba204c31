"""Parallel experiment engine with content-addressed result caching.

Every figure in the paper (Tables 1-4, Figs. 4-6) is a grid of
independent ``run_workload`` calls over (scenario x tick-mode x seed).
This module turns that grid into data — a list of :class:`RunSpec` — and
executes it:

* **fan-out** across a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``jobs=N``); the simulator is deterministic per seed, so a run's
  result does not depend on which process executes it;
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
  serial before giving up (:mod:`repro.resilience.policy`);
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
Results round-trip through :meth:`RunMetrics.to_json_dict`; both the
serial and the pooled path return cache-decoded objects, so a cached
grid is bit-identical to a fresh one.
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
from typing import Any, Callable, Iterable, Optional

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


def execute_spec(spec: RunSpec) -> RunMetrics:
    """Run one spec in-process and return its :class:`RunMetrics`."""
    return execute_spec_full(spec)[0]


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

    def store(self, spec: RunSpec, encoded: dict) -> Path:
        key = spec_key(spec)
        return self._write_atomic(self.path_for(key),
                                  self._result_body(spec, encoded, key))

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

    def load_artifact(self, spec: RunSpec, key: Optional[str] = None) -> Optional[dict]:
        """Cached profile artifact for ``spec``, or None."""
        path = self.artifact_path_for(key or spec_key(spec))
        payload = self._read_json(path)
        if payload is None:
            return None
        if not isinstance(payload, dict):
            self._discard(path)
            return None
        return payload

    def store_artifact(self, spec: RunSpec, obs: dict) -> Path:
        return self._write_atomic(self.artifact_path_for(spec_key(spec)),
                                  json.dumps(obs, sort_keys=True))

    def load_series(self, spec: RunSpec, key: Optional[str] = None) -> Optional[dict]:
        """Cached time-series artifact for ``spec``, or None."""
        path = self.series_path_for(key or spec_key(spec))
        payload = self._read_json(path)
        if payload is None:
            return None
        if not isinstance(payload, dict):
            self._discard(path)
            return None
        return payload

    def store_series(self, spec: RunSpec, series: dict) -> Path:
        return self._write_atomic(self.series_path_for(spec_key(spec)),
                                  json.dumps(series, sort_keys=True))

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

    ``jobs=None``/``0``/``1`` executes serially in-process (still using
    the cache); ``jobs=N`` fans out across N worker processes. Each
    failing cell (exception, timeout, worker crash) is retried
    ``retries`` times — with the backoff schedule of ``retry_policy``,
    which overrides ``retries`` when given — and then reported in
    :attr:`GridResult.failed_specs`, classified as timeout / crash /
    error; the rest of the grid completes regardless. Pool rebuilds
    after worker crashes are capped at ``max_pool_rebuilds``, and the
    ``breaker`` (a :class:`~repro.resilience.policy.CircuitBreaker`,
    default-constructed when None) degrades the pool — half the
    workers, then serial in-process — when the failure rate trips it.

    ``journal`` (a path or an open
    :class:`~repro.resilience.journal.RunJournal`) records every cell's
    lifecycle durably. ``resume`` (a path or a replayed
    :class:`~repro.resilience.journal.JournalState`) replays a previous
    journal: cells it witnessed as done are served from the cache after
    **re-verifying** their bytes against the journaled result hash —
    a mismatch quarantines the entry and re-runs the cell; resuming
    against a changed matrix raises
    :class:`~repro.resilience.journal.ResumeError`. Passing both (the
    usual ``--resume`` shape) appends the new lifecycle to the same
    journal file.

    ``chaos`` (a :class:`~repro.resilience.chaos.ChaosPolicy`) and
    ``cache_fs`` (a :class:`~repro.resilience.integrity.CacheFS`)
    inject deterministic faults for the chaos battery; both default to
    "no faults".

    ``telemetry`` (a :class:`repro.telemetry.HarnessTelemetry`) records
    wall-clock spans, cache instants and counters for every state
    transition. Every touch point is guarded by
    ``telemetry is not None and telemetry.enabled``, so a detached grid
    pays a single boolean check (the exploding-telemetry test pins
    this), and telemetry observes only harness wall-clock — results and
    cache contents are byte-identical with it on or off.

    A ``progress`` callback that raises is disabled after its first
    exception (with a :class:`RuntimeWarning`) instead of sinking the
    grid: observation must never abort the experiment.
    """
    tel = telemetry if (telemetry is not None and telemetry.enabled) else None
    spec_list = list(specs)
    unique: dict[RunSpec, None] = dict.fromkeys(spec_list)
    total = len(unique)
    report = RunReport(cells=total)

    def note_quarantine(path: Path, moved: Optional[Path]) -> None:
        report.quarantined += 1
        if tel is not None:
            tel.instant("cache.quarantine", lane="cache", path=str(path))
            tel.counter("cache_quarantined", help="corrupt cache files quarantined")

    cache = (ResultCache(cache_dir, fs=cache_fs, on_quarantine=note_quarantine)
             if use_cache else None)
    result = GridResult(specs=spec_list, results={}, report=report)
    done = 0

    policy = retry_policy if retry_policy is not None else RetryPolicy(retries=retries)
    retries = policy.retries
    keys: dict[RunSpec, str] = {spec: spec_key(spec) for spec in unique}

    resume_state: Optional[JournalState] = None
    if resume is not None:
        resume_state = (resume if isinstance(resume, JournalState)
                        else replay_journal(resume))
        resume_state.check_digest(keys.values())

    own_journal = False
    if journal is not None and not isinstance(journal, RunJournal):
        journal = (RunJournal.resume(journal) if resume_state is not None
                   else RunJournal.create(journal, keys.values()))
        own_journal = True

    def jrecord(event: str, spec: RunSpec, **extra: Any) -> None:
        if journal is not None:
            journal.record(event, keys[spec], **extra)

    grid_span = (
        tel.span("grid.run", cells=total, jobs=jobs or 1)
        if tel is not None else contextlib.nullcontext({})
    )

    def emit(spec: RunSpec, status: str, attempt: int = 1,
             error: str | None = None, duration_s: Optional[float] = None,
             cache_hit: bool = False, failure_kind: Optional[str] = None) -> None:
        nonlocal progress
        if progress is None:
            return
        try:
            progress(ProgressEvent(spec, status, done, total, attempt, error,
                                   duration_s, cache_hit, failure_kind))
        except Exception as exc:
            warnings.warn(
                f"progress callback disabled after raising {exc!r}",
                RuntimeWarning, stacklevel=2,
            )
            progress = None

    def tel_settle(spec: RunSpec, status: str, duration_ns: Optional[int]) -> None:
        """One settled-cell record: counter + wall histogram."""
        if tel is None:
            raise GridError("settle record for telemetry that is not attached")
        tel.counter("cells", help="grid cells settled by status", status=status)
        if duration_ns is not None:
            tel.observe("shard_wall_ns", duration_ns,
                        help="per-attempt shard wall-clock", status=status)

    with contextlib.ExitStack() as _stack:
        grid_attrs = _stack.enter_context(grid_span)
        if own_journal:
            _stack.callback(journal.close)

        def settle_hit(spec: RunSpec, hit: Any, art: Optional[dict],
                       ser: Optional[dict], status: str) -> None:
            nonlocal done
            result.results[spec] = hit
            if art is not None:
                result.artifacts[spec] = art
            if ser is not None:
                result.series[spec] = ser
            result.cache_hits += 1
            done += 1
            if tel is not None:
                tel.instant("cache.hit", lane="cache", spec=spec.display_label())
                tel.counter("cache_hits", help="grid cells served from cache")
                tel_settle(spec, status, None)
            emit(spec, status, cache_hit=True)

        pending: list[RunSpec] = []
        for spec in unique:
            key = keys[spec]
            hit = cache.load(spec, key) if cache is not None else None
            art = cache.load_artifact(spec, key) if cache is not None and spec.profile else None
            ser = cache.load_series(spec, key) if cache is not None and spec.series else None
            if tel is not None and cache is not None:
                tel.instant("cache.probe", lane="cache", spec=spec.display_label())
            # A profiled (or series) spec only counts as a hit when
            # its artifacts are present too — a result without them
            # is a miss.
            full_hit = (hit is not None
                        and (not spec.profile or art is not None)
                        and (not spec.series or ser is not None))
            want_hash = (resume_state.done.get(key)
                         if resume_state is not None else None)
            if full_hit and want_hash is not None:
                actual = result_hash(encode_result(hit))
                if actual == want_hash:
                    report.resumed += 1
                    report.reverified += 1
                    if tel is not None:
                        tel.instant("resume.hit", lane="cache",
                                    spec=spec.display_label())
                        tel.counter("cells_resumed",
                                    help="cells skipped via journal resume")
                        tel.counter("cells_reverified",
                                    help="resumed cells re-verified against "
                                         "the journaled result hash")
                    jrecord("resumed", spec, result_hash=actual)
                    settle_hit(spec, hit, art, ser, "resumed")
                    continue
                # The cached bytes no longer match what the journal
                # witnessed: the entry is suspect as a unit — quarantine
                # it and re-run the cell.
                report.resume_mismatches += 1
                cache.quarantine_entry(key)
                if tel is not None:
                    tel.instant("resume.mismatch", lane="cache",
                                spec=spec.display_label())
                    tel.counter("resume_mismatches",
                                help="resume re-verification failures")
                full_hit = False
                hit = None
            if full_hit:
                if journal is not None:
                    jrecord("cached", spec, result_hash=result_hash(encode_result(hit)))
                settle_hit(spec, hit, art, ser, "cached")
            else:
                if want_hash is not None and tel is not None:
                    # The journal says done but the cache cannot serve it
                    # (evicted, corrupt, or just quarantined): re-run.
                    tel.instant("resume.miss", lane="cache",
                                spec=spec.display_label())
                if tel is not None and cache is not None:
                    tel.instant("cache.miss", lane="cache", spec=spec.display_label())
                    tel.counter("cache_misses", help="grid cells not in cache")
                jrecord("scheduled", spec)
                pending.append(spec)

        def settle_ok(spec: RunSpec, encoded: dict) -> None:
            nonlocal done, cache
            obs = encoded.pop("obs", None)
            series = encoded.pop("series", None)
            wall_s = encoded.pop("wall_s", None)
            pid = encoded.pop("pid", None)
            if obs is not None:
                result.artifacts[spec] = obs
            if series is not None:
                result.series[spec] = series
            result.results[spec] = decode_result(encoded)
            result.executed += 1
            if tel is not None and wall_s is not None:
                # Reconstruct the worker's execution as a slice on its
                # lane: it ended (approximately) now and lasted wall_s.
                wall_ns = int(wall_s * 1e9)
                end_ns = tel.now_ns()
                tel.add_span("shard.execute", end_ns - wall_ns, wall_ns,
                             lane=f"worker-{pid}", spec=spec.display_label())
                tel_settle(spec, "ran", wall_ns)
            if cache is not None:
                try:
                    cache.store_entry(spec, encoded, obs=obs, series=series,
                                      key=keys[spec])
                    if tel is not None:
                        tel.instant("cache.write", lane="cache",
                                    spec=spec.display_label())
                        tel.counter("cache_writes", help="results written to cache")
                except OSError as exc:
                    # An unwritable store (bad cache_dir, full disk) must not
                    # sink a grid whose results are already in memory.
                    warnings.warn(
                        f"result cache disabled: cannot write {cache.root}: {exc}",
                        RuntimeWarning, stacklevel=2,
                    )
                    cache = None
            if journal is not None:
                jrecord("done", spec, result_hash=result_hash(encoded))
            done += 1
            emit(spec, "ran", duration_s=wall_s)

        def settle_failed(spec: RunSpec, error: str, attempts: int,
                          duration_s: Optional[float] = None,
                          kind: str = "error") -> None:
            nonlocal done
            result.failed_specs.append(FailedSpec(spec, error, attempts, kind))
            report.failures[kind] += 1
            done += 1
            if tel is not None:
                tel.instant("shard.failed", spec=spec.display_label(),
                            error=error, attempts=attempts, kind=kind)
                tel_settle(spec, "failed",
                           int(duration_s * 1e9) if duration_s is not None else None)
            jrecord("failed", spec, error=error, kind=kind, attempts=attempts)
            emit(spec, "failed", attempts, error, duration_s, failure_kind=kind)

        def note_retry(spec: RunSpec, attempt: int, error: str,
                       duration_s: Optional[float], kind: str = "error") -> None:
            report.retries[kind] += 1
            if tel is not None:
                tel.instant("shard.retry", spec=spec.display_label(),
                            error=error, attempt=attempt, kind=kind)
                tel_settle(spec, "retry",
                           int(duration_s * 1e9) if duration_s is not None else None)
            emit(spec, "retry", attempt, error, duration_s, failure_kind=kind)

        def maybe_abort() -> None:
            if chaos is None or getattr(chaos, "abort_after", None) is None:
                return
            settled_live = result.executed + len(result.failed_specs)
            if settled_live >= chaos.abort_after:
                if tel is not None:
                    tel.instant("chaos.abort", after=settled_live)
                raise ChaosAbort(
                    f"chaos: simulated harness crash after {settled_live} "
                    f"settled cell(s)")

        def finish() -> GridResult:
            report.cache_hits = result.cache_hits
            report.executed = result.executed
            if tel is not None:
                grid_attrs.update(cache_hits=result.cache_hits,
                                  executed=result.executed,
                                  failed=len(result.failed_specs))
            return result

        def run_serial(pend: list[RunSpec]) -> None:
            for spec in pend:
                attempt = 0
                while True:
                    attempt += 1
                    t0 = time.monotonic()
                    try:
                        jrecord("started", spec, attempt=attempt)
                        settle_ok(spec, _worker_run(spec, timeout_s, chaos))
                        break
                    except ChaosAbort:
                        raise
                    except Exception as exc:
                        elapsed = time.monotonic() - t0
                        kind = classify_failure(exc)
                        if attempt > retries:
                            settle_failed(spec, repr(exc), attempt, elapsed, kind)
                            break
                        note_retry(spec, attempt, repr(exc), elapsed, kind)
                        delay = policy.delay_s(keys[spec], attempt)
                        if delay > 0:
                            time.sleep(delay)
                maybe_abort()

        if not pending:
            return finish()

        if not jobs or jobs <= 1:
            run_serial(pending)
            return finish()

        from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        ctx = _pool_context()
        attempts: dict[RunSpec, int] = {s: 1 for s in pending}
        cur_jobs = jobs
        rebuilds = 0
        brk = breaker if breaker is not None else CircuitBreaker()
        pool = ProcessPoolExecutor(max_workers=cur_jobs, mp_context=ctx)
        if tel is not None:
            tel.gauge("pool_workers", cur_jobs, help="process pool size")
        submitted_at: dict[Any, float] = {}

        def submit(p, spec: RunSpec):
            jrecord("started", spec, attempt=attempts[spec])
            try:
                fut = p.submit(_worker_run, spec, timeout_s, chaos)
            except BrokenProcessPool as exc:
                # The pool died while we were still submitting (a very
                # fast worker crash). Hand back a dead future carrying
                # the breakage so the wait loop's rebuild logic handles
                # it exactly like a crash observed in flight.
                fut = Future()
                fut.set_exception(exc)
            submitted_at[fut] = time.monotonic()
            return fut

        serial_fallback: list[RunSpec] = []
        in_flight: dict[Any, RunSpec] = {submit(pool, spec): spec for spec in pending}
        try:
            while in_flight:
                finished, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                pool_broken = False
                for fut in finished:
                    spec = in_flight.pop(fut)
                    elapsed = time.monotonic() - submitted_at.pop(fut, time.monotonic())
                    try:
                        encoded = fut.result()
                    except BrokenProcessPool as exc:
                        # The pool died (a worker crashed hard). Every
                        # in-flight future is lost: rebuild the pool and
                        # retry them all, charging each one attempt.
                        casualties = [spec] + list(in_flight.values())
                        in_flight.clear()
                        submitted_at.clear()
                        with contextlib.suppress(Exception):
                            pool.shutdown(wait=False, cancel_futures=True)
                        rebuilds += 1
                        report.pool_rebuilds += 1
                        brk.record(False)
                        if rebuilds > max_pool_rebuilds:
                            # A pool that cannot stay alive is an outage,
                            # not a transient: fail what is left with a
                            # clear error instead of rebuilding forever.
                            pool = None
                            for s in casualties:
                                settle_failed(
                                    s,
                                    f"pool rebuild cap reached "
                                    f"({max_pool_rebuilds}); last crash: {exc!r}",
                                    attempts[s], elapsed, "crash")
                            maybe_abort()
                            break
                        pool = ProcessPoolExecutor(max_workers=cur_jobs,
                                                   mp_context=ctx)
                        if tel is not None:
                            tel.instant("pool.rebuild", error=repr(exc),
                                        casualties=len(casualties))
                            tel.counter("pool_rebuilds",
                                        help="process pool crash recoveries")
                        for s in casualties:
                            if attempts[s] > retries:
                                settle_failed(s, repr(exc), attempts[s],
                                              elapsed, "crash")
                            else:
                                note_retry(s, attempts[s], repr(exc), elapsed,
                                           "crash")
                                attempts[s] += 1
                                in_flight[submit(pool, s)] = s
                        maybe_abort()
                        pool_broken = True
                    except Exception as exc:  # worker raised (incl. RunTimeout)
                        kind = classify_failure(exc)
                        brk.record(False)
                        if attempts[spec] > retries:
                            settle_failed(spec, repr(exc), attempts[spec],
                                          elapsed, kind)
                        else:
                            note_retry(spec, attempts[spec], repr(exc), elapsed,
                                       kind)
                            attempts[spec] += 1
                            delay = policy.delay_s(keys[spec], attempts[spec] - 1)
                            if delay > 0:
                                time.sleep(delay)
                            in_flight[submit(pool, spec)] = spec
                        maybe_abort()
                    else:
                        brk.record(True)
                        settle_ok(spec, encoded)
                        maybe_abort()
                    if pool_broken:
                        break  # `in_flight` was rebuilt wholesale; re-wait

                if in_flight and pool is not None and brk.tripped:
                    # Degradation ladder: the windowed failure rate
                    # crossed the breaker threshold. First trip halves
                    # the pool; the next falls back to serial in-process
                    # execution — degrade before giving up.
                    unsettled = list(in_flight.values())
                    in_flight.clear()
                    submitted_at.clear()
                    with contextlib.suppress(Exception):
                        pool.shutdown(wait=False, cancel_futures=True)
                    step = brk.trip_and_reset()
                    if step == 1 and cur_jobs > 1:
                        cur_jobs = max(1, cur_jobs // 2)
                        report.degradation.append(f"pool shrunk to {cur_jobs}")
                        if tel is not None:
                            tel.instant("pool.degrade", step=step, jobs=cur_jobs)
                            tel.counter("pool_degrades",
                                        help="degradation ladder steps")
                            tel.gauge("pool_workers", cur_jobs,
                                      help="process pool size")
                        pool = ProcessPoolExecutor(max_workers=cur_jobs,
                                                   mp_context=ctx)
                        for s in unsettled:
                            in_flight[submit(pool, s)] = s
                    else:
                        report.degradation.append("fell back to serial")
                        if tel is not None:
                            tel.instant("pool.degrade", step=step, jobs=1,
                                        mode="serial")
                            tel.counter("pool_degrades",
                                        help="degradation ladder steps")
                        pool = None
                        serial_fallback = unsettled
                        break
        finally:
            if pool is not None:
                with contextlib.suppress(Exception):
                    pool.shutdown(wait=False, cancel_futures=True)
        if serial_fallback:
            run_serial(serial_fallback)
        return finish()


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
