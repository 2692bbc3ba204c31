"""Per-layer tracing by wrapping the program's functions at run time.

Nothing under ``src/`` is instrumented. :func:`install` replaces
functions and methods of the simulator's modules with wrappers that
record one span per call into a :class:`~spans.SpanRecorder`, and
:func:`layer_metrics` folds the recorder's totals into the per-layer
metrics named in ``BENCHMARK.json``.

Model layers wrap every function their modules define, private ones
included: the event engine calls callbacks such as ``_tick_fired``
directly, and without a span there their time would land in ``sim``.
Harness layers wrap only the named entry points in :data:`HARNESS`.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

from spans import SpanRecorder

#: Module -> layer, for modules whose every function gets a span.
MODEL_LAYERS = {
    "repro.sim.engine": "sim",
    "repro.sim.events": "sim",
    "repro.sim.process": "sim",
    "repro.sim.rng": "sim",
    "repro.sim.timebase": "hw",
    "repro.sim.trace": "obs.trace",
    "repro.hw.cpu": "hw",
    "repro.hw.tsc": "hw",
    "repro.hw.lapic": "hw",
    "repro.hw.preemption": "hw",
    "repro.hw.msr": "hw",
    "repro.hw.interrupts": "hw",
    "repro.hw.iodev": "hw",
    "repro.hw.block": "hw",
    "repro.hw.nic": "hw",
    "repro.hw.timerhw": "hw.timerhw",
    "repro.hw.arm": "hw.timerhw",
    "repro.guest.timerwheel": "guest.timerwheel",
    "repro.guest.hrtimer": "guest.hrtimer",
    "repro.guest.ticksched": "guest.ticksched",
    "repro.core.paratick_guest": "guest.ticksched",
    "repro.guest.kernel": "guest.kernel",
    "repro.guest.sched": "guest.kernel",
    "repro.guest.cpuidle": "guest.kernel",
    "repro.guest.rcu": "guest.kernel",
    "repro.guest.sync": "guest.kernel",
    "repro.guest.task": "guest.kernel",
    "repro.guest.noise": "guest.kernel",
    "repro.guest.ops": "guest.kernel",
    "repro.workloads.base": "workloads",
    "repro.workloads.parsec": "workloads",
    "repro.workloads.micro": "workloads",
    "repro.workloads.fio": "workloads",
    "repro.workloads.netserve": "workloads",
    "repro.host.kvm": "host.kvm",
    "repro.host.vcpu": "host.kvm",
    "repro.host.perturb": "host.kvm",
    "repro.core.hypercall": "host.kvm",
    "repro.host.sched": "host.sched",
    "repro.metrics.counters": "metrics.counters",
    "repro.analysis.checkers": "analysis.sanitizer",
    "repro.analysis.events": "analysis.sanitizer",
    "repro.analysis.reconcile": "analysis.reconcile",
    "repro.obs.steal": "obs.steal",
}

#: (module, attribute path, span name) for harness entry points.
HARNESS = [
    ("repro.experiments.parallel", "spec_key", "experiments:spec_key"),
    ("repro.experiments.parallel", "ResultCache.load", "experiments:cache.probe"),
    ("repro.experiments.parallel", "ResultCache.store_entry", "experiments:cache.store"),
    ("repro.experiments.parallel", "encode_result", "experiments:encode"),
    ("repro.experiments.parallel", "decode_result", "experiments:decode"),
    ("repro.experiments.runner", "run_workload", "experiments:run_workload"),
    ("repro.resilience.integrity", "split_verified", "resilience:verify"),
    ("repro.scenarios.matrix", "Matrix.expand", "scenarios:expand"),
    ("repro.fleet.hostsim", "execute_fleet_spec", "fleet:shard"),
    ("repro.fleet.aggregate", "aggregate_hosts", "fleet:aggregate"),
    ("repro.analysis.fuzz", "run_scenario", "analysis:fuzz_cell"),
]

#: Span names of the two calls :func:`install` wraps by hand.
GRID = "experiments:grid"
CELL = "experiments:cell"
#: Counts recorded at the hand-wrapped boundaries.
EVENTS = "sim:events"
CACHE_HITS = "experiments:cache_hits"
SETTLED = "experiments:cells_settled"
RETRIES = "experiments:retries"
POOL_BUSY = "experiments:pool_busy_ns"
POOL_CAPACITY = "experiments:pool_capacity_ns"


def _span_wrapper(fn, name: str, rec: SpanRecorder):
    clock = time.monotonic_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.open()
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(frame, name, start, clock())

    return traced


def _wrappable(fn) -> bool:
    return (inspect.isfunction(fn)
            and not inspect.isgeneratorfunction(fn)
            and not (fn.__name__.startswith("__") and fn.__name__.endswith("__")))


class Installation:
    """The wrappers of one :func:`install`; :meth:`remove` undoes them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        #: id(original function) -> (original, wrapper)
        self._wrapped: dict[int, tuple] = {}

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        wrapped = make(fn)
        self._set(owner, attr, kind(wrapped) if kind else wrapped)
        self._wrapped[id(fn)] = (fn, wrapped)

    def rebind_imports(self) -> None:
        """Point ``from x import f`` bindings in other modules at the wrappers."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value and vars(mod)[attr] is not hit[1]:
                    self._set(mod, attr, hit[1])

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        self._wrapped.clear()


def import_all() -> None:
    """Import every program module, so wrapping sees every binding."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(rec: SpanRecorder, worker_dir: str) -> Installation:
    """Wrap every layer's functions so that calls record spans in ``rec``.

    Pool workers are forked with the wrappers in place; each records its
    cells into a fresh recorder and appends them, one JSON line per
    cell, to ``<worker_dir>/<pid>.jsonl`` for :func:`collect_workers`.
    """
    import_all()
    inst = Installation()
    for modname, layer in MODEL_LAYERS.items():
        mod = sys.modules[modname]
        for attr, value in list(vars(mod).items()):
            if getattr(value, "__module__", None) != modname:
                continue
            if _wrappable(value):
                inst.wrap(mod, attr, lambda fn: _span_wrapper(
                    fn, f"{layer}:{fn.__qualname__}", rec))
            elif isinstance(value, type) and not issubclass(value, (enum.Enum, BaseException)):
                for name, member in list(vars(value).items()):
                    fn = getattr(member, "__func__", member)
                    if _wrappable(fn):
                        inst.wrap(value, name, lambda fn: _span_wrapper(
                            fn, f"{layer}:{fn.__qualname__}", rec))
    for modname, path, span in HARNESS:
        owner = sys.modules[modname]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        inst.wrap(owner, attr, lambda fn, span=span: _span_wrapper(fn, span, rec))
    engine = sys.modules["repro.sim.engine"]
    inst.wrap(engine.Simulator, "run", lambda fn: _events_counter(fn, rec))
    parallel = sys.modules["repro.experiments.parallel"]
    inst.wrap(parallel, "run_grid", lambda fn: _grid_wrapper(fn, rec, worker_dir))
    inst.wrap(parallel, "_worker_run", lambda fn: _cell_wrapper(fn, rec, worker_dir))
    inst.rebind_imports()
    return inst


def _events_counter(fn, rec: SpanRecorder):
    """``Simulator.run``, counting the events each call dispatched."""

    @functools.wraps(fn)
    def run(sim, *args, **kwargs):
        before = sim.dispatched
        try:
            return fn(sim, *args, **kwargs)
        finally:
            rec.count(EVENTS, sim.dispatched - before)

    return run


def _cell_wrapper(fn, rec: SpanRecorder, worker_dir: str):
    """The grid's per-cell entry point, serial and pooled alike."""
    owner = os.getpid()

    @functools.wraps(fn)
    def traced(spec, *args, **kwargs):
        pooled = os.getpid() != owner
        if pooled:
            # A forked pool worker holds the parent's recorder, open
            # spans included: record this cell alone and hand it back.
            rec.reset()
        rec.cell = spec.display_label()
        start = time.monotonic_ns()
        try:
            with rec.span(CELL):
                return fn(spec, *args, **kwargs)
        finally:
            if pooled:
                line = {"cell": rec.cell, "start_ns": start, "end_ns": time.monotonic_ns(),
                        "totals": rec.totals, "counts": rec.counts}
                with open(os.path.join(worker_dir, f"{os.getpid()}.jsonl"), "a") as fh:
                    fh.write(json.dumps(line, separators=(",", ":")) + "\n")
            rec.cell = None

    return traced


def collect_workers(worker_dir: str) -> list[dict]:
    """Every cell record pool workers wrote so far; the files are consumed."""
    out = []
    for fname in sorted(os.listdir(worker_dir)):
        path = os.path.join(worker_dir, fname)
        with open(path) as fh:
            out += [json.loads(line) for line in fh if line.strip()]
        os.unlink(path)
    return out


def _grid_wrapper(fn, rec: SpanRecorder, worker_dir: str):
    """``run_grid`` as a span whose children include pool workers' cells.

    Worker cells overlap each other, so the grid's self time is its
    duration minus the *union* of its in-process children and the
    worker cells.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.open()
        start = time.monotonic_ns()
        try:
            grid = fn(*args, **kwargs)
            rec.count(CACHE_HITS, grid.cache_hits)
            rec.count(SETTLED, grid.cache_hits + grid.executed + len(grid.failed_specs))
            if grid.report is not None:
                rec.count(RETRIES, sum(grid.report.retries.values()))
            return grid
        finally:
            end = time.monotonic_ns()
            for cell in collect_workers(worker_dir):
                rec.adopt(frame, CELL, cell["start_ns"], cell["end_ns"], cell["cell"])
                rec.merge_totals(cell["totals"], cell["counts"])
                rec.count(POOL_BUSY, cell["end_ns"] - cell["start_ns"])
            jobs = kwargs.get("jobs") or 1
            if jobs > 1:
                rec.count(POOL_CAPACITY, jobs * (end - start))
            rec.close(frame, GRID, start, end)

    return traced


#: Per-layer metric -> (unit, better, the end-to-end metric it should
#: move, on which workloads). Written down before measuring; a traced
#: run prints it beside the numbers.
PER_LAYER = {
    "sim.events": ("count", "lower", "cells_per_s", "parsec-large, fuzz-sanitized"),
    "sim.events_per_s": ("1/s", "higher", "cells_per_s", "parsec-large, fuzz-sanitized"),
    "sim.schedule_calls": ("count", "lower", "cells_per_s", "parsec-large, fuzz-sanitized"),
    "sim.cancel_calls": ("count", "lower", "cells_per_s", "parsec-large, fuzz-sanitized"),
    "sim.rearm_calls": ("count", "lower", "cells_per_s", "parsec-large, fuzz-sanitized"),
    "sim.self_s": ("s", "lower", "cells_per_s", "parsec-large, fuzz-sanitized"),
    "hw.account_calls": ("count", "lower", "cells_per_s", "parsec-large"),
    "hw.self_s": ("s", "lower", "cells_per_s", "parsec-large"),
    "hw.timerhw.self_s": ("s", "lower", "cells_per_s", "parsec-large"),
    "guest.timerwheel.next_expiry_calls": ("count", "lower", "cells_per_s, cell_s.p50",
                                           "parsec-large; no move on matrix-warm"),
    "guest.timerwheel.self_s": ("s", "lower", "cells_per_s, cell_s.p50",
                                "parsec-large; no move on matrix-warm"),
    "guest.hrtimer.self_s": ("s", "lower", "cells_per_s, cell_s.p50",
                             "parsec-large; no move on matrix-warm"),
    "guest.ticksched.idle_enter_calls": ("count", "lower", "cells_per_s, cell_s.p50",
                                         "parsec-large; no move on matrix-warm"),
    "guest.ticksched.self_s": ("s", "lower", "cells_per_s, cell_s.p50",
                               "parsec-large; no move on matrix-warm"),
    "guest.kernel.self_s": ("s", "lower", "cells_per_s, cell_s.p50",
                            "parsec-large; no move on matrix-warm"),
    "host.kvm.exits": ("count", "lower", "cells_per_s, exits_err_pp", "parsec-large"),
    "host.kvm.timer_exits_share": ("share", "lower", "cells_per_s", "parsec-large"),
    "host.kvm.self_s": ("s", "lower", "cells_per_s", "parsec-large"),
    "host.sched.self_s": ("s", "lower", "cells_per_s; cell_s.p90",
                          "parsec-large; fuzz-sanitized, fleet-pool"),
    "metrics.counters.record_calls": ("count", "lower", "cells_per_s", "parsec-large"),
    "analysis.sanitizer.records": ("count", "lower", "cell_s.p50, cells_per_s",
                                   "fuzz-sanitized; nothing on parsec-large"),
    "analysis.sanitizer.self_s": ("s", "lower", "cell_s.p50, cells_per_s",
                                  "fuzz-sanitized; nothing on parsec-large"),
    "analysis.reconcile_s": ("s", "lower", "cell_s.p50, cells_per_s",
                             "fuzz-sanitized; nothing on parsec-large"),
    "obs.steal.self_s": ("s", "lower", "cell_s.p50, cells_per_s",
                         "fuzz-sanitized; nothing on parsec-large"),
    "obs.trace.self_s": ("s", "lower", "cell_s.p50, cells_per_s",
                         "fuzz-sanitized; nothing on parsec-large"),
    "analysis.overhead_x": ("x", "lower", "cell_s.p50, cells_per_s",
                            "fuzz-sanitized; nothing on parsec-large"),
    "experiments.import_s": ("s", "lower", "cli_s.p50; setup_s", "matrix-warm; all"),
    "experiments.spec_key_s": ("s", "lower", "cli_s.p50; setup_s", "matrix-warm; all"),
    "experiments.cache.probe_s": ("s", "lower", "cli_s.p50; setup_s", "matrix-warm; all"),
    "experiments.cache.hit_ratio": ("share", "higher", "cli_s.p50; setup_s", "matrix-warm; all"),
    "experiments.cache.store_s": ("s", "lower", "cli_s.p50; setup_s", "matrix-warm; all"),
    "experiments.encode_s": ("s", "lower", "cli_s.p50; setup_s", "matrix-warm; all"),
    "experiments.decode_s": ("s", "lower", "cli_s.p50; setup_s", "matrix-warm; all"),
    "experiments.grid.self_s": ("s", "lower", "cli_s.p50; setup_s", "matrix-warm; all"),
    "experiments.assembly_s": ("s", "lower", "cell_s.p50", "fuzz-sanitized"),
    "resilience.verify_s": ("s", "lower", "cli_s.p50; setup_s", "matrix-warm; all"),
    "scenarios.expand_s": ("s", "lower", "cli_s.p50; setup_s", "matrix-warm; all"),
    "experiments.pool.worker_busy_share": ("share", "higher", "cells_per_s",
                                           "fleet-pool; nothing on parsec-large"),
    "experiments.pool.retries": ("count", "lower", "cells_per_s",
                                 "fleet-pool; nothing on parsec-large"),
    "fleet.shard_s": ("s", "lower", "cells_per_s", "fleet-pool; nothing on parsec-large"),
    "fleet.aggregate_s": ("s", "lower", "cells_per_s", "fleet-pool; nothing on parsec-large"),
    "trace.overhead_x": ("x", "lower", "none: traced over untraced batch time", "all"),
}


def layer_metrics(rec: SpanRecorder, *, untraced_s: float, traced_s: float,
                  import_s: float, results: list, extra: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced run.

    Layer times are in host seconds of the traced run, so they carry the
    wrappers' cost; counts and the result-derived figures are exact.
    ``X.self_s`` sums the self time of layer ``X`` and its sub-layers.
    A layer the workload never reaches reads 0.
    """
    totals = rec.totals

    def self_s(layer: str) -> float:
        return sum(own for name, (_c, _t, own) in totals.items()
                   if name.split(":")[0] == layer or name.startswith(layer + ".")) / 1e9

    def total_s(name: str) -> float:
        return totals.get(name, (0, 0, 0))[1] / 1e9

    def calls(*names: str) -> int:
        return sum(totals.get(n, (0,))[0] for n in names)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    idle_enters = sum(c for name, (c, _t, _s) in totals.items()
                      if name.startswith("guest.ticksched:")
                      and name.endswith(".on_idle_enter"))
    exits = sum(m.total_exits for m in results)
    counts = rec.counts
    out = {
        "sim.events": counts.get(EVENTS, 0),
        "sim.events_per_s": ratio(counts.get(EVENTS, 0), untraced_s),
        "sim.schedule_calls": calls("sim:Simulator.schedule", "sim:Simulator.at"),
        "sim.cancel_calls": calls("sim:Simulator.cancel"),
        "sim.rearm_calls": calls("sim:Simulator.rearm"),
        "sim.self_s": self_s("sim"),
        "hw.account_calls": calls("hw:PhysicalCPU.account"),
        "hw.self_s": self_s("hw"),
        "hw.timerhw.self_s": self_s("hw.timerhw"),
        "guest.timerwheel.next_expiry_calls": calls("guest.timerwheel:TimerWheel.next_expiry"),
        "guest.timerwheel.self_s": self_s("guest.timerwheel"),
        "guest.hrtimer.self_s": self_s("guest.hrtimer"),
        "guest.ticksched.idle_enter_calls": idle_enters,
        "guest.ticksched.self_s": self_s("guest.ticksched"),
        "guest.kernel.self_s": self_s("guest.kernel"),
        "host.kvm.exits": exits,
        "host.kvm.timer_exits_share": ratio(sum(m.timer_exits for m in results), exits),
        "host.kvm.self_s": self_s("host.kvm"),
        "host.sched.self_s": self_s("host.sched"),
        "metrics.counters.record_calls": calls("metrics.counters:ExitCounters.record"),
        "analysis.sanitizer.records": extra.get("sanitizer_records", 0),
        "analysis.sanitizer.self_s": self_s("analysis.sanitizer"),
        "analysis.reconcile_s": total_s("analysis.reconcile:reconcile_run"),
        "obs.steal.self_s": self_s("obs.steal"),
        "obs.trace.self_s": self_s("obs.trace"),
        "analysis.overhead_x": extra.get("analysis.overhead_x", 0.0),
        "experiments.import_s": import_s,
        "experiments.spec_key_s": total_s("experiments:spec_key"),
        "experiments.cache.probe_s": total_s("experiments:cache.probe"),
        "experiments.cache.hit_ratio": ratio(counts.get(CACHE_HITS, 0), counts.get(SETTLED, 0)),
        "experiments.cache.store_s": total_s("experiments:cache.store"),
        "experiments.encode_s": total_s("experiments:encode"),
        "experiments.decode_s": total_s("experiments:decode"),
        "experiments.grid.self_s": totals.get(GRID, (0, 0, 0))[2] / 1e9,
        "experiments.assembly_s": totals.get("experiments:run_workload", (0, 0, 0))[2] / 1e9,
        "resilience.verify_s": total_s("resilience:verify"),
        "scenarios.expand_s": total_s("scenarios:expand"),
        "experiments.pool.worker_busy_share": ratio(counts.get(POOL_BUSY, 0),
                                                    counts.get(POOL_CAPACITY, 0)),
        "experiments.pool.retries": counts.get(RETRIES, 0),
        "fleet.shard_s": total_s("fleet:shard"),
        "fleet.aggregate_s": total_s("fleet:aggregate"),
        "trace.overhead_x": ratio(traced_s, untraced_s),
    }
    return out
