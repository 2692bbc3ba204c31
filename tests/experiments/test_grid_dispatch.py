"""The grid's one dispatch loop and the observers of its cell transitions.

``run_grid`` probes each cell, dispatches the misses through a single
loop over an executor (a process pool, or the in-process stand-in for
``jobs<=1``) and settles every outcome in one place. The journal, the
harness telemetry and the progress callback observe the resulting
:class:`CellTransition` stream; each is driven alone here from a
scripted sequence.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.config import TickMode
from repro.experiments import parallel
from repro.experiments.parallel import (
    CellTransition,
    RunSpec,
    WorkloadSpec,
    _InlineExecutor,
    encode_result,
    journal_observer,
    progress_observer,
    register_workload,
    run_grid,
    spec_key,
    telemetry_observer,
)
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.journal import RunJournal, result_hash
from repro.resilience.policy import CircuitBreaker
from repro.telemetry import HarnessTelemetry


def _boom_factory(**kw):
    raise RuntimeError("dispatch-boom")


def _slow_boom_factory(**kw):
    time.sleep(0.05)  # stagger settles so the breaker trips mid-grid
    raise RuntimeError("dispatch-slow-boom")


register_workload("dispatch.boom", _boom_factory)
register_workload("dispatch.slowboom", _slow_boom_factory)


def cheap_spec(seed: int = 0) -> RunSpec:
    return RunSpec(
        WorkloadSpec.make("micro.pingpong", rounds=40, work_cycles=10_000),
        tick_mode=TickMode.PARATICK,
        seed=seed,
        noise=False,
    )


BOOM = RunSpec(WorkloadSpec.make("dispatch.boom"))
SLOW_BOOM = RunSpec(WorkloadSpec.make("dispatch.slowboom"))


def _cell_records(path, specs) -> list[dict]:
    """The journal's cell records, keys replaced by their spec index."""
    keys = [spec_key(s) for s in specs]
    out = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["type"] == "cell":
            record["key"] = keys.index(record["key"])
            out.append(record)
    return out


class TestPoolBreak:
    def test_a_worker_crash_charges_only_the_cells_in_flight(self, tmp_path):
        """One SIGKILLed worker, no retries: before the dispatch window,
        every queued cell was a casualty and all 12 cells failed."""
        jobs = 2
        specs = [cheap_spec(seed=s) for s in range(12)]
        chaos = ChaosPolicy(kill_keys=frozenset({spec_key(specs[0])}),
                            fuse_dir=str(tmp_path / "fuse"))
        grid = run_grid(specs, jobs=jobs, use_cache=False, retries=0, chaos=chaos)
        assert 1 <= len(grid.failed_specs) <= jobs + 1
        assert {f.kind for f in grid.failed_specs} == {"crash"}
        assert grid.executed + len(grid.failed_specs) == len(specs)
        assert grid.report.pool_rebuilds == 1

    def test_a_pool_keeps_at_most_workers_plus_one_cells_in_flight(self, monkeypatch):
        jobs = 2
        live, peak = 0, 0
        lock = threading.Lock()

        def finished(_fut):
            nonlocal live
            with lock:
                live -= 1

        class Counting:
            """Counts the pool's unfinished futures."""

            def __init__(self, inner):
                self.inner = inner

            def submit(self, *args):
                nonlocal live, peak
                with lock:
                    live += 1
                    peak = max(peak, live)
                fut = self.inner.submit(*args)
                fut.add_done_callback(finished)
                return fut

            def shutdown(self, **kwargs):
                self.inner.shutdown(**kwargs)

        real = parallel._Grid.executor
        monkeypatch.setattr(parallel._Grid, "executor",
                            lambda grid, *a, **kw: Counting(real(grid, *a, **kw)))
        grid = run_grid([cheap_spec(seed=s) for s in range(8)], jobs=jobs, use_cache=False)
        assert grid.raise_if_failed().executed == 8
        assert 1 < peak <= jobs + 1


    def test_degraded_to_in_process_run_is_byte_identical(self):
        """After the breaker's last step the remaining cells run on the
        in-process executor, with the same bytes as a clean serial run."""
        good = [cheap_spec(seed=s) for s in range(4)]
        specs = [SLOW_BOOM.with_(seed=s) for s in range(4)] + good
        brk = CircuitBreaker(threshold=0.5, min_events=2, window=4)
        grid = run_grid(specs, jobs=2, use_cache=False, retries=0, breaker=brk)
        assert grid.report.degradation == ["pool shrunk to 1", "fell back to serial"]
        assert len(grid.failed_specs) == 4 and grid.executed == 4
        clean = run_grid(good, jobs=1, use_cache=False).raise_if_failed()
        for spec in good:
            assert encode_result(grid[spec]) == encode_result(clean[spec])


class TestSerialLoop:
    def test_jobs1_journal_lists_the_reference_records_in_order(self, tmp_path):
        """The in-process executor journals exactly what the former
        serial path did: probe records first, then each cell's attempts
        and settle before the next cell starts."""
        specs = [cheap_spec(0), cheap_spec(1), BOOM, cheap_spec(2)]
        run_grid([specs[0]], jobs=1, cache_dir=tmp_path / "cache")
        journal = tmp_path / "run.journal"
        grid = run_grid(specs, jobs=1, cache_dir=tmp_path / "cache", journal=journal,
                        retries=1)
        records = _cell_records(journal, specs)
        hashes = {r["key"]: r.pop("result_hash") for r in records if "result_hash" in r}
        for r in records:
            del r["type"]
        assert records == [
            {"event": "cached", "key": 0},
            {"event": "scheduled", "key": 1},
            {"event": "scheduled", "key": 2},
            {"event": "scheduled", "key": 3},
            {"event": "started", "key": 1, "attempt": 1},
            {"event": "done", "key": 1},
            {"event": "started", "key": 2, "attempt": 1},
            {"event": "started", "key": 2, "attempt": 2},
            {"event": "failed", "key": 2, "attempts": 2, "kind": "error",
             "error": "RuntimeError('dispatch-boom')"},
            {"event": "started", "key": 3, "attempt": 1},
            {"event": "done", "key": 3},
        ]
        for index, digest in hashes.items():
            assert digest == result_hash(encode_result(grid[specs[index]]))

    def test_the_breaker_acts_only_while_a_pool_runs(self):
        brk = CircuitBreaker(threshold=0.5, min_events=1, window=2)
        grid = run_grid([BOOM, cheap_spec()], jobs=1, use_cache=False, retries=0,
                        breaker=brk)
        assert grid.report.degradation == []
        assert brk.events == 0 and brk.trips == 0
        assert grid.executed == 1 and len(grid.failed_specs) == 1

    def test_inline_executor_holds_exceptions_but_not_interrupts(self):
        executor = _InlineExecutor()
        assert executor.submit(lambda x: x + 1, 1).result() == 2
        fut = executor.submit(_boom_factory)
        assert isinstance(fut.exception(), RuntimeError)

        def interrupt():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            executor.submit(interrupt)


# --------------------------------------------------------------------------
# Observers, each alone, from one scripted transition sequence
# --------------------------------------------------------------------------

SPEC = cheap_spec()
KEY = spec_key(SPEC)
ENCODED = {"type": "run_metrics", "data": {"scripted": 1}}

SCRIPT = [
    CellTransition("scheduled", SPEC, KEY),
    CellTransition("started", SPEC, KEY, attempt=1),
    CellTransition("retry", SPEC, KEY, attempt=1, error="RuntimeError('x')",
                   failure_kind="error", duration_s=0.5),
    CellTransition("started", SPEC, KEY, attempt=2),
    CellTransition("ran", SPEC, KEY, attempt=2, duration_s=0.25, encoded=ENCODED, pid=42),
    CellTransition("cached", SPEC, KEY, encoded=ENCODED),
    CellTransition("resumed", SPEC, KEY, encoded=ENCODED),
    CellTransition("failed", SPEC, KEY, attempt=3, error="RunTimeout()",
                   failure_kind="timeout", duration_s=1.0),
]


class TestJournalObserver:
    def test_records_every_transition_but_retry(self, tmp_path):
        path = tmp_path / "run.journal"
        with RunJournal.create(path, [KEY]) as journal:
            observe = journal_observer(journal)
            for t in SCRIPT:
                observe(t)
        records = [json.loads(line) for line in path.read_text().splitlines()][1:]
        digest = result_hash(ENCODED)
        assert [{k: v for k, v in r.items() if k not in ("type", "key")}
                for r in records] == [
            {"event": "scheduled"},
            {"event": "started", "attempt": 1},
            {"event": "started", "attempt": 2},
            {"event": "done", "result_hash": digest},
            {"event": "cached", "result_hash": digest},
            {"event": "resumed", "result_hash": digest},
            {"event": "failed", "error": "RunTimeout()", "kind": "timeout", "attempts": 3},
        ]


class TestTelemetryObserver:
    def test_counters_instants_and_worker_lane(self):
        tel = HarnessTelemetry()
        observe = telemetry_observer(tel, cache=True, resume_done=[KEY])
        for t in SCRIPT:
            observe(t)
        m = tel.metrics
        for status in ("ran", "cached", "resumed", "retry", "failed"):
            assert m.counter_value("cells", status=status) == 1, status
        assert m.counter_value("cache_misses") == 1
        assert m.counter_value("cache_hits") == 2
        assert m.counter_value("cells_resumed") == 1
        assert m.counter_value("cells_reverified") == 1
        assert m.histogram("shard_wall_ns", status="ran").count == 1
        assert m.histogram("shard_wall_ns", status="cached") is None
        instants = [i.name for i in tel.tracer.instants()]
        assert instants == ["resume.miss", "cache.miss", "shard.retry", "cache.hit",
                            "resume.hit", "cache.hit", "shard.failed"]
        [span] = tel.tracer.spans()
        assert (span.name, span.lane) == ("shard.execute", "worker-42")

    def test_no_cache_means_no_miss(self):
        tel = HarnessTelemetry()
        telemetry_observer(tel, cache=False)(SCRIPT[0])
        assert tel.metrics.counter_value("cache_misses") == 0
        assert tel.tracer.instants() == []


class TestProgressObserver:
    def test_one_event_per_settle_and_retry(self):
        events = []
        observe = progress_observer(events.append, total=4)
        for t in SCRIPT:
            observe(t)
        assert [(e.status, e.done, e.attempt, e.cache_hit, e.failure_kind)
                for e in events] == [
            ("retry", 0, 1, False, "error"),
            ("ran", 1, 2, False, None),
            ("cached", 2, 1, True, None),
            ("resumed", 3, 1, True, None),
            ("failed", 4, 3, False, "timeout"),
        ]
        assert all(e.total == 4 for e in events)
        assert events[1].duration_s == 0.25

    def test_raising_callback_is_disabled_after_its_first_raise(self):
        calls = []

        def bad(event):
            calls.append(event)
            raise RuntimeError("observer bug")

        observe = progress_observer(bad, total=4)
        with pytest.warns(RuntimeWarning, match="progress callback disabled"):
            for t in SCRIPT:
                observe(t)
        assert len(calls) == 1
