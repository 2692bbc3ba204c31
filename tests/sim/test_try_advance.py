"""Run-ahead: ``Simulator.try_advance`` and the vCPU executor built on it.

The unit cases pin the engine contract: an advance is granted only inside
:meth:`Simulator.run`, before :meth:`Simulator.stop`, within the run's
inclusive horizon and strictly before the earliest live event.

The property runs random guests twice, once as built and once with
``try_advance`` forced to refuse (every ``Compute`` op then costs an
engine event, as before run-ahead existed), and requires the same
:class:`RunMetrics` and the same trace record stream from both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import IoDeviceKind, MachineSpec, TickMode, VmSpec
from repro.errors import WorkloadError
from repro.experiments.assembly import GuestSpec, assemble_host
from repro.guest.sync import BoundedQueue, Mutex
from repro.guest.task import (
    BlockRead,
    MutexLock,
    MutexUnlock,
    PageFault,
    QueueGet,
    QueuePut,
    Run,
    Sleep,
    Task,
    YieldCpu,
)
from repro.host.perturb import Perturbation
from repro.hw.interrupts import Vector
from repro.sim.engine import Simulator
from repro.sim.trace import RingTracer
from repro.workloads.base import Workload


def _probe(sim: Simulator, out: list, *times: int):
    """A callback recording ``try_advance`` answers and the clock after each."""

    def probe() -> None:
        for t in times:
            out.append((sim.try_advance(t), sim.now))

    return probe


class TestTryAdvance:
    def test_grants_when_head_is_later(self):
        sim = Simulator()
        out, fired = [], []
        sim.at(10, _probe(sim, out, 50))
        sim.at(51, lambda: fired.append(sim.now))
        sim.run()
        assert out == [(True, 50)]
        assert fired == [51]

    def test_head_event_at_exactly_t_blocks(self):
        sim = Simulator()
        out, fired = [], []
        sim.at(10, _probe(sim, out, 50))
        sim.at(50, lambda: fired.append(sim.now))
        sim.run()
        assert out == [(False, 10)]
        assert fired == [50]

    def test_same_instant_event_blocks_zero_advance(self):
        sim = Simulator()
        out = []
        sim.at(10, _probe(sim, out, 10))
        sim.at(10, lambda: None)
        sim.run()
        assert out == [(False, 10)]

    def test_horizon_is_inclusive(self):
        sim = Simulator()
        out = []
        sim.at(10, _probe(sim, out, 51, 50, 51))
        assert sim.run(until=50) == 50
        assert out == [(False, 10), (True, 50), (False, 50)]

    def test_unbounded_run_grants_on_an_empty_queue(self):
        sim = Simulator()
        out = []
        sim.at(10, _probe(sim, out, 10**15))
        assert sim.run() == 10**15
        assert out == [(True, 10**15)]

    def test_stop_from_a_callback_blocks(self):
        sim = Simulator()
        out = []

        def stop_then_probe() -> None:
            sim.stop()
            out.append(sim.try_advance(20))

        sim.at(10, stop_then_probe)
        sim.at(100, lambda: None)
        sim.run()
        assert out == [False]
        assert sim.now == 10

    def test_dead_head_entries_are_skipped_and_dropped(self):
        sim = Simulator()
        out = []
        queue = sim._queue

        def probe() -> None:
            dead_before = queue._dead
            out.append((dead_before, sim.try_advance(40), queue._dead, sim.now))

        sim.at(10, probe)
        cancelled = sim.at(20, lambda: None)
        moved = sim.at(30, lambda: None)
        sim.cancel(cancelled)
        sim.rearm(moved, 100)
        sim.run()
        # Both dead entries sat ahead of the live one at 100.
        assert out == [(2, True, 0, 40)]
        assert sim.now == 100

    def test_outside_run_is_always_false(self):
        sim = Simulator()
        assert sim.try_advance(5) is False
        sim.at(10, lambda: None)
        sim.run()
        assert sim.try_advance(20) is False
        assert sim.now == 10

    def test_under_step_is_always_false(self):
        sim = Simulator()
        out = []
        sim.at(10, _probe(sim, out, 15))
        assert sim.step()
        assert out == [(False, 10)]

    def test_clock_after_advance_orders_later_schedules(self):
        sim = Simulator()
        fired = []

        def advance_then_schedule() -> None:
            assert sim.try_advance(40)
            sim.schedule(0, lambda: fired.append(("a", sim.now)))
            sim.at(45, lambda: fired.append(("b", sim.now)))

        sim.at(10, advance_then_schedule)
        sim.at(50, lambda: fired.append(("c", sim.now)))
        sim.run()
        assert fired == [("a", 40), ("b", 45), ("c", 50)]


# --------------------------------------------------------------------------
# Run-ahead vs event-per-op equivalence
# --------------------------------------------------------------------------

_ops = st.one_of(
    st.tuples(st.just("run"), st.integers(0, 2_500_000)),
    st.tuples(st.just("run"), st.integers(1, 3_000)),
    st.tuples(st.just("sleep"), st.integers(1_000, 3_000_000), st.booleans()),
    st.tuples(st.just("yield")),
    st.tuples(st.just("fault"), st.integers(1, 3)),
    st.tuples(st.just("read"), st.integers(1, 20_000)),
    st.tuples(st.just("locked"), st.integers(0, 200_000)),
    st.tuples(st.just("put")),
    st.tuples(st.just("get")),
)

#: Ops that cannot leave a task blocked forever (runs with main tasks
#: must be able to finish).
_FINITE = ("run", "sleep", "yield", "fault", "read", "locked")


class _RandomOps(Workload):
    """Tasks replaying fixed op streams, plus foreign events at fixed times."""

    name = "random-ops"
    io_device = IoDeviceKind.NVME_SSD

    def __init__(self, vcpus: int, streams, foreign, mains: bool):
        self.vcpus = vcpus
        self.streams = streams
        self.foreign = foreign
        self.mains = mains

    def default_vcpus(self) -> int:
        return self.vcpus

    def build(self, kernel) -> list[Task]:
        mutex = Mutex("m")
        queue = BoundedQueue(1, name="q")
        tasks = [
            Task(f"t{i}", self._body(ops, mutex, queue), affinity=i % self.vcpus)
            for i, ops in enumerate(self.streams)
        ]
        for t in tasks:
            kernel.add_task(t)
        hv, vm = kernel.hv, kernel.vm
        for at, kind, vidx in self.foreign:
            if kind == "noop":
                kernel.sim.at(at, lambda: None)
            else:
                vector = Vector.RESCHEDULE if kind == "resched" else Vector.BLOCK_IO
                kernel.sim.at(at, hv.deliver_device_irq, vm, vidx % self.vcpus, vector)
        return tasks if self.mains else []

    @staticmethod
    def _body(ops, mutex, queue):
        for op in ops:
            kind = op[0]
            if kind == "run":
                yield Run(op[1])
            elif kind == "sleep":
                yield Sleep(op[1], precise=op[2])
            elif kind == "yield":
                yield YieldCpu()
            elif kind == "fault":
                yield PageFault(op[1])
            elif kind == "read":
                yield BlockRead(op[1])
            elif kind == "locked":
                yield MutexLock(mutex)
                yield Run(op[1])
                yield MutexUnlock(mutex)
            elif kind == "put":
                yield QueuePut(queue, 1)
            else:
                yield QueueGet(queue)


@st.composite
def _scenarios(draw):
    vcpus = draw(st.integers(1, 3))
    mains = draw(st.booleans())
    ops = _ops.filter(lambda op: op[0] in _FINITE) if mains else _ops
    streams = draw(st.lists(st.lists(ops, min_size=1, max_size=12), min_size=1, max_size=4))
    horizon = draw(st.integers(1_000_000, 9_000_000))
    foreign = draw(st.lists(
        st.tuples(
            st.integers(1, horizon),
            st.sampled_from(("noop", "resched", "irq")),
            st.integers(0, 2),
        ),
        max_size=8,
    ))
    perturbations = ()
    if draw(st.booleans()):
        at = draw(st.integers(1, horizon))
        perturbations = (Perturbation(
            draw(st.sampled_from(("suspend", "restore"))),
            at_ns=at,
            duration_ns=draw(st.integers(1, 2_000_000)),
        ),)
    return dict(
        vcpus=vcpus,
        # One or two pCPUs: two vCPUs on one pCPU exercise host scheduling.
        pins=tuple(draw(st.integers(0, 1)) for _ in range(vcpus)),
        mode=draw(st.sampled_from(list(TickMode))),
        noise=draw(st.booleans()),
        streams=streams,
        foreign=foreign,
        mains=mains,
        horizon=horizon,
        perturbations=perturbations,
    )


def _run(sc):
    tracer = RingTracer(capacity=1_000_000)
    spec = VmSpec(
        name="vm0",
        vcpus=sc["vcpus"],
        tick_mode=sc["mode"],
        tick_hz=1000,
        pinned_cpus=sc["pins"],
        noise=sc["noise"],
    )
    workload = _RandomOps(sc["vcpus"], sc["streams"], sc["foreign"], sc["mains"])
    try:
        run = assemble_host(
            [GuestSpec(spec, workload)],
            machine=MachineSpec(sockets=1, cpus_per_socket=2),
            seed=3,
            horizon_ns=sc["horizon"],
            perturbations=sc["perturbations"],
            tracer=tracer,
            label="run-ahead",
        )
        outcome = run.metrics.to_json_dict()
    except WorkloadError as e:
        outcome = f"WorkloadError: {e}"
    assert tracer.dropped == 0
    return outcome, list(tracer.records)


def _assert_run_ahead_exact(sc):
    fused = _run(sc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "try_advance", lambda self, time: False)
        unfused = _run(sc)
    assert fused[0] == unfused[0]
    assert fused[1] == unfused[1]


def _granted(sc) -> list[int]:
    """The clock values ``sc`` ran ahead to."""
    granted = []
    real = Simulator.try_advance

    def recording(self, time):
        ok = real(self, time)
        if ok:
            granted.append(time)
        return ok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "try_advance", recording)
        _run(sc)
    return granted


@settings(max_examples=40, deadline=None)
@given(_scenarios())
def test_run_ahead_matches_event_per_op(sc):
    _assert_run_ahead_exact(sc)


@settings(max_examples=25, deadline=None)
@given(_scenarios(), st.data())
def test_foreign_event_at_an_op_end(sc, data):
    """Ties: foreign events due exactly when an op the guest ran ahead
    through ends. They were scheduled first, so they must fire first."""
    ends = _granted(sc)
    if not ends:
        return
    ties = data.draw(st.lists(
        st.tuples(
            st.sampled_from(ends),
            st.sampled_from(("noop", "resched", "irq")),
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=4,
    ))
    _assert_run_ahead_exact(dict(sc, foreign=sc["foreign"] + ties))


def test_run_ahead_is_taken():
    """The properties above are not vacuous: guests do run ahead."""
    sc = dict(
        vcpus=2, pins=(0, 1), mode=TickMode.PARATICK, noise=False,
        streams=[[("run", 1_000)] * 50, [("locked", 2_000)] * 20],
        foreign=[], mains=True, horizon=50_000_000, perturbations=(),
    )
    assert len(_granted(sc)) > 50
