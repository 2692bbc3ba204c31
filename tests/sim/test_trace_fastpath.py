"""NullTracer fast-path audit: with tracing disabled, no component may
call ``emit`` or build a detail object on the hot path.

The proof is an exploding tracer: ``enabled`` is False like NullTracer,
but ``emit`` raises. Full workload runs — including the overcommitted
and cpuidle paths, which trace the most — must complete untouched,
demonstrating every call site checks ``tracer.enabled`` first.

Also covers TeeTracer, the fan-out used to attach the sanitizer
alongside a user tracer without losing that fast path, and kind
routing: a sink or checker is handed only the kinds it declares.
"""

from __future__ import annotations

import pytest

from repro.config import MachineSpec, TickMode
from repro.experiments.runner import run_workload
from repro.sim.trace import NullTracer, RingTracer, TeeTracer, Tracer
from repro.sim.timebase import USEC
from repro.workloads.micro import IdlePeriodWorkload, PingPongWorkload


class ExplodingTracer(Tracer):
    """Disabled like NullTracer, but any emit call is a test failure."""

    enabled = False

    def emit(self, time, source, kind, detail=None):
        raise AssertionError(
            f"emit called with tracing disabled: {kind} from {source} "
            f"(detail={detail!r}) — an emit call site is missing its "
            f"'tracer.enabled' guard"
        )


class TestDisabledTracerDoesZeroWork:
    def test_idle_run_never_emits(self):
        run_workload(
            IdlePeriodWorkload(300 * USEC, iterations=5, work_cycles=100_000),
            tick_mode=TickMode.TICKLESS, seed=3, cpuidle=True,
            tracer=ExplodingTracer(),
        )

    @pytest.mark.parametrize("mode", list(TickMode))
    def test_all_tick_modes_never_emit(self, mode):
        run_workload(
            PingPongWorkload(rounds=40), tick_mode=mode, seed=3,
            tracer=ExplodingTracer(),
        )

    def test_overcommitted_run_never_emits(self):
        run_workload(
            PingPongWorkload(rounds=40), tick_mode=TickMode.PARATICK, seed=3,
            machine_spec=MachineSpec(sockets=1, cpus_per_socket=1),
            pinned_cpus=(0, 0), tracer=ExplodingTracer(),
        )

    def test_null_tracer_default_matches(self):
        """The default (no tracer argument) takes the same fast path."""
        a = run_workload(PingPongWorkload(rounds=40), seed=3)
        b = run_workload(PingPongWorkload(rounds=40), seed=3,
                         tracer=ExplodingTracer())
        assert a.total_cycles == b.total_cycles
        assert a.exec_time_ns == b.exec_time_ns


class TestTeeTracer:
    def test_fans_out_to_all_sinks(self):
        a, b = RingTracer(), RingTracer()
        tee = TeeTracer(a, b)
        tee.emit(1, "s", "k", (2,))
        assert len(a.records) == len(b.records) == 1
        assert a.records[0] == b.records[0]

    def test_skips_disabled_sinks(self):
        ring = RingTracer()
        tee = TeeTracer(ExplodingTracer(), ring)  # must not explode
        tee.emit(1, "s", "k")
        assert len(ring.records) == 1

    def test_enabled_iff_any_sink_enabled(self):
        assert TeeTracer(NullTracer(), RingTracer()).enabled is True
        assert TeeTracer(NullTracer()).enabled is False
        assert TeeTracer(NullTracer(), NullTracer()).enabled is False

    def test_all_disabled_tee_preserves_fast_path(self):
        """A tee of disabled sinks is itself disabled, so call sites
        skip it entirely — verified through a full run."""
        run_workload(PingPongWorkload(rounds=40), seed=3,
                     tracer=TeeTracer(ExplodingTracer(), NullTracer()))

    def test_empty_tee_rejected(self):
        with pytest.raises(ValueError):
            TeeTracer()


class _KindLog(Tracer):
    """Records the kinds it is handed; ``kinds`` set per instance."""

    def __init__(self, kinds=None):
        self.kinds = kinds
        self.got: list[str] = []

    def emit(self, time, source, kind, detail=None):
        self.got.append(kind)


class TestKindRouting:
    """TeeTracer and TickSanitizer hand a record only to the sinks and
    checkers whose ``kinds`` consume its kind."""

    def test_sink_never_called_for_excluded_kind(self):
        narrow = _KindLog(frozenset({"x"}))
        wide = _KindLog()
        tee = TeeTracer(narrow, wide)
        for kind in ("x", "y", "x", "z"):
            tee.emit(1, "s", kind)
        assert narrow.got == ["x", "x"]
        assert wide.got == ["x", "y", "x", "z"]

    def test_undeclared_or_non_frozenset_kinds_route_everything(self):
        """Only a frozenset narrows routing; a plain set (or a method,
        like RingTracer.kinds) is not a declaration."""
        as_set = _KindLog({"x"})
        tee = TeeTracer(as_set)
        tee.emit(1, "s", "y")
        assert as_set.got == ["y"]

    def test_tee_kinds_is_union_of_enabled_sinks(self):
        from repro.obs.steal import StealTracker

        tee = TeeTracer(_KindLog(frozenset({"a"})), StealTracker(), ExplodingTracer())
        assert tee.kinds == frozenset({"a", "vcpu_state", "sched_dispatch"})
        assert TeeTracer(_KindLog(frozenset({"a"})), RingTracer()).kinds is None

    def test_nested_tee_routes_through(self):
        inner = _KindLog(frozenset({"b"}))
        outer = TeeTracer(TeeTracer(inner), _KindLog(frozenset({"a"})))
        for kind in ("a", "b", "c"):
            outer.emit(1, "s", kind)
        assert inner.got == ["b"]

    def test_tee_of_disabled_sinks_stays_disabled(self):
        tee = TeeTracer(ExplodingTracer(), NullTracer())
        assert tee.enabled is False
        run_workload(PingPongWorkload(rounds=40), seed=3, tracer=tee)

    def test_disabled_sink_never_routed(self):
        ring = RingTracer()
        tee = TeeTracer(ExplodingTracer(), ring)
        for kind in ("vmexit", "vcpu_state", "unregistered"):
            tee.emit(1, "s", kind)
        assert [r.kind for r in ring.records] == ["vmexit", "vcpu_state", "unregistered"]

    def test_filtered_ring_behind_tee_counts_every_offer(self):
        """RingTracer filters itself, so it must consume every kind at
        the routing level: ``offered`` counts filtered records too."""
        ring = RingTracer(capacity=2, kinds={"keep"})
        assert ring.kinds() == {}
        tee = TeeTracer(ring, _KindLog(frozenset({"other"})))
        for i in range(3):
            tee.emit(i, "s", "keep")
        tee.emit(9, "s", "other")
        tee.emit(10, "s", "drop")
        assert ring.offered == 5
        assert ring.dropped == 1
        assert [r.time for r in ring.records] == [1, 2]

    def test_custom_checker_without_kinds_sees_every_record(self):
        from repro.analysis.checkers import Checker, LapicChecker, TickSanitizer

        class Everything(Checker):
            name = "everything"

            def __init__(self):
                super().__init__()
                self.got = []

            def on_event(self, record, error):
                self.got.append((record.kind, error is None))

        every, lapic = Everything(), LapicChecker()
        san = TickSanitizer([every, lapic])
        san.emit(1, "lapic", "lapic_arm", ("oneshot", 5))
        san.emit(2, "vm0/vcpu0", "idle_enter")
        san.emit(3, "vm0/vcpu0", "no_such_kind")
        san.emit(4, "vm0/vcpu0", "idle_enter", "malformed")
        assert every.got == [
            ("lapic_arm", True), ("idle_enter", True),
            ("no_such_kind", False), ("idle_enter", False),
        ]
        assert lapic.seen == 1
        assert san.events == 4

    def test_checker_never_called_for_excluded_kind(self):
        from repro.analysis.checkers import InjectChecker, TickSanitizer

        class Strict(InjectChecker):
            def on_event(self, record, error):
                assert record.kind == "inject", record.kind
                super().on_event(record, error)

        strict = Strict()
        san = TickSanitizer([strict])
        run_workload(PingPongWorkload(rounds=40), seed=3, tracer=san)
        assert strict.seen > 0
        assert san.finish() == []

    def test_declared_kinds_are_registered(self):
        """A misspelt kind in a declaration would silently starve its
        consumer, so every declared kind must be in the schema."""
        from repro.analysis.checkers import default_checkers
        from repro.analysis.events import EVENT_SCHEMA
        from repro.obs.histograms import LatencyRecorder
        from repro.obs.series import SeriesRecorder
        from repro.obs.steal import StealTracker

        consumers = [*default_checkers(), StealTracker(), SeriesRecorder(), LatencyRecorder()]
        for c in consumers:
            if c.kinds is not None:
                assert c.kinds <= EVENT_SCHEMA.keys(), (type(c).__name__, c.kinds - EVENT_SCHEMA.keys())

    def test_schema_errors_validated_once_per_record(self, monkeypatch):
        from repro.analysis import events
        from repro.analysis.checkers import TickSanitizer

        calls = []
        real = events.validator_for

        def counting(kind):
            check = real(kind)

            def wrapped(k, detail):
                calls.append(k)
                return check(k, detail)

            return wrapped

        monkeypatch.setattr(events, "validator_for", counting)
        san = TickSanitizer()
        run_workload(PingPongWorkload(rounds=40), seed=3, tracer=san)
        assert len(calls) == san.events > 0
        assert san.ok


class TestTeeWithObsSinks:
    """The observability layer composes through TeeTracer: its sinks are
    always-on tracers, so the tee must report enabled, and the builder
    must never wrap a disabled user tracer in an enabled tee for free."""

    def test_obs_sinks_enable_the_tee(self):
        from repro.obs.steal import StealTracker

        assert TeeTracer(NullTracer(), StealTracker()).enabled is True

    def test_obs_builder_propagates_enabled(self):
        from repro.obs import ObsConfig, Observability

        on = Observability(ObsConfig(trace_export=True))
        assert on.tracer(None).enabled is True
        assert on.tracer(ExplodingTracer()).enabled is True
        off = Observability(ObsConfig(
            profile=False, latency=False, steal=False, trace_export=False))
        # No sinks: the user's disabled tracer passes through untouched,
        # keeping the zero-work fast path.
        exploding = ExplodingTracer()
        assert off.tracer(exploding) is exploding
        run_workload(PingPongWorkload(rounds=40), seed=3,
                     tracer=off.tracer(ExplodingTracer()))


class TestCallbackTracerUnderExporter:
    def test_callback_stream_exports_to_valid_chrome_trace(self):
        """A CallbackTracer collecting the live stream feeds the Chrome
        exporter just like a RingTracer dump — streaming consumers are
        not second-class."""
        from repro.sim.trace import CallbackTracer
        from repro.obs.export import to_chrome_trace, validate_chrome_trace

        got = []
        run_workload(PingPongWorkload(rounds=40), seed=3,
                     tracer=CallbackTracer(got.append))
        assert got, "callback tracer saw no records"
        doc = to_chrome_trace(got)
        assert validate_chrome_trace(doc) == []
        assert any(ev["ph"] == "X" for ev in doc["traceEvents"])
