"""Tests for counters, run metrics, comparisons and aggregation."""

from __future__ import annotations

import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.host.exitreasons import TIMER_TAGS, ExitReason, ExitTag
from repro.metrics.aggregate import aggregate_improvements
from repro.metrics.counters import ExitCounters, ExitRecordKey
from repro.metrics.perf import RunMetrics
from repro.metrics.report import Comparison, compare_runs, format_table


def counters_with(entries):
    c = ExitCounters()
    for vcpu, reason, tag in entries:
        c.record(vcpu, reason, tag)
    return c


class TestExitCounters:
    def test_totals_and_splits(self):
        c = counters_with(
            [
                (0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM),
                (0, ExitReason.MSR_WRITE, ExitTag.IPI),
                (1, ExitReason.HLT, ExitTag.IDLE),
                (1, ExitReason.PREEMPTION_TIMER, ExitTag.TIMER_GUEST_TICK),
            ]
        )
        assert c.total == 4
        assert c.by_reason(ExitReason.MSR_WRITE) == 2
        assert c.by_tag(ExitTag.IPI) == 1
        assert c.timer_related == 2
        assert c.for_vcpu(0) == 2 and c.for_vcpu(1) == 2

    def test_merge(self):
        a = counters_with([(0, ExitReason.HLT, ExitTag.IDLE)])
        b = counters_with([(0, ExitReason.HLT, ExitTag.IDLE), (1, ExitReason.PAUSE, ExitTag.OTHER)])
        m = a.merge(b)
        assert m.total == 3
        assert m.by_reason(ExitReason.HLT) == 2
        assert a.total == 1  # originals untouched

    def test_breakdowns(self):
        c = counters_with(
            [
                (0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM),
                (0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM),
            ]
        )
        assert list(c.tag_breakdown().items()) == [(ExitTag.TIMER_PROGRAM, 2)]
        ((key, n),) = c.breakdown().items()
        assert key.reason is ExitReason.MSR_WRITE and n == 2


def metrics(label="x", exits=100, cycles=1_000_000, t=1_000_000, timer=50):
    c = ExitCounters()
    for _ in range(timer):
        c.record(0, ExitReason.MSR_WRITE, ExitTag.TIMER_PROGRAM)
    for _ in range(exits - timer):
        c.record(0, ExitReason.HLT, ExitTag.IDLE)
    return RunMetrics(
        label=label,
        exec_time_ns=t,
        total_cycles=cycles,
        useful_cycles=cycles // 2,
        overhead_cycles=cycles // 10,
        exits=c,
    )


class TestRunMetrics:
    def test_properties(self):
        m = metrics()
        assert m.total_exits == 100
        assert m.timer_exits == 50
        assert m.overhead_ratio == pytest.approx(0.1)
        assert m.exits_per_second() == pytest.approx(100 / 0.001)


class TestComparison:
    def test_signs_follow_paper_convention(self):
        base = metrics("base", exits=200, cycles=2_000_000, t=2_000_000)
        cand = metrics("cand", exits=100, cycles=1_600_000, t=1_900_000)
        comp = compare_runs(base, cand, "w")
        assert comp.vm_exits == pytest.approx(-0.5)
        assert comp.throughput == pytest.approx(0.25)
        assert comp.exec_time == pytest.approx(-0.05)

    def test_degenerate_baseline_rejected(self):
        base = metrics(exits=0, timer=0)
        with pytest.raises(ReproError):
            compare_runs(base, metrics())

    def test_row_formatting(self):
        comp = Comparison("w", -0.5, 0.25, -0.05)
        assert comp.row() == ("w", "-50.0%", "+25.0%", "-5.0%")


class TestAggregation:
    def test_geomean_of_ratios(self):
        comps = [Comparison("a", -0.5, 0.0, 0.0), Comparison("b", -0.5, 0.0, 0.0)]
        agg = aggregate_improvements(comps)
        assert agg.vm_exits == pytest.approx(-0.5)

    def test_mixed(self):
        comps = [Comparison("a", -0.75, 1.0, 0.0), Comparison("b", 0.0, 0.0, 0.0)]
        agg = aggregate_improvements(comps)
        # geomean(0.25, 1) - 1 = -0.5; geomean(2,1)-1 = sqrt2-1
        assert agg.vm_exits == pytest.approx(-0.5)
        assert agg.throughput == pytest.approx(math.sqrt(2) - 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_improvements([])

    @given(
        deltas=st.lists(
            st.floats(min_value=-0.9, max_value=2.0, allow_nan=False), min_size=1, max_size=20
        )
    )
    @settings(max_examples=50)
    def test_property_aggregate_within_range(self, deltas):
        comps = [Comparison(str(i), d, d, d) for i, d in enumerate(deltas)]
        agg = aggregate_improvements(comps)
        assert min(deltas) - 1e-9 <= agg.vm_exits <= max(deltas) + 1e-9


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [("1", "2"), ("333", "4")], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert all(len(l) >= 6 for l in lines[1:])

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ReproError):
            format_table(["a"], [("1", "2")])


class TestMergeRunMetrics:
    """Integer-exact merging (the fleet layer's conservation substrate)."""

    @staticmethod
    def metrics(label, *, exec_ns, cycles, steal_ns, ledger_ns=0, extra=None):
        from repro.hw.cpu import CycleDomain

        base = {"steal_ns": steal_ns}
        base.update(extra or {})
        return RunMetrics(
            label=label,
            exec_time_ns=exec_ns,
            total_cycles=cycles,
            useful_cycles=cycles // 2,
            overhead_cycles=cycles // 4,
            exits=counters_with([(0, ExitReason.HLT, ExitTag.IDLE)]),
            ledger={CycleDomain.GUEST_USER: ledger_ns},
            extra=base,
        )

    def test_sums_makespan_and_exits(self):
        from repro.metrics.aggregate import merge_run_metrics

        m = merge_run_metrics([
            self.metrics("a", exec_ns=10, cycles=100, steal_ns=7, ledger_ns=50),
            self.metrics("b", exec_ns=25, cycles=40, steal_ns=3, ledger_ns=8),
        ], label="both")
        assert m.label == "both"
        assert m.exec_time_ns == 25  # makespan, not a sum
        assert m.total_cycles == 140
        assert m.exits.total == 2
        from repro.hw.cpu import CycleDomain

        assert m.ledger[CycleDomain.GUEST_USER] == 58
        assert m.extra["steal_ns"] == 10

    def test_integer_precision_beyond_2_53(self):
        """Nanosecond totals above 2**53 must merge without float loss.

        ``float(2**60 + 1)`` rounds to ``2**60`` — a float intermediate
        anywhere in the merge silently drops the low bits. The merged
        value must be the exact integer sum.
        """
        from repro.metrics.aggregate import merge_run_metrics

        big, small = 2**60 + 1, 3
        assert float(big) + small != big + small  # the failure this guards
        m = merge_run_metrics([
            self.metrics("a", exec_ns=big, cycles=big, steal_ns=big,
                         ledger_ns=big),
            self.metrics("b", exec_ns=small, cycles=small, steal_ns=small,
                         ledger_ns=small),
        ])
        assert m.total_cycles == big + small
        assert m.extra["steal_ns"] == big + small
        assert isinstance(m.extra["steal_ns"], int)
        from repro.hw.cpu import CycleDomain

        assert m.ledger[CycleDomain.GUEST_USER] == big + small
        assert m.exec_time_ns == big  # max keeps the exact value

    def test_disjoint_and_string_extras(self):
        from repro.metrics.aggregate import merge_run_metrics

        a = self.metrics("a", exec_ns=1, cycles=1, steal_ns=0,
                         extra={"mode": "paratick", "only_a": 5})
        b = self.metrics("b", exec_ns=1, cycles=1, steal_ns=0,
                         extra={"mode": "paratick", "only_b": 7})
        m = merge_run_metrics([a, b])
        assert m.extra["mode"] == "paratick"
        assert m.extra["only_a"] == 5 and m.extra["only_b"] == 7

    def test_conflicting_string_extras_rejected(self):
        from repro.metrics.aggregate import merge_run_metrics

        a = self.metrics("a", exec_ns=1, cycles=1, steal_ns=0,
                         extra={"mode": "paratick"})
        b = self.metrics("b", exec_ns=1, cycles=1, steal_ns=0,
                         extra={"mode": "periodic"})
        with pytest.raises(ValueError, match="disagrees"):
            merge_run_metrics([a, b])

    def test_empty_rejected(self):
        from repro.metrics.aggregate import merge_run_metrics

        with pytest.raises(ValueError):
            merge_run_metrics([])

    def test_inputs_not_mutated(self):
        from repro.metrics.aggregate import merge_run_metrics

        a = self.metrics("a", exec_ns=1, cycles=10, steal_ns=4)
        b = self.metrics("b", exec_ns=2, cycles=20, steal_ns=6)
        merge_run_metrics([a, b])
        assert a.total_cycles == 10 and a.extra["steal_ns"] == 4
        assert b.exits.total == 1

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=2**64), min_size=1, max_size=12
        )
    )
    @settings(max_examples=60)
    def test_property_conservation_at_any_scale(self, values):
        from repro.metrics.aggregate import merge_run_metrics

        runs = [
            self.metrics(str(i), exec_ns=v, cycles=v, steal_ns=v, ledger_ns=v)
            for i, v in enumerate(values)
        ]
        m = merge_run_metrics(runs)
        assert m.total_cycles == sum(values)
        assert m.extra["steal_ns"] == sum(values)
        assert m.exec_time_ns == max(values)
        assert isinstance(m.extra["steal_ns"], int)


class _ReferenceCounters:
    """The Counter-keyed ExitCounters the int-indexed table replaced."""

    def __init__(self) -> None:
        self.by_key: Counter = Counter()
        self.by_vcpu: Counter = Counter()

    def record(self, vcpu: int, reason: ExitReason, tag: ExitTag) -> None:
        self.by_key[ExitRecordKey(reason, tag)] += 1
        self.by_vcpu[vcpu] += 1

    def merge(self, other: "_ReferenceCounters") -> "_ReferenceCounters":
        out = _ReferenceCounters()
        out.by_key = self.by_key + other.by_key
        out.by_vcpu = self.by_vcpu + other.by_vcpu
        return out

    def to_dict(self) -> dict:
        return {
            "by_key": [[k.reason.value, k.tag.value, c] for k, c in sorted(
                self.by_key.items(), key=lambda kc: (kc[0].reason.value, kc[0].tag.value))],
            "by_vcpu": {str(i): c for i, c in sorted(self.by_vcpu.items())},
        }


_EXIT_STREAM = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from(list(ExitReason)), st.sampled_from(list(ExitTag))),
    max_size=60,
)


class TestExitCountersMatchReference:
    """Random record streams into the table and into the reference."""

    @staticmethod
    def _both(stream):
        new, ref = ExitCounters(), _ReferenceCounters()
        for vcpu, reason, tag in stream:
            new.record(vcpu, reason, tag)
            ref.record(vcpu, reason, tag)
        return new, ref

    @staticmethod
    def _assert_same(new: ExitCounters, ref: _ReferenceCounters) -> None:
        assert new.breakdown() == dict(ref.by_key)
        order = [(k.reason, k.tag) for k in new.breakdown()]
        assert order == sorted(order, key=lambda rt: (list(ExitReason).index(rt[0]),
                                                     list(ExitTag).index(rt[1])))
        assert new.to_dict() == ref.to_dict()
        assert new.total == sum(ref.by_key.values())
        for reason in ExitReason:
            assert new.by_reason(reason) == sum(c for k, c in ref.by_key.items() if k.reason is reason)
        tags: Counter = Counter()
        for k, c in ref.by_key.items():
            tags[k.tag] += c
        assert new.tag_breakdown() == dict(tags)
        assert new.timer_related == sum(tags[t] for t in TIMER_TAGS)
        assert new.by_tags([ExitTag.IPI, ExitTag.IPI, ExitTag.IO]) == tags[ExitTag.IPI] + tags[ExitTag.IO]
        for vcpu in range(8):
            assert new.for_vcpu(vcpu) == ref.by_vcpu[vcpu]

    @given(stream=_EXIT_STREAM)
    @settings(max_examples=100, deadline=None)
    def test_record_and_round_trip(self, stream):
        new, ref = self._both(stream)
        self._assert_same(new, ref)
        back = ExitCounters.from_dict(json.loads(json.dumps(new.to_dict())))
        assert back == new
        self._assert_same(back, ref)

    @given(a=_EXIT_STREAM, b=_EXIT_STREAM)
    @settings(max_examples=100, deadline=None)
    def test_merge_and_equality(self, a, b):
        new_a, ref_a = self._both(a)
        new_b, ref_b = self._both(b)
        self._assert_same(new_a.merge(new_b), ref_a.merge(ref_b))
        self._assert_same(new_a.merge(ExitCounters()), ref_a)
        assert (new_a == new_b) == (ref_a.by_key == ref_b.by_key and ref_a.by_vcpu == ref_b.by_vcpu)
        assert new_a == self._both(list(reversed(a)))[0]
