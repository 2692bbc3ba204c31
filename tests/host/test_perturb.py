"""Semantic tests for the perturbation-event subsystem.

Each perturbation kind runs against a real workload under the full
runner and must (a) actually fire, (b) book the right accounting on the
VM, and (c) stay invisible — bit-identical metrics — when absent.
"""

from __future__ import annotations

import pytest

from repro.analysis.golden import metrics_digest
from repro.config import TickMode
from repro.errors import ConfigError
from repro.experiments.runner import run_workload
from repro.host.perturb import (
    Perturbation,
    perturbation_from_dict,
    perturbation_to_dict,
)
from repro.sim.timebase import MSEC, USEC
from repro.workloads.micro import IdlePeriodWorkload

MODES = list(TickMode)


def run_idleperiod(mode=TickMode.TICKLESS, perturbations=(), **kw):
    wl = IdlePeriodWorkload(500 * USEC, iterations=30, work_cycles=100_000)
    return run_workload(wl, tick_mode=mode, seed=5, cpuidle=True,
                        perturbations=perturbations, **kw)


class TestSuspendResume:
    @pytest.mark.parametrize("mode", MODES)
    def test_suspend_books_elapsed_host_time(self, mode):
        schedule = (Perturbation("suspend", at_ns=4 * MSEC, duration_ns=3 * MSEC),)
        m = run_idleperiod(mode, schedule)
        assert m.extra["suspend_count"] == 1
        assert m.extra["suspended_ns"] == 3 * MSEC
        assert m.extra["clock_jump_ns"] == 0  # plain resume: no jump

    def test_repeated_suspends(self):
        schedule = (Perturbation("suspend", at_ns=2 * MSEC, duration_ns=1 * MSEC,
                                 count=3, period_ns=4 * MSEC),)
        m = run_idleperiod(TickMode.TICKLESS, schedule)
        assert m.extra["suspend_count"] == 3
        assert m.extra["suspended_ns"] == 3 * MSEC

    def test_unperturbed_metrics_carry_no_perturbation_keys(self):
        m = run_idleperiod(TickMode.TICKLESS)
        assert "suspend_count" not in m.extra
        assert "clock_offset_ns" not in m.extra

    def test_unperturbed_run_unchanged_by_subsystem(self):
        # The perturbation plumbing must be invisible when the schedule
        # is empty: bit-identical metrics with and without the argument.
        assert metrics_digest(run_idleperiod()) == metrics_digest(
            run_idleperiod(perturbations=()))


class TestRestore:
    @pytest.mark.parametrize("mode", MODES)
    def test_restore_jumps_the_guest_clock(self, mode):
        schedule = (Perturbation("restore", at_ns=4 * MSEC, duration_ns=3 * MSEC),)
        m = run_idleperiod(mode, schedule)
        assert m.extra["suspend_count"] == 1
        assert m.extra["clock_jump_ns"] == 3 * MSEC

    def test_restore_differs_from_plain_suspend(self):
        suspend = (Perturbation("suspend", at_ns=4 * MSEC, duration_ns=3 * MSEC),)
        restore = (Perturbation("restore", at_ns=4 * MSEC, duration_ns=3 * MSEC),)
        a = run_idleperiod(TickMode.PARATICK, suspend)
        b = run_idleperiod(TickMode.PARATICK, restore)
        assert a.extra["clock_jump_ns"] == 0
        assert b.extra["clock_jump_ns"] == 3 * MSEC


class TestHotplug:
    @pytest.mark.parametrize("mode", MODES)
    def test_hotplug_and_lifo_unplug(self, mode):
        schedule = (Perturbation("hotplug", at_ns=2 * MSEC, duration_ns=6 * MSEC),)
        m = run_idleperiod(mode, schedule)
        assert m.extra["hotplug_count"] == 1
        assert m.extra["unplug_count"] == 1

    def test_hotplug_without_unplug_stays_online(self):
        schedule = (Perturbation("hotplug", at_ns=2 * MSEC),)
        m = run_idleperiod(TickMode.TICKLESS, schedule)
        assert m.extra["hotplug_count"] == 1
        assert m.extra["unplug_count"] == 0


class TestDrift:
    @pytest.mark.parametrize("mode", MODES)
    def test_drift_accumulates_offset(self, mode):
        schedule = (Perturbation("drift", at_ns=2 * MSEC, count=3,
                                 period_ns=4 * MSEC, step_ns=250 * USEC),)
        m = run_idleperiod(mode, schedule)
        assert m.extra["clock_offset_ns"] == 750 * USEC

    def test_negative_drift(self):
        schedule = (Perturbation("drift", at_ns=2 * MSEC, step_ns=-100 * USEC),)
        m = run_idleperiod(TickMode.TICKLESS, schedule)
        assert m.extra["clock_offset_ns"] == -100 * USEC


class TestPerturbationData:
    def test_round_trips_through_dict(self):
        p = Perturbation("drift", at_ns=1000, count=2, period_ns=5000, step_ns=-7)
        assert perturbation_from_dict(perturbation_to_dict(p)) == p

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown perturbation kind"):
            Perturbation("meteor", at_ns=1)
        with pytest.raises(ConfigError, match="at_ns"):
            Perturbation("suspend", at_ns=0, duration_ns=1)
        with pytest.raises(ConfigError, match="zero-length span"):
            Perturbation("suspend", at_ns=1)
        with pytest.raises(ConfigError, match="step_ns"):
            Perturbation("drift", at_ns=1)
        with pytest.raises(ConfigError, match="period_ns"):
            Perturbation("suspend", at_ns=1, duration_ns=10, count=2, period_ns=10)

    def test_describe_mentions_kind_and_time(self):
        text = Perturbation("suspend", at_ns=500, duration_ns=20).describe()
        assert "suspend" in text and "500" in text


class TestPerturbationEdges:
    """The corner schedules the fuzz harness can generate near limits."""

    def test_zero_duration_suspend_rejected(self):
        with pytest.raises(ConfigError, match="zero-length span"):
            Perturbation("suspend", at_ns=5 * MSEC, duration_ns=0)

    def test_zero_duration_restore_rejected(self):
        with pytest.raises(ConfigError, match="zero-length span"):
            Perturbation("restore", at_ns=5 * MSEC, duration_ns=0)

    def test_hotplug_at_t0_rejected(self):
        # at_ns >= 1: the VM must have booted before a vCPU can appear.
        with pytest.raises(ConfigError, match="at_ns must be >= 1"):
            Perturbation("hotplug", at_ns=0)

    def test_hotplug_at_first_instant_allowed(self):
        m = run_idleperiod(
            TickMode.TICKLESS, (Perturbation("hotplug", at_ns=1),))
        assert m.extra["hotplug_count"] == 1

    def test_zero_duration_hotplug_means_stays_online(self):
        # duration 0 is legal for hotplug (no LIFO unplug), unlike spans.
        m = run_idleperiod(
            TickMode.TICKLESS,
            (Perturbation("hotplug", at_ns=2 * MSEC, duration_ns=0),))
        assert m.extra["hotplug_count"] == 1
        assert m.extra["unplug_count"] == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_drift_crossing_a_tick_boundary_exactly(self, mode):
        """A drift step of exactly one guest tick period, fired exactly
        on a tick boundary (4 ms at the default 250 Hz), must stay
        sanitizer-clean — the off-by-one-tick regime where an
        inequality in the tick machinery would show."""
        from repro.analysis.checkers import TickSanitizer

        period = 4 * MSEC  # 1 / 250 Hz
        schedule = (Perturbation("drift", at_ns=period, step_ns=period),)
        sanitizer = TickSanitizer(mode=mode)
        m = run_idleperiod(mode, schedule, tracer=sanitizer)
        assert [str(v) for v in sanitizer.finish()] == []
        assert m.extra["clock_offset_ns"] == period

    @pytest.mark.parametrize("kind", ["suspend", "restore"])
    @pytest.mark.parametrize("mode", MODES)
    def test_resume_before_the_inflight_entry_lands(self, kind, mode):
        """A 1 ns span at t=1 ends while the boot entry started at t=0
        is still in flight. That continuation must park like one landing
        inside the span: the resume starts the only entry. (Both used to
        run, so the guest op stream ran twice and an orphaned compute
        completion crashed the run.)"""
        from repro.analysis.checkers import TickSanitizer

        sanitizer = TickSanitizer(mode=mode)
        m = run_idleperiod(mode, (Perturbation(kind, at_ns=1, duration_ns=1),),
                           tracer=sanitizer)
        assert [str(v) for v in sanitizer.finish()] == []
        assert m.extra["suspend_count"] == 1
        assert m.extra["suspended_ns"] == 1

    def test_exact_boundary_drift_deterministic(self):
        period = 4 * MSEC
        schedule = (Perturbation("drift", at_ns=period, step_ns=period),)
        a = run_idleperiod(TickMode.PARATICK, schedule)
        b = run_idleperiod(TickMode.PARATICK, schedule)
        assert metrics_digest(a) == metrics_digest(b)
