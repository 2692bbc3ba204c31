"""Tests for CSV export and the overcommit scenarios."""

from __future__ import annotations

import csv

import pytest

from repro.config import MachineSpec, TickMode
from repro.errors import ConfigError
from repro.experiments.export import comparisons_to_csv, export_fig6, write_csv
from repro.experiments.overcommit import compare_modes, run_idle_overcommit
from repro.experiments.parallel import (
    OVERCOMMIT_IDLE,
    GridError,
    RunSpec,
    WorkloadSpec,
    run_spec,
)
from repro.metrics.report import Comparison
from repro.sim.timebase import SEC, CpuClock


class TestCsvExport:
    def test_csv_roundtrip(self):
        comps = [Comparison("a", -0.5, 0.1, -0.02), Comparison("b", -0.3, 0.2, -0.01)]
        text = comparisons_to_csv(comps)
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["label", "vm_exits", "throughput", "exec_time"]
        assert rows[1][0] == "a"
        assert float(rows[1][1]) == pytest.approx(-0.5)
        assert len(rows) == 3

    def test_write_csv_creates_dirs(self, tmp_path):
        p = write_csv(tmp_path / "nested" / "out.csv", [Comparison("x", 0, 0, 0)])
        assert p.exists()
        assert "label" in p.read_text()

    def test_export_fig4_headers(self, tmp_path):
        from repro.experiments.export import export_fig4

        p = export_fig4(tmp_path, target_cycles=20_000_000)
        rows = list(csv.reader(p.read_text().splitlines()))
        assert len(rows) == 15  # 13 benchmarks + aggregate + header
        assert rows[0] == ["label", "vm_exits", "throughput", "exec_time"]

    def test_export_fig5_small_only(self, tmp_path):
        from repro.experiments.export import export_fig5

        paths = export_fig5(tmp_path, sizes=("small",), target_cycles=20_000_000)
        assert len(paths) == 1
        assert "small" in paths[0].name
        assert len(paths[0].read_text().splitlines()) == 15

    def test_export_fig6_writes_five_rows(self, tmp_path):
        p = export_fig6(tmp_path, total_bytes=1 << 20)
        rows = list(csv.reader(p.read_text().splitlines()))
        # 4 categories + 1 aggregate + header
        assert len(rows) == 6
        assert rows[0][1] == "vm_exits" and rows[0][2] == "io_throughput"
        labels = [r[0] for r in rows[1:]]
        assert set(labels[:4]) == {"seqr", "seqwr", "rndr", "rndwr"}


def busy_fraction(m, pcpus: int) -> float:
    """Busy time as a fraction of the run's CPU time, per pCPU."""
    return m.total_cycles / CpuClock(MachineSpec().freq_hz).ns_to_cycles(m.exec_time_ns * pcpus)


def run_counting_switches(mode: TickMode, **kwargs):
    """The run's metrics and its host scheduler's context-switch count."""
    seen = {}
    m = run_idle_overcommit(
        mode, inspect=lambda sim, machine, hv, vms: seen.update(n=hv.sched.switches), **kwargs
    )
    return m, seen["n"]


#: W2 at vms=2, vcpus_per_vm=4, pcpus=2 for SEC // 2, as measured before
#: the overcommit scenario moved onto the shared host assembly:
#: (total exits, busy ns over all pCPUs, host switches, (reason, tag) -> exits).
PINNED_W2 = {
    TickMode.PERIODIC: (1008, 42_020_558, 1000, {("hlt", "idle"): 1000,
                                                 ("msr_write", "timer_program"): 8}),
    TickMode.TICKLESS: (24, 7_076_604, 8, {("hlt", "idle"): 8,
                                           ("msr_write", "timer_program"): 16}),
    TickMode.PARATICK: (10, 6_696_300, 8, {("hlt", "idle"): 8,
                                           ("hypercall", "hypercall"): 2}),
}


class TestOvercommit:
    def test_periodic_idle_overcommit_is_expensive(self):
        """W2 regime: periodic ticks cost exits and busy time even for
        fully idle guests; tickless/paratick stay quiet (§3.1)."""
        out = compare_modes(vms=2, vcpus_per_vm=4, pcpus=2, duration_ns=SEC // 2)
        periodic = out[TickMode.PERIODIC]
        tickless = out[TickMode.TICKLESS]
        paratick = out[TickMode.PARATICK]
        # 8 idle vCPUs at 250 Hz -> thousands of exits/s under periodic.
        assert periodic.exits_per_second() > 1_500
        assert tickless.exits_per_second() < 200
        assert paratick.exits_per_second() <= tickless.exits_per_second() + 10
        assert busy_fraction(periodic, 2) > 5 * busy_fraction(tickless, 2)

    @pytest.mark.parametrize("mode", list(TickMode), ids=lambda m: m.value)
    def test_same_simulation_as_before_the_shared_assembly(self, mode):
        exits, busy_ns, switches, breakdown = PINNED_W2[mode]
        m, seen_switches = run_counting_switches(
            mode, vms=2, vcpus_per_vm=4, pcpus=2, duration_ns=SEC // 2
        )
        assert m.total_exits == exits
        assert sum(m.ledger.values()) == busy_ns
        assert {(k.reason.value, k.tag.value): n
                for k, n in m.exits.breakdown().items()} == breakdown
        assert m.exec_time_ns == SEC // 2
        assert seen_switches == switches

    def test_spec_tick_rate_is_honoured(self):
        """The overcommit kind applies every spec field: 4x the tick rate
        means about 4x the periodic exits."""
        spec = RunSpec(
            WorkloadSpec.make(OVERCOMMIT_IDLE, vms=2, vcpus_per_vm=4, pcpus=2),
            tick_mode=TickMode.PERIODIC, noise=False, horizon_ns=SEC // 2,
        )
        slow = run_spec(spec).total_exits
        fast = run_spec(spec.with_(tick_hz=1000)).total_exits
        assert fast == pytest.approx(4 * slow, rel=0.1)

    def test_single_vm_placement_fields_are_refused(self):
        spec = RunSpec(WorkloadSpec.make(OVERCOMMIT_IDLE, vms=2), vcpus=4)
        with pytest.raises(GridError, match="vcpus"):
            run_spec(spec)

    def test_scaling_with_vm_count(self):
        """W1 -> W2: four times the VMs, about four times the exits."""
        one = run_idle_overcommit(TickMode.PERIODIC, vms=1, vcpus_per_vm=4, pcpus=2, duration_ns=SEC // 2)
        four = run_idle_overcommit(TickMode.PERIODIC, vms=4, vcpus_per_vm=4, pcpus=2, duration_ns=SEC // 2)
        assert four.total_exits == pytest.approx(4 * one.total_exits, rel=0.15)

    def test_time_sharing_actually_happens(self):
        _, switches = run_counting_switches(
            TickMode.PERIODIC, vms=2, vcpus_per_vm=2, pcpus=1, duration_ns=SEC // 2
        )
        assert switches > 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_idle_overcommit(TickMode.PERIODIC, vms=0)


class TestNetWorkload:
    def test_net_service_runs_and_blocks(self):
        from repro.experiments.runner import run_workload
        from repro.host.exitreasons import ExitReason
        from repro.workloads.netserve import NetServiceWorkload

        wl = NetServiceWorkload(workers=2, requests=50)
        m = run_workload(wl, tick_mode=TickMode.TICKLESS, seed=1, noise=False)
        # Every RPC kicks the NIC once and blocks.
        assert m.exits.by_reason(ExitReason.IO_INSTRUCTION) == 100
        assert m.exits.by_reason(ExitReason.HLT) >= 80

    def test_faster_nic_faster_service(self):
        from repro.experiments.runner import run_workload
        from repro.hw.nic import DATACENTER_10G, DATACENTER_100G
        from repro.workloads.netserve import NetServiceWorkload

        def t(profile):
            wl = NetServiceWorkload(workers=1, requests=100, profile=profile)
            return run_workload(wl, seed=2, noise=False).exec_time_ns

        assert t(DATACENTER_100G) < t(DATACENTER_10G)
