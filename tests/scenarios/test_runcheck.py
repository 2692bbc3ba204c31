"""Execution-path tests for matrix cells and the fuzz bridge.

A small matrix must check sanitizer-clean, run byte-identically across
serial / pooled / cached engine paths, and the fuzz bridge must compile
seeds into cells whose behaviour matches the fuzz harness exactly.
"""

from __future__ import annotations

import pytest

from repro.analysis import fuzz
from repro.analysis.golden import metrics_digest
from repro.scenarios import (
    check_cells,
    fuzz_cells,
    fuzz_matrix_cells,
    identity_problems,
    parse_matrix,
)

SMALL = """
[matrix]
name = "small"
seeds = [0]
horizon_ms = 20

[axes]
workload = ["ping"]
mode = ["periodic", "tickless", "paratick"]
perturb = ["none", "shake"]

[workloads.ping]
kind = "micro.pingpong"
params = { rounds = 20, work_cycles = 20000, same_vcpu = false }

[perturbs.shake]
kind = "drift"
at_ms = 1
count = 2
period_ms = 2
step_us = 50
"""


@pytest.fixture(scope="module")
def small_cells():
    return parse_matrix(SMALL, "toml").expand()


class TestCheckCells:
    def test_small_matrix_is_sanitizer_clean(self, small_cells):
        checks = check_cells(small_cells)
        assert len(checks) == 6
        for check in checks:
            assert check.ok, f"{check.cell.id}: {check.problems}"
            assert check.metrics is not None
            assert check.events > 0

    def test_check_reports_progress(self, small_cells):
        seen = []
        check_cells(small_cells[:2], progress=lambda c: seen.append(c.cell.id))
        assert seen == [c.id for c in small_cells[:2]]


class TestIdentity:
    def test_serial_pooled_cached_byte_identical(self, small_cells, tmp_path):
        problems = identity_problems(
            small_cells, jobs=2, cache_dir=str(tmp_path / "cache"))
        assert problems == []


class TestFuzzBridge:
    def test_cells_share_the_matrix_schema(self):
        cells = fuzz_cells(3, perturb=True)
        assert len(cells) == 6  # 3 modes x 2 placements
        assert len({c.id for c in cells}) == 6
        for cell in cells:
            assert cell.spec.label == cell.id
            assert dict(cell.coords)["seed"] == "3"
            assert cell.spec.perturbations  # seed 3 expands to >= 1 event

    def test_bridge_matches_fuzz_harness_exactly(self):
        # The compiled spec must reproduce the fuzz harness run bit for
        # bit — same scenario, same placement, same label, same metrics.
        from repro.config import TickMode

        scenario = fuzz.scenario_for_seed(3)
        direct, _, probs = fuzz.run_scenario(scenario, TickMode.TICKLESS)
        assert not probs
        cell = next(c for c in fuzz_cells(3)
                    if c.coord("mode") == "tickless" and c.coord("placement") == "solo")
        bridged = check_cells([cell])[0]
        assert bridged.ok
        assert metrics_digest(bridged.metrics) == metrics_digest(direct)

    def test_perturbed_and_plain_cells_hash_apart(self):
        from repro.experiments.parallel import spec_key

        plain = {c.coord("mode"): c for c in fuzz_cells(3)}
        shaken = {c.coord("mode"): c for c in fuzz_cells(3, perturb=True)}
        for mode in plain:
            assert spec_key(plain[mode].spec) != spec_key(shaken[mode].spec)

    def test_seed_range_expands_flat(self):
        cells = fuzz_matrix_cells(range(3), placements=(fuzz.SOLO,))
        assert len(cells) == 9
        assert len({c.id for c in cells}) == 9

    def test_perturbed_fuzz_cells_sanitize_clean(self):
        cells = [c for c in fuzz_cells(7, perturb=True, placements=(fuzz.SOLO,))]
        for check in check_cells(cells):
            assert check.ok, f"{check.cell.id}: {check.problems}"


class TestFleetCells:
    def test_fleet_cell_keeps_its_arch(self):
        """check_cell runs a fleet shard through the same spec mapping as
        the grid: an ARM shard stays ARM (no x86 MSR-write exits)."""
        from repro.config import TickMode
        from repro.experiments.parallel import WorkloadSpec, run_spec
        from repro.fleet.spec import host_run_spec
        from repro.host.exitreasons import ExitReason
        from repro.scenarios.matrix import Cell
        from repro.sim.timebase import MSEC

        spec = host_run_spec(
            guest_workload=WorkloadSpec.make(
                "micro.pingpong", rounds=5, work_cycles=10_000, same_vcpu=False
            ),
            guests=2,
            consolidation=2,
            tick_mode=TickMode.TICKLESS,
            horizon_ns=400 * MSEC,
            arch="arm",
            label="fleet-arm",
        )
        check = check_cells([Cell("fleet-arm", (), spec)])[0]
        assert check.ok, check.problems
        assert check.metrics == run_spec(spec)
        assert check.metrics.exits.by_reason(ExitReason.MSR_WRITE) == 0
        assert check.metrics.exits.by_reason(ExitReason.SYSREG_TRAP) > 0
