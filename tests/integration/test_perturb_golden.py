"""Golden-trace conformance for the perturbation subsystem.

The committed fixture (tests/fixtures/golden_perturb.json) pins a
traced run for every perturbation kind — suspend, restore, hotplug,
drift — under all three tick modes: 12 cases, each with full RunMetrics
JSON and the SHA-256 of the structured event stream. Any behavioural
drift in the suspend/resume freeze, the restore clock jump, the hotplug
state machinery or the drift offset application diverges a hash here.

On top of the bit-identity replay, every case must also pass the full
perturbation-aware :class:`~repro.analysis.checkers.TickSanitizer` and
the reconcile battery — golden traces that violate the invariants they
exist to pin would be worthless.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import golden
from repro.analysis.checkers import TickSanitizer
from repro.analysis.reconcile import reconcile_run
from repro.config import MachineSpec, TickMode
from repro.experiments.runner import run_workload
from repro.obs.steal import StealTracker
from repro.sim.trace import TeeTracer

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "golden_perturb.json"

MODES = list(TickMode)
CASES = dict(golden.perturb_cases())


class TestPerturbFixture:
    def test_fixture_is_committed(self):
        assert FIXTURE.exists(), (
            "perturbation fixture missing; capture it with "
            "`PYTHONPATH=src python -m repro.analysis.golden --battery perturb --write`"
        )

    def test_battery_covers_every_kind_and_mode(self):
        data = golden.load(FIXTURE)
        want = {f"{kind}/{mode.value}" for kind in CASES for mode in MODES}
        assert set(data["cases"]) == want
        assert len(want) == 12

    def test_battery_matches_fixture(self):
        problems = golden.compare("perturb", FIXTURE)
        assert not problems, (
            "perturbation behaviour diverged:\n" + "\n".join(problems)
        )


class TestPerturbCasesAreSanitizerClean:
    @pytest.mark.parametrize("kind", sorted(CASES))
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_case_passes_sanitizer_and_reconcile(self, kind, mode):
        sanitizer = TickSanitizer(mode=mode)
        steal = StealTracker()
        internals = {}

        def inspect(sim, machine, hv, vm):
            internals.update(machine=machine, now=sim.now, hv=hv)

        metrics = run_workload(
            golden._perturb_workload(), tick_mode=mode, seed=5, cpuidle=True,
            perturbations=CASES[kind], tracer=TeeTracer(sanitizer, steal),
            inspect=inspect, label=f"golden-perturb-check/{kind}/{mode.value}",
        )
        problems = [str(v) for v in sanitizer.finish()]
        problems += reconcile_run(
            sanitizer, metrics,
            freq_hz=MachineSpec().freq_hz,
            machine=internals["machine"], now_ns=internals["now"],
            steal_tracker=steal, hv=internals["hv"],
        )
        assert not problems, "\n".join(problems)
