"""Bridge the differential fuzzer's seed expansion into matrix cells.

The fuzz harness (:mod:`repro.analysis.fuzz`) expands a seed into a
scenario plus (optionally) a perturbation schedule. This module compiles
that expansion into the same :class:`~repro.scenarios.matrix.Cell`
representation the matrix DSL produces, so random fuzz scenarios and
hand-written matrices share one schema, one cell-ID convention, one
cache key and one check/run path (:mod:`repro.scenarios.runcheck`).
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.fuzz import (
    OVERCOMMIT,
    SOLO,
    FuzzScenario,
    perturbations_for_seed,
    scenario_for_seed,
    scenario_spec,
)
from repro.config import TickMode
from repro.scenarios.matrix import Cell


def fuzz_cells(
    seed: int,
    *,
    placements: tuple[str, ...] = (SOLO, OVERCOMMIT),
    perturb: bool = False,
) -> list[Cell]:
    """Expand one fuzz seed into matrix cells (mode x placement).

    Cell IDs follow the fuzz run labels (``fuzz<seed>/<kind>/<mode>/
    <placement>[/perturbed]``), and since the ID becomes the spec's
    ``label`` — part of the content-addressed cache key — a fuzz cell
    and a matrix cell can never collide in the result cache.
    """
    scenario = scenario_for_seed(seed)
    perturbations = (
        perturbations_for_seed(seed, scenario.horizon_ns) if perturb else ()
    )
    cells: list[Cell] = []
    for placement in placements:
        for mode in TickMode:
            cid = f"fuzz{seed}/{scenario.kind}/{mode.value}/{placement}"
            perturb_coord = "none"
            if perturb:
                cid += "/perturbed"
                perturb_coord = "fuzzed"
            spec = scenario_spec(scenario, mode, placement=placement,
                                 perturbations=perturbations, label=cid)
            cells.append(Cell(
                id=cid,
                coords=(
                    ("workload", scenario.kind),
                    ("mode", mode.value),
                    ("placement", placement),
                    ("stress", _stress_name(scenario)),
                    ("host_timer", f"hz{scenario.tick_hz}"),
                    ("perturb", perturb_coord),
                    ("seed", str(seed)),
                ),
                spec=spec,
            ))
    return cells


def fuzz_matrix_cells(
    seeds: Iterable[int],
    *,
    placements: tuple[str, ...] = (SOLO, OVERCOMMIT),
    perturb: bool = False,
) -> list[Cell]:
    """Expand a seed range into one flat, deterministic cell list."""
    out: list[Cell] = []
    for seed in seeds:
        out.extend(fuzz_cells(int(seed), placements=placements, perturb=perturb))
    return out


def _stress_name(scenario: FuzzScenario) -> str:
    if scenario.noise and scenario.cpuidle:
        return "noise+cpuidle"
    if scenario.noise:
        return "noise"
    if scenario.cpuidle:
        return "cpuidle"
    return "none"
