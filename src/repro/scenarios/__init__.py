"""Scenario-matrix DSL: declarative experiment grids + perturbations.

See :mod:`repro.scenarios.matrix` for the file format,
:mod:`repro.scenarios.fuzzbridge` for the fuzz-seed bridge, and
:mod:`repro.scenarios.runcheck` for sanitized conformance checking and
grid execution. CLI: ``python -m repro matrix {expand,check,run} FILE``.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    fuzzbridge="fuzz_cells fuzz_matrix_cells",
    matrix="AXES Cell Matrix load_matrix parse_matrix",
    runcheck="CellCheck check_cell check_cells identity_problems run_cells "
             "run_cells_resumable",
)

__all__ = [
    "AXES",
    "Cell",
    "CellCheck",
    "Matrix",
    "check_cell",
    "check_cells",
    "fuzz_cells",
    "fuzz_matrix_cells",
    "identity_problems",
    "load_matrix",
    "parse_matrix",
    "run_cells",
    "run_cells_resumable",
]
