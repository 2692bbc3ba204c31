"""Trace-driven analysis: the tick sanitizer and its fuzz harness.

* :mod:`repro.analysis.events` — the structured trace-event schema;
* :mod:`repro.analysis.checkers` — streaming invariant checkers and the
  :class:`~repro.analysis.checkers.TickSanitizer` tracer;
* :mod:`repro.analysis.reconcile` — post-run counter/ledger cross-checks;
* :mod:`repro.analysis.fuzz` — seed-driven differential fuzzing across
  the three tick modes.

See ``docs/sanitizer.md`` for the checker catalog and workflows.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    checkers="Checker TickSanitizer Violation default_checkers",
    fuzz="FuzzReport fuzz_many fuzz_seed scenario_for_seed",
    reconcile="reconcile_run",
)

__all__ = [
    "Checker",
    "TickSanitizer",
    "Violation",
    "default_checkers",
    "FuzzReport",
    "fuzz_many",
    "fuzz_seed",
    "scenario_for_seed",
    "reconcile_run",
]
