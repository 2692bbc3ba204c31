"""The self-validation battery must pass (it ships to users)."""

from __future__ import annotations

from repro.experiments import validate


def test_validation_battery_passes():
    results = validate.run_all()
    failing = [r for r in results if not r.passed]
    assert not failing, "; ".join(f"{r.name}: {r.detail}" for r in failing)
    assert len(results) == len(validate.ALL_CHECKS)


def test_checks_report_detail():
    for r in validate.run_all():
        assert r.detail  # human-readable evidence, not bare booleans


# Under ``python -O`` bare ``assert``s vanish; each check must still
# fail loudly. The child forces one real check to fail by corrupting
# its reference data, then runs the CLI entry point exactly as
# ``python -O -m repro validate`` does.
_OPTIMIZED_VALIDATE = """
import runpy, sys
assert False, "assert statements must be stripped in this child"
from repro.experiments import validate
if {corrupt!r}:
    validate.TABLE1_PAPER = dict(validate.TABLE1_PAPER, W1=None)
validate.ALL_CHECKS = tuple(c for c in validate.ALL_CHECKS if c[1] is validate.check_table1)
sys.argv = ["repro", "validate"]
runpy.run_module("repro", run_name="__main__")
"""


def _run_optimized(corrupt: bool):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(validate.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_VALIDATE.format(corrupt=corrupt)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_failing_check_fails_under_python_O():
    proc = _run_optimized(corrupt=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "[FAIL] Table 1 closed forms: W1:" in proc.stdout


def test_passing_check_passes_under_python_O():
    proc = _run_optimized(corrupt=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[ok ] Table 1 closed forms" in proc.stdout


def test_require_raises_check_failed():
    import pytest

    validate.require(True, "unused")
    with pytest.raises(validate.CheckFailed, match="boom"):
        validate.require(False, "boom")
