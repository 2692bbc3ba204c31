"""Import boundaries of the harness.

A warm-cache CLI run (expand, key, probe, verify, decode, summarise)
executes no model code, so it must not import any: each package
``__init__`` resolves its exports on first access, and harness modules
import model modules only inside the functions that run them. Each
check runs in a fresh interpreter, since this process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Model, sanitizer and fault-injection modules no harness path may load.
FORBIDDEN = (
    "repro.sim.engine",
    "repro.host.kvm",
    "repro.guest.kernel",
    "repro.experiments.assembly",
    "repro.analysis.checkers",
    "repro.resilience.chaos",
    "numpy",
)

#: Upper bound on ``repro`` modules a warm ``matrix run`` loads.
WARM_RUN_MAX_MODULES = 40

#: Prints the loaded module names as JSON after running the prelude.
_LIST_MODULES = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"

SMALL_MATRIX = """\
[matrix]
name = "boundary"
seeds = [0]
horizon_ms = 10

[axes]
workload = ["ping"]
mode = ["tickless", "paratick"]
placement = ["solo"]

[workloads.ping]
kind = "micro.pingpong"
params = { rounds = 5, work_cycles = 20000, same_vcpu = false }
"""


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)


def _modules_after(prelude: str, *args: str) -> list[str]:
    out = _fresh_python("-c", prelude + _LIST_MODULES, *args).stdout
    return json.loads(out.splitlines()[-1])


def _repro_modules(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "repro" or m.startswith("repro.")]


@pytest.mark.parametrize("prelude", ["import repro", "import repro.cli"])
def test_import_loads_no_model_code(prelude):
    loaded = _modules_after(prelude)
    assert [m for m in FORBIDDEN if m in loaded] == []


def test_warm_matrix_run_loads_only_the_harness(tmp_path):
    matrix = tmp_path / "boundary.toml"
    matrix.write_text(SMALL_MATRIX)
    argv = ["--cache-dir", str(tmp_path / "cache"), "--quiet-progress",
            "matrix", "run", str(matrix)]
    cold = _fresh_python("-m", "repro", *argv)
    assert "2 cell(s), 0 cached, 2 executed" in cold.stdout

    # `python -m repro ...`, then list what it loaded.
    warm_run = textwrap.dedent("""\
        import contextlib, io, runpy, sys
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                rc = exc.code
        assert rc == 0 and "2 cell(s), 2 cached, 0 executed" in out.getvalue(), out.getvalue()
    """)
    loaded = _modules_after(warm_run, *argv)
    assert [m for m in FORBIDDEN if m in loaded] == []
    assert len(_repro_modules(loaded)) <= WARM_RUN_MAX_MODULES, _repro_modules(loaded)


def test_pool_context_preloads_the_run_path():
    """Forked workers inherit the parent's imports; a worker that has to
    import the model itself pays for it once per process."""
    prelude = textwrap.dedent("""\
        from repro.experiments import parallel
        ctx = parallel._pool_context()
        if ctx.get_start_method() != "fork":
            raise SystemExit(0)
        print(json.dumps(sorted(dict.keys(parallel.WORKLOAD_FACTORIES))))
    """)
    out = _fresh_python("-c", "import json\n" + prelude + _LIST_MODULES).stdout.splitlines()
    if len(out) < 2:
        pytest.skip("no fork start method on this platform")
    kinds, loaded = json.loads(out[-2]), json.loads(out[-1])
    from repro.experiments.parallel import _DEFAULT_KINDS

    assert sorted(_DEFAULT_KINDS) == kinds
    wanted = {"repro.experiments.runner", "repro.experiments.assembly",
              "repro.fleet.hostsim", "numpy"}
    wanted |= {module for module, _ in _DEFAULT_KINDS.values()}
    assert sorted(wanted - set(loaded)) == []


LAZY_PACKAGES = ("sim", "hw", "host", "metrics", "guest", "workloads", "analysis",
                 "resilience", "fleet", "experiments", "scenarios", "core")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_resolves(name):
    import importlib

    pkg = importlib.import_module(f"repro.{name}")
    missing = [n for n in pkg.__all__ if getattr(pkg, n, None) is None]
    assert missing == []
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name  # noqa: B018
