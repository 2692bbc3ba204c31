"""The grid's harness path: the lazily resolved workload registry and
one content address per cell.

Built-in workload kinds resolve on their first lookup instead of at
import, which must not change what a lookup returns: a kind registered
earlier wins, an unknown kind's error lists every built-in kind, and a
forked pool worker sees what the parent registered.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.config import TickMode
from repro.experiments import parallel
from repro.experiments.parallel import (
    GridError,
    ResultCache,
    RunSpec,
    WorkloadSpec,
    register_workload,
    run_grid,
)
from repro.workloads.micro import IdleWorkload, PingPongWorkload

DEFAULT_KINDS = ("parsec", "fio", "micro.idle", "micro.syncstorm", "micro.idleperiod",
                 "micro.pingpong", "netserve")


@pytest.fixture
def fresh_registry(monkeypatch):
    """A registry in the state of a process that has built nothing yet."""
    registry = parallel._WorkloadRegistry()
    monkeypatch.setattr(parallel, "WORKLOAD_FACTORIES", registry)
    return registry


def _ping(**params) -> WorkloadSpec:
    return WorkloadSpec.make("micro.pingpong", rounds=5, work_cycles=10_000, **params)


class TestLazyRegistry:
    def test_nothing_resolved_before_first_lookup(self, fresh_registry):
        assert dict(fresh_registry) == {}
        assert isinstance(_ping().build(), PingPongWorkload)
        assert list(fresh_registry) == ["micro.pingpong"]

    def test_registration_before_first_build_wins(self, fresh_registry):
        def mine(**kw):
            return IdleWorkload(vcpus=1)

        register_workload("micro.pingpong", mine)
        assert isinstance(_ping().build(), IdleWorkload)
        # Resolving the other built-ins (as the pool does before forking)
        # keeps the registered factory.
        parallel._register_defaults()
        assert fresh_registry["micro.pingpong"] is mine
        assert sorted(fresh_registry) == sorted(DEFAULT_KINDS)

    def test_unknown_kind_lists_every_default(self, fresh_registry):
        with pytest.raises(GridError) as err:
            WorkloadSpec.make("no.such.kind").build()
        for kind in DEFAULT_KINDS:
            assert repr(kind) in str(err.value)

    def test_direct_lookup_resolves_a_builtin(self, fresh_registry):
        from repro.workloads.fio import job

        assert parallel.WORKLOAD_FACTORIES["fio"] is job
        with pytest.raises(KeyError):
            parallel.WORKLOAD_FACTORIES["no.such.kind"]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers inherit the registry only when forked")
    def test_forked_worker_finds_kind_registered_in_parent(self, fresh_registry):
        register_workload("test.registry.idle", lambda **kw: IdleWorkload(vcpus=1))
        spec = RunSpec(WorkloadSpec.make("test.registry.idle"), tick_mode=TickMode.TICKLESS,
                       noise=False, horizon_ns=2_000_000)
        grid = run_grid([spec, spec.with_(seed=1)], jobs=2, use_cache=False, retries=0)
        assert grid.failed_specs == []
        assert grid.executed == 2


def test_one_spec_key_per_cell(tmp_path, monkeypatch):
    specs = [RunSpec(_ping(), tick_mode=mode, noise=False)
             for mode in (TickMode.TICKLESS, TickMode.PARATICK)]
    cold = run_grid(specs, cache_dir=tmp_path)
    calls = []
    real = parallel.spec_key
    monkeypatch.setattr(parallel, "spec_key", lambda spec: calls.append(spec) or real(spec))
    warm = run_grid(specs, cache_dir=tmp_path)
    assert warm.cache_hits == len(specs)
    assert sorted(calls, key=specs.index) == specs
    assert warm.ordered() == cold.ordered()


def test_cache_accepts_a_precomputed_key(tmp_path):
    spec = RunSpec(_ping(), noise=False)
    grid = run_grid([spec], cache_dir=tmp_path)
    cache = ResultCache(tmp_path)
    key = parallel.spec_key(spec)
    assert cache.load(spec, key) == cache.load(spec) == grid[spec]
