"""``benchmarks/bench_suite.py`` refuses to rewrite every baseline at once.

One local run of the microbenches is too noisy to refresh all gated
baselines: ``--update`` must name the benches it refreshes.
"""

from __future__ import annotations

import pytest

from benchmarks import bench_suite


def _refused(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        bench_suite.main(argv)
    assert exc.value.code != 0
    return capsys.readouterr().err


def test_update_without_bench_lists_the_benches_and_writes_nothing(tmp_path, capsys):
    baseline = tmp_path / "BENCH.json"
    err = _refused(["--update", "--baseline", str(baseline)], capsys)
    assert "--update needs --bench" in err
    for name in bench_suite.BENCHES:
        assert name in err
    assert not baseline.exists()


def test_unknown_bench_is_refused(capsys):
    err = _refused(["--bench", "no_such_bench"], capsys)
    assert "unknown bench(es) no_such_bench" in err
