"""The golden battery registry and its one recursive fixture diff.

Every battery (``simcore``, ``arm``, ``perturb``, ``fleet``) is checked
by the same :func:`repro.analysis.golden.diff`, which must report a
diverged value, a pinned case the battery no longer runs *and* a fresh
case the fixture never pinned — the last one used to pass unchecked for
the x86/ARM batteries.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import golden

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestDiff:
    def test_identical_trees_are_clean(self):
        tree = {"schema": 1, "cases": {"a": {"metrics": {"x": 1}, "trace": "h"}}}
        assert golden.diff(tree, json.loads(json.dumps(tree)), "t") == []

    def test_reports_diverged_missing_and_unpinned(self):
        want = {"cases": {"a": {"x": 1, "y": [1, 2]}, "b": {"x": 2}}}
        got = {"cases": {"a": {"x": 1, "y": [1, 3]}, "c": {"x": 3}}}
        assert sorted(golden.diff(want, got, "t")) == [
            "t/cases/a/y: diverged ([1, 2] -> [1, 3])",
            "t/cases/b: missing from battery",
            "t/cases/c: not pinned in fixture",
        ]

    def test_a_leaf_turned_subtree_diverges(self):
        assert golden.diff({"a": 1}, {"a": {"b": 1}}, "t") == [
            "t/a: diverged (1 -> {'b': 1})"]


class TestRegistry:
    def test_four_batteries_with_committed_fixtures(self):
        assert sorted(golden.BATTERIES) == ["arm", "fleet", "perturb", "simcore"]
        for name, battery in golden.BATTERIES.items():
            assert (REPO_ROOT / battery.fixture).exists(), name
        assert golden.BATTERIES["arm"].arch == "arm"

    @pytest.fixture
    def toy(self, monkeypatch, tmp_path):
        """A registered two-case battery whose fixture pins one case."""
        def run(note):
            for case in ("a", "b"):
                note(case)
            return {"schema": golden.SCHEMA, "cases": {"a": 1, "b": 2}}

        fixture = tmp_path / "toy.json"
        fixture.write_text(json.dumps({"schema": golden.SCHEMA, "cases": {"a": 1}}))
        monkeypatch.setitem(golden.BATTERIES, "toy", golden.Battery(fixture, run))
        return fixture

    def test_compare_reports_an_unpinned_case(self, toy):
        notes = []
        assert golden.compare("toy", progress=notes.append) == [
            "toy/cases/b: not pinned in fixture"]
        assert notes == ["a", "b"]

    def test_capture_then_compare_is_clean(self, toy, tmp_path):
        path = golden.capture("toy", tmp_path / "fresh.json")
        assert golden.compare("toy", path) == []
        assert path.read_text().endswith("\n")

    def test_arch_mismatch_is_reported_without_running(self, monkeypatch, tmp_path):
        def run(note):
            raise AssertionError("a mismatched fixture must not run the battery")

        fixture = tmp_path / "arm.json"
        fixture.write_text(json.dumps({"schema": golden.SCHEMA, "arch": "arm"}))
        monkeypatch.setitem(golden.BATTERIES, "toy", golden.Battery(fixture, run))
        [problem] = golden.compare("toy")
        assert "pins arch 'arm'" in problem

    def test_cli_selects_the_battery_by_name(self, toy, capsys):
        assert golden.main(["--battery", "toy"]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED: toy/cases/b: not pinned in fixture" in out
        assert "toy battery: 1 divergences" in out
        with pytest.raises(SystemExit):
            golden.main(["--perturb"])
