"""End-to-end tests for ``repro staticcheck`` (the acceptance gate).

The committed ``staticcheck_baseline.json`` accepts the reviewed
findings on the repaired tree, so the CLI must exit 0 there; planting a
mis-declared lint into the live registry must flip the exit code to
non-zero without touching the baseline.
"""

import datetime as dt
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.framework import (
    FunctionLint,
    LintMetadata,
    NoncomplianceType,
    Severity,
    Source,
)
from repro.staticcheck import CHECKER_NAMES, engine, load_baseline, run_staticcheck

from ..registry_helpers import registered

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "staticcheck_baseline.json"


@pytest.fixture()
def planted_registry():
    """Temporarily register a lint whose ``e_`` name has WARN severity."""
    lint = FunctionLint(
        LintMetadata(
            name="e_fixture_misdeclared_severity",
            description="fixture",
            citation="fixture citation",
            source=Source.RFC5280,
            severity=Severity.WARN,
            nc_type=NoncomplianceType.INVALID_STRUCTURE,
            effective_date=dt.datetime(2019, 1, 1),
        ),
        lambda cert: True,
        lambda cert: (True, ""),
    )
    with registered(lint):
        yield lint


@pytest.fixture()
def planted_warning(tmp_path, monkeypatch):
    """Add a module that swallows a broad ``except`` to the hygiene scope.

    The tree itself carries no warning-level finding, so this plants one
    for the tests that need a warning to gate on.
    """
    module = tmp_path / "planted_hygiene.py"
    module.write_text(
        "def swallow():\n"
        "    try:\n"
        "        return int('x')\n"
        "    except Exception:\n"
        "        return None\n"
    )
    original = engine.hygiene_paths
    monkeypatch.setattr(
        engine, "hygiene_paths", lambda pkg_root: [*original(pkg_root), module]
    )
    return module


class TestCliExitCodes:
    def test_repaired_tree_exits_zero_against_baseline(self, capsys):
        status = main(["staticcheck", "--baseline", str(BASELINE)])
        captured = capsys.readouterr()
        assert status == 0
        assert "0 new" in captured.out

    def test_planted_misdeclaration_exits_nonzero(self, capsys, planted_registry):
        status = main(
            ["staticcheck", "--baseline", str(BASELINE), "--fail-on", "error"]
        )
        captured = capsys.readouterr()
        assert status == 1
        assert planted_registry.metadata.name in captured.out

    def test_fail_on_warning_is_stricter(self, tmp_path, capsys, planted_warning):
        # An empty baseline exposes every finding as new.
        empty = tmp_path / "empty_baseline.json"
        assert main(["staticcheck", "--baseline", str(empty)]) == 1
        capsys.readouterr()
        assert (
            main(
                [
                    "staticcheck",
                    "--baseline",
                    str(empty),
                    "--checker",
                    "exception-hygiene",
                ]
            )
            == 0  # hygiene alone reports only the planted warning
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "staticcheck",
                    "--baseline",
                    str(empty),
                    "--checker",
                    "exception-hygiene",
                    "--fail-on",
                    "warning",
                ]
            )
            == 1
        )
        capsys.readouterr()


class TestJsonReport:
    def test_json_covers_all_five_checkers(self, capsys):
        status = main(["staticcheck", "--json", "--baseline", str(BASELINE)])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert tuple(payload["checkers"]) == CHECKER_NAMES
        assert payload["counts"]["new"] == 0
        assert payload["counts"]["baselined"] == len(payload["findings"])
        for finding in payload["findings"]:
            assert set(finding) >= {
                "checker",
                "severity",
                "path",
                "line",
                "anchor",
                "message",
                "fingerprint",
            }

    def test_unknown_checker_is_rejected(self):
        with pytest.raises(ValueError):
            run_staticcheck(checkers=("no-such-checker",))


class TestBaselineFile:
    def test_committed_baseline_matches_current_findings(self):
        report = run_staticcheck(baseline_path=BASELINE)
        accepted = load_baseline(BASELINE)
        assert {f.fingerprint for f in report.findings} == set(accepted)
        assert report.new == []

    def test_write_baseline_round_trips(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        assert (
            main(
                ["staticcheck", "--baseline", str(path), "--write-baseline"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["staticcheck", "--baseline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out
