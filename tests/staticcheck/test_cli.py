"""End-to-end tests for ``repro staticcheck`` (the acceptance gate).

The tree carries no finding, so the CLI must exit 0 even under
``--fail-on warning``; planting a module with a hygiene defect into the
scanned scope must flip the exit code to non-zero.  The analyzer reads
source files only, so running it must not import the lint registry.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.staticcheck import CHECKER_NAMES, engine, run_staticcheck

SRC = Path(__file__).resolve().parents[2] / "src"


def _plant(tmp_path, monkeypatch, name, handler):
    """Add a module whose ``except`` clause is ``handler`` to the hygiene scope."""
    module = tmp_path / name
    module.write_text(
        "def swallow():\n"
        "    try:\n"
        "        return int('x')\n"
        f"    {handler}\n"
        "        return None\n"
    )
    original = engine.hygiene_paths
    monkeypatch.setattr(
        engine, "hygiene_paths", lambda pkg_root: [*original(pkg_root), module]
    )
    return module


@pytest.fixture()
def planted_error(tmp_path, monkeypatch):
    """A bare ``except:`` — an error-level exception-hygiene finding."""
    return _plant(tmp_path, monkeypatch, "planted_bare.py", "except:")


@pytest.fixture()
def planted_warning(tmp_path, monkeypatch):
    """A swallowed ``except Exception`` — a warning-level finding."""
    return _plant(tmp_path, monkeypatch, "planted_hygiene.py", "except Exception:")


class TestCliExitCodes:
    def test_tree_exits_zero_under_fail_on_warning(self, capsys):
        status = main(["staticcheck", "--fail-on", "warning"])
        captured = capsys.readouterr()
        assert status == 0
        assert "0 finding(s)" in captured.out

    def test_planted_error_exits_nonzero(self, capsys, planted_error):
        status = main(["staticcheck", "--fail-on", "error"])
        captured = capsys.readouterr()
        assert status == 1
        assert planted_error.name in captured.out

    def test_fail_on_warning_is_stricter(self, capsys, planted_warning):
        assert main(["staticcheck", "--checker", "exception-hygiene"]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "staticcheck",
                    "--checker",
                    "exception-hygiene",
                    "--fail-on",
                    "warning",
                ]
            )
            == 1
        )
        assert planted_warning.name in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["--baseline", "findings.json"], ["--write-baseline"]]
    )
    def test_baseline_options_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["staticcheck", *argv])
        assert exc.value.code == 2
        capsys.readouterr()


class TestJsonReport:
    def test_json_covers_all_checkers(self, capsys):
        status = main(["staticcheck", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert tuple(payload["checkers"]) == CHECKER_NAMES
        assert payload["counts"] == {"error": 0, "warning": 0, "info": 0}
        assert payload["findings"] == []

    def test_json_finding_fields(self, capsys, planted_warning):
        main(["staticcheck", "--json", "--checker", "exception-hygiene"])
        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload["findings"]
        assert set(finding) == {
            "checker",
            "severity",
            "path",
            "line",
            "anchor",
            "message",
        }
        assert finding["severity"] == "warning"

    def test_unknown_checker_is_rejected(self):
        with pytest.raises(ValueError):
            run_staticcheck(checkers=("no-such-checker",))


def test_run_staticcheck_does_not_import_the_linter():
    script = textwrap.dedent(
        """
        import sys
        from repro.staticcheck import run_staticcheck
        report = run_staticcheck()
        loaded = sorted(m for m in sys.modules if m.startswith("repro.lint"))
        print(len(report.findings), loaded)
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "0 []"
