"""Self-tests for the whole-program concurrency/resource checkers.

``fixtures/concurrency_bad.py`` plants exactly one violation per
checker; ``fixtures/concurrency_clean.py`` is the repaired twin.  The
call-graph tests pin the reachability semantics the fork-cow checker
rests on.  That the real ``src/repro`` is clean (every worker-side
write goes into a ``ProcessMemo``) is asserted for every checker at
once by ``test_cli.py``.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.staticcheck import (
    CHECKER_NAMES,
    SourceIndex,
    build_call_graph,
    check_async_blocking,
    check_fork_cow,
    check_pickle_boundary,
    check_resource_lifetime,
    concurrency_paths,
    module_name_for,
)

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "concurrency_bad.py"
CLEAN = FIXTURES / "concurrency_clean.py"
NEW_CHECKERS = (
    "fork-cow",
    "async-blocking",
    "pickle-boundary",
    "resource-lifetime",
)


@pytest.fixture()
def index():
    return SourceIndex(repo_root=FIXTURES)


class TestCallGraph:
    def test_module_name_mapping(self):
        assert (
            module_name_for(BAD, FIXTURES) == "fixtures.concurrency_bad"
        )
        assert (
            module_name_for(FIXTURES / "__init__.py", FIXTURES) == "fixtures"
        )

    def test_submit_argument_becomes_worker_root(self, index):
        graph = build_call_graph([BAD], index, FIXTURES)
        assert (
            "fixtures.concurrency_bad._worker_main" in graph.discovered_roots()
        )
        assert (
            "fixtures.concurrency_bad._worker_main" in graph.worker_reachable()
        )

    def test_non_executor_submit_is_not_a_root(self, index, tmp_path):
        module = tmp_path / "monitorish.py"
        module.write_text(
            "def _entry(der):\n"
            "    return der\n"
            "def feed(monitor, der):\n"
            "    return monitor.submit(_entry, der)\n",
            encoding="utf-8",
        )
        graph = build_call_graph(
            [module], SourceIndex(repo_root=tmp_path), tmp_path
        )
        assert graph.discovered_roots() == []

    def test_module_scope_dispatch_tables_are_reachable(self, index, tmp_path):
        # The SCOPES idiom: functions referenced only from a
        # module-level dict must activate once the module is reached.
        module = tmp_path / "tableish.py"
        module.write_text(
            "def _kernel(x):\n"
            "    return x\n"
            "TABLE = {'k': _kernel}\n"
            "def _worker_entry(key, x):\n"
            "    return TABLE[key](x)\n"
            "def launch(executor, x):\n"
            "    return executor.submit(_worker_entry, 'k', x)\n",
            encoding="utf-8",
        )
        graph = build_call_graph(
            [module], SourceIndex(repo_root=tmp_path), tmp_path
        )
        stem = tmp_path.name
        assert f"{stem}.tableish._kernel" in graph.worker_reachable()


class TestPlantedViolations:
    def test_fork_cow_fires_once(self, index):
        findings = check_fork_cow([BAD], index, pkg_root=FIXTURES)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.checker == "fork-cow"
        assert finding.severity == "error"
        assert finding.anchor == "_worker_main"
        assert "_MEMO" in finding.message

    def test_async_blocking_fires_once(self, index):
        findings = check_async_blocking([BAD], index)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.checker == "async-blocking"
        assert finding.severity == "error"
        assert finding.anchor == "collect"
        assert "time.sleep" in finding.message

    def test_pickle_boundary_fires_once(self, index):
        findings = check_pickle_boundary([BAD], index)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.checker == "pickle-boundary"
        assert finding.severity == "error"
        assert finding.anchor == "dispatch_bad"
        assert "lambda" in finding.message

    def test_resource_lifetime_fires_once(self, index):
        findings = check_resource_lifetime([BAD], index)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.checker == "resource-lifetime"
        assert finding.severity == "error"
        assert finding.anchor == "leak_mapping"
        assert "finally" in finding.message


class TestCleanFixture:
    def test_every_concurrency_checker_is_silent(self, index):
        assert check_fork_cow([CLEAN], index, pkg_root=FIXTURES) == []
        assert check_async_blocking([CLEAN], index) == []
        assert check_pickle_boundary([CLEAN], index) == []
        assert check_resource_lifetime([CLEAN], index) == []


def _fork_cow(tmp_path, sources: dict) -> list:
    """fork-cow over a throwaway package of ``{file name: source}``."""
    for name, source in sources.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    return check_fork_cow(
        sorted(tmp_path.glob("*.py")),
        SourceIndex(repo_root=tmp_path),
        pkg_root=tmp_path,
    )


_LAUNCH = (
    "def launch(executor, x):\n"
    "    return executor.submit(_worker_entry, x)\n"
)


class TestMemoTypeRule:
    def test_dict_write_is_reported_once(self, tmp_path):
        findings = _fork_cow(
            tmp_path,
            {
                "plain.py": "_MEMO = {}\n"
                "def _worker_entry(x):\n"
                "    _MEMO[x] = x\n"
                "    return _MEMO[x]\n" + _LAUNCH
            },
        )
        assert len(findings) == 1
        (finding,) = findings
        assert finding.severity == "error"
        assert finding.anchor == "_worker_entry"
        assert "'_MEMO'" in finding.message

    def test_module_level_memo_passes(self, tmp_path):
        source = (
            "from repro.memo import ProcessMemo\n"
            "_MEMO = ProcessMemo(64)\n"
            "def _worker_entry(x):\n"
            "    memo = _MEMO\n"
            "    memo[x] = x\n"
            "    _MEMO.pop(x)\n"
            "    return x\n" + _LAUNCH
        )
        assert _fork_cow(tmp_path, {"memoized.py": source}) == []

    def test_imported_memo_passes(self, tmp_path):
        stem = tmp_path.name
        findings = _fork_cow(
            tmp_path,
            {
                "memos.py": "from repro import memo\n"
                "SHARED = memo.ProcessMemo(64)\n",
                "user.py": f"from {stem}.memos import SHARED\n"
                "def _worker_entry(x):\n"
                "    SHARED[x] = x\n"
                "    return x\n" + _LAUNCH,
            },
        )
        assert findings == []

    def test_init_assigned_memo_passes(self, tmp_path):
        source = (
            "from repro.memo import ProcessMemo\n"
            "class Plan:\n"
            "    def __init__(self):\n"
            "        self.rows = ProcessMemo(64)\n"
            "        self.names = {}\n"
            "    def lookup(self, x):\n"
            "        self.rows[x] = x\n"
            "        self.names[x] = x\n"
            "        return x\n"
            "PLAN = Plan()\n"
            "def _worker_entry(x):\n"
            "    return PLAN.lookup(x)\n" + _LAUNCH
        )
        findings = _fork_cow(tmp_path, {"plan.py": source})
        assert len(findings) == 1
        (finding,) = findings
        assert finding.anchor == "Plan.lookup"
        assert finding.line == 8

    def test_function_local_memo_does_not_exempt_the_module_name(self, tmp_path):
        source = (
            "from repro.memo import ProcessMemo\n"
            "_MEMO = {}\n"
            "def reset():\n"
            "    _MEMO = ProcessMemo(64)\n"
            "    return _MEMO\n"
            "def _worker_entry(x):\n"
            "    _MEMO[x] = x\n"
            "    return x\n" + _LAUNCH
        )
        findings = _fork_cow(tmp_path, {"shadow.py": source})
        assert len(findings) == 1
        (finding,) = findings
        assert finding.anchor == "_worker_entry"
        assert "'_MEMO'" in finding.message

    def test_rebinding_or_configuring_a_memo_is_reported(self, tmp_path):
        source = (
            "from repro.memo import ProcessMemo\n"
            "_MEMO = ProcessMemo(64)\n"
            "def _worker_entry(x):\n"
            "    global _MEMO\n"
            "    _MEMO.cap = x\n"
            "    _MEMO = ProcessMemo(x)\n"
            "    return x\n" + _LAUNCH
        )
        findings = _fork_cow(tmp_path, {"rebind.py": source})
        assert sorted(f.line for f in findings) == [5, 6]


class TestLineDrift:
    def test_findings_follow_line_drift(self, index, tmp_path):
        drifted = tmp_path / "concurrency_bad.py"
        drifted.write_text(
            "# pad\n# pad\n# pad\n" + BAD.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        drifted_index = SourceIndex(repo_root=tmp_path)
        for checker in (
            lambda paths, idx: check_fork_cow(
                paths, idx, pkg_root=Path(paths[0]).parent
            ),
            check_async_blocking,
            check_pickle_boundary,
            check_resource_lifetime,
        ):
            (original,) = checker([BAD], index)
            (moved,) = checker([drifted], drifted_index)
            assert moved == dataclasses.replace(original, line=original.line + 3)


class TestLiveTree:
    def test_new_checkers_are_registered(self):
        for name in NEW_CHECKERS:
            assert name in CHECKER_NAMES

    def test_concurrency_scope_covers_whole_package(self):
        paths = concurrency_paths()
        names = {p.name for p in paths}
        assert {"parallel.py", "server.py", "batcher.py"} <= names
