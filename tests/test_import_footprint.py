"""Which ``repro`` modules each entry point loads on a cold start.

A package ``__init__`` holds its docstring and the few imports listed
in :data:`PACKAGE_IMPORTS`, nothing else; every caller imports a name
from the module that defines it.  A cold start therefore loads only
what it runs.  These tests pin that per entry point: ``repro lint``,
``repro monitor --resume`` and a spawn-started pool worker each load
exactly the ``repro`` modules of a committed allow-list.  A new eager
import fails here and the message names the module; a module an entry
point stops loading must leave its list too, so the lists stay exact.
"""

import ast
import datetime as dt
import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.pem import encode_pem

SRC = pathlib.Path(repro.__file__).parents[1]

#: ``(submodule, name)`` pairs each package ``__init__`` may import;
#: a package absent here imports nothing.  ``repro.lint`` imports its
#: five rule families so that importing it fills the registry.  The
#: rest are the names ``perfbench/workloads.py`` imports through the
#: package.
PACKAGE_IMPORTS = {
    "lint": {
        ("", "character"),
        ("", "normalization"),
        ("", "format"),
        ("", "encoding"),
        ("", "structure"),
        ("serialization", "summary_to_json"),
    },
    "engine": {
        ("executors", "PoolExecutor"),
        ("pipeline", "Engine"),
        ("pipeline", "run_corpus"),
        ("stats", "EngineStats"),
    },
    "ct": {
        ("corpus", "CorpusGenerator"),
        ("tail", "MonitorConfig"),
        ("tail", "TailLog"),
        ("tail", "TailMonitor"),
        ("tail", "drive"),
    },
}

#: A spawn-started ``LintPool`` worker, after its initializer ran: what
#: decoding and linting a certificate needs, and every entry point loads.
WORKER_MODULES = {
    "repro",
    "repro.asn1",
    "repro.asn1.der",
    "repro.asn1.errors",
    "repro.asn1.oid",
    "repro.asn1.strings",
    "repro.asn1.tags",
    "repro.lint",
    "repro.lint.character",
    "repro.lint.compiled",
    "repro.lint.encoding",
    "repro.lint.format",
    "repro.lint.framework",
    "repro.lint.helpers",
    "repro.lint.normalization",
    "repro.lint.parallel",
    "repro.lint.runner",
    "repro.lint.serialization",
    "repro.lint.structure",
    "repro.memo",
    "repro.uni",
    "repro.uni.confusables",
    "repro.uni.dns",
    "repro.uni.errors",
    "repro.uni.idna",
    "repro.uni.intervals",
    "repro.uni.normalization",
    "repro.uni.punycode",
    "repro.x509",
    "repro.x509.cache",
    "repro.x509.certificate",
    "repro.x509.extensions",
    "repro.x509.general_name",
    "repro.x509.keys",
    "repro.x509.name",
}

#: ``repro lint one.pem --json``.
LINT_MODULES = WORKER_MODULES | {
    "repro.cli",
    "repro.engine",
    "repro.engine.executors",
    "repro.engine.ingest",
    "repro.engine.pipeline",
    "repro.engine.sinks",
    "repro.engine.stats",
    "repro.x509.pem",
}

#: ``repro monitor --resume`` over a checkpointed simulated log.
MONITOR_MODULES = LINT_MODULES | {
    "repro.analysis",
    "repro.analysis.longitudinal",
    "repro.analysis.render",
    "repro.corpusstore",
    "repro.corpusstore.errors",
    "repro.corpusstore.format",
    "repro.corpusstore.reader",
    "repro.corpusstore.segments",
    "repro.corpusstore.writer",
    "repro.ct",
    "repro.ct.checkpoint",
    "repro.ct.corpus",
    "repro.ct.log",
    "repro.ct.merkle",
    "repro.ct.tail",
    "repro.engine.windows",
    "repro.x509.builder",
    "repro.x509.simkeys",
}

_POOL_MACHINERY = ("multiprocessing", "concurrent.futures")


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def _imported(stderr: str) -> set[str]:
    """Module names from ``-X importtime`` lines (``self | cumulative | name``)."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    } - {"imported package"}


def _repro_modules(modules) -> set[str]:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def _assert_allowed(entry: str, loaded: set[str], allowed: set[str]) -> None:
    extra = sorted(loaded - allowed)
    assert not extra, f"{entry} loads modules outside its allow-list: {extra}"
    gone = sorted(allowed - loaded)
    assert not gone, f"{entry} no longer loads {gone}; drop them from its allow-list"


def test_package_inits_import_only_the_listed_names():
    for init in sorted((SRC / "repro").glob("*/__init__.py")):
        package = init.parent.name
        tree = ast.parse(init.read_text())
        body = tree.body
        assert body and isinstance(body[0], ast.Expr), f"repro.{package} lacks a docstring"
        imported = set()
        for node in body[1:]:
            assert isinstance(node, ast.ImportFrom) and node.level == 1, (
                f"repro/{package}/__init__.py line {node.lineno}: only "
                "relative from-imports may follow the docstring"
            )
            imported |= {(node.module or "", alias.name) for alias in node.names}
            assert all(alias.asname is None for alias in node.names), package
        assert imported == PACKAGE_IMPORTS.get(package, set()), f"repro.{package}"


def test_importing_lint_and_engine_loads_no_pool_machinery_or_analysis():
    # A cold in-process lint must not pay for multiprocessing or
    # concurrent.futures (a pool imports them when built), and the
    # engine never needs the paper's table/figure code.
    code = "import json, sys, repro.engine, repro.lint; print(json.dumps(sorted(sys.modules)))"
    out = _run(["-c", code], cwd=None)
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert [m for m in _POOL_MACHINERY if m in loaded] == []
    assert "repro.analysis" not in loaded


def test_repro_lint_loads_only_its_allow_list(tmp_path):
    der = (
        CertificateBuilder()
        .subject_cn("ok.example.com")
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(GeneralName.dns("ok.example.com")))
        .sign(generate_keypair(seed=121))
        .to_der()
    )
    (tmp_path / "one.pem").write_text(encode_pem(der))
    out = _run(["-X", "importtime", "-m", "repro", "lint", "one.pem", "--json"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)
    loaded = _imported(out.stderr)
    assert [m for m in _POOL_MACHINERY if m in loaded] == []
    _assert_allowed("repro lint", _repro_modules(loaded), LINT_MODULES)


def test_repro_monitor_resume_loads_only_its_allow_list(tmp_path):
    args = [
        "-m", "repro", "monitor", "--scale", "2e-6", "--seed", "7",
        "--checkpoint", "ck", "--store-dir", "store",
    ]
    first = _run(args, tmp_path)
    assert first.returncode == 0, first.stderr
    out = _run(["-X", "importtime", *args, "--resume"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert "resumed from checkpoint at position" in out.stdout
    _assert_allowed(
        "repro monitor --resume", _repro_modules(_imported(out.stderr)), MONITOR_MODULES
    )


def test_spawned_pool_worker_loads_only_its_allow_list():
    # ``eval`` pickles by reference, so it runs in the worker and reads
    # the worker's own module table.
    code = (
        "import json\n"
        "from repro.lint.parallel import LintPool\n"
        "with LintPool(1, start_method='spawn') as pool:\n"
        "    pool.prewarm()\n"
        "    future = pool.executor.submit(eval, 'list(__import__(\"sys\").modules)')\n"
        "    names = future.result(timeout=60)\n"
        "print(json.dumps(names))\n"
    )
    out = _run(["-c", code], cwd=None)
    assert out.returncode == 0, out.stderr
    loaded = _repro_modules(json.loads(out.stdout))
    _assert_allowed("a spawned LintPool worker", loaded, WORKER_MODULES)
