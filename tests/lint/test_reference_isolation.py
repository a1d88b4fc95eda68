"""The reference oracle stays out of production code.

:mod:`repro.lint.reference` exists for the equivalence tests and the
benchmarks.  If a module under ``src/repro`` imported it, production
could quietly route through the slow oracle (or the oracle through
production), and the differential tests would compare a path with
itself.
"""

import ast
import pathlib

import repro

ORACLE = "repro.lint.reference"
SRC = pathlib.Path(repro.__file__).resolve().parent


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(path: pathlib.Path):
    """Absolute names of every module ``path`` imports (``from X import
    name`` yields both ``X`` and ``X.name``)."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                base = f"{base}.{node.module}" if node.module else base
            else:
                base = node.module
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def test_resolver_sees_relative_imports():
    lint_helpers = SRC / "lint" / "helpers.py"
    assert "repro.lint.compiled" in set(_imported_modules(lint_helpers))


def test_no_production_module_imports_the_oracle():
    offenders = [
        str(path.relative_to(SRC.parent))
        for path in sorted(SRC.rglob("*.py"))
        if _module_name(path) != ORACLE
        and any(
            name == ORACLE or name.startswith(ORACLE + ".")
            for name in _imported_modules(path)
        )
    ]
    assert offenders == []
