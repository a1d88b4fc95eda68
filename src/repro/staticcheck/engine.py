"""Engine: run the checker groups over ``src/repro``.

The engine wires the checkers to their default scopes.  Every checker
reads source files only; none imports the code it checks.

* **cache-safety** and **determinism** run over the lint definition
  modules (determinism also over ``repro.fuzz``, where a seeded
  ``random.Random`` is allowed);
* **exception-hygiene** runs over the parse and service paths
  (``asn1``, ``x509``, ``uni``, ``lint``, ``service``, ``engine``,
  ``fuzz``);
* the concurrency/resource checkers — **fork-cow**, **async-blocking**,
  **pickle-boundary**, **resource-lifetime** — run whole-program over
  every module under ``src/repro`` (fork-cow on top of the
  :mod:`~repro.staticcheck.callgraph` worker-reachability graph).

Everything is parameterized so tests can point the same checkers at
fixture files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .asyncblocking import check_async_blocking
from .cachesafety import check_cache_safety
from .determinism import check_determinism
from .findings import Finding, sort_key
from .forkcow import check_fork_cow
from .hygiene import check_exception_hygiene
from .pickleboundary import check_pickle_boundary
from .resolve import SourceIndex
from .resourcelifetime import check_resource_lifetime

#: src/repro — the default analysis root.
PKG_ROOT = Path(__file__).resolve().parents[1]

CHECKER_NAMES = (
    "cache-safety",
    "exception-hygiene",
    "determinism",
    "fork-cow",
    "async-blocking",
    "pickle-boundary",
    "resource-lifetime",
)

#: Modules that define lints (scanned by cache-safety / determinism).  ``parallel.py`` is deliberately absent from
#: the determinism scope: worker scheduling may consult cpu counts and
#: deadlines without affecting lint output.
_LINT_DEF_MODULES = (
    "lint/character.py",
    "lint/normalization.py",
    "lint/format.py",
    "lint/encoding.py",
    "lint/structure.py",
    "lint/helpers.py",
    "lint/framework.py",
    "lint/runner.py",
    "lint/compiled.py",
)

#: Packages whose parse/service paths the hygiene checker covers.
_HYGIENE_PACKAGES = ("asn1", "x509", "uni", "lint", "service", "engine", "fuzz")


def lint_module_paths(pkg_root: Path = PKG_ROOT) -> list[Path]:
    return [pkg_root / rel for rel in _LINT_DEF_MODULES]


def fuzz_module_paths(pkg_root: Path = PKG_ROOT) -> list[Path]:
    """The repro.fuzz modules — determinism-scanned with the seeded-
    ``random.Random`` allowance (campaign replayability depends on it)."""
    root = pkg_root / "fuzz"
    return sorted(root.rglob("*.py")) if root.is_dir() else []


def hygiene_paths(pkg_root: Path = PKG_ROOT) -> list[Path]:
    paths: list[Path] = []
    for package in _HYGIENE_PACKAGES:
        root = pkg_root / package
        if root.is_dir():
            paths.extend(sorted(root.rglob("*.py")))
    return paths


def concurrency_paths(pkg_root: Path = PKG_ROOT) -> list[Path]:
    """Every module under the package — the whole-program checkers
    (fork-cow call graph, pickle-boundary, async-blocking,
    resource-lifetime) see the full tree."""
    return sorted(pkg_root.rglob("*.py"))


@dataclass
class StaticcheckReport:
    """Outcome of one analyzer run."""

    findings: list[Finding]
    checkers: tuple = CHECKER_NAMES

    def counts(self) -> dict[str, int]:
        counts = {"error": 0, "warning": 0, "info": 0}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "checkers": list(self.checkers),
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }


def run_checkers(
    index: SourceIndex,
    *,
    lint_paths=(),
    hygiene_files=(),
    fuzz_files=(),
    concurrency_files=(),
    pkg_root: Path = PKG_ROOT,
    worker_roots=None,
    checkers=None,
) -> list[Finding]:
    """Run the selected checker groups and return sorted findings."""
    selected = set(checkers or CHECKER_NAMES)
    unknown = selected - set(CHECKER_NAMES)
    if unknown:
        raise ValueError(f"unknown checkers: {', '.join(sorted(unknown))}")
    findings: list[Finding] = []
    if "cache-safety" in selected:
        findings.extend(check_cache_safety(lint_paths, index))
    if "exception-hygiene" in selected:
        findings.extend(check_exception_hygiene(hygiene_files, index))
    if "determinism" in selected:
        findings.extend(check_determinism(lint_paths, index))
        findings.extend(
            check_determinism(fuzz_files, index, allow_seeded_random=True)
        )
    if "fork-cow" in selected:
        findings.extend(
            check_fork_cow(
                concurrency_files, index, pkg_root=pkg_root, roots=worker_roots
            )
        )
    if "async-blocking" in selected:
        findings.extend(check_async_blocking(concurrency_files, index))
    if "pickle-boundary" in selected:
        findings.extend(check_pickle_boundary(concurrency_files, index))
    if "resource-lifetime" in selected:
        findings.extend(check_resource_lifetime(concurrency_files, index))
    return sorted(findings, key=sort_key)


def run_staticcheck(
    pkg_root: Path | None = None,
    checkers=None,
) -> StaticcheckReport:
    """Analyze the real tree over the default file scopes."""
    pkg_root = Path(pkg_root) if pkg_root else PKG_ROOT
    index = SourceIndex(repo_root=pkg_root.parent)
    findings = run_checkers(
        index,
        lint_paths=lint_module_paths(pkg_root),
        hygiene_files=hygiene_paths(pkg_root),
        fuzz_files=fuzz_module_paths(pkg_root),
        concurrency_files=concurrency_paths(pkg_root),
        pkg_root=pkg_root,
        checkers=checkers,
    )
    return StaticcheckReport(findings=findings)
