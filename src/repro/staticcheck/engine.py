"""Engine: run the checker groups over ``src/repro``.

The engine wires the checkers to their default scopes:

* **registry-invariants** runs over the live global registry
  (importing :mod:`repro.lint` populates it);
* the **registered**-scan, **cache-safety**, and **determinism**
  checkers run over the lint definition modules;
* **exception-hygiene** runs over the parse and service paths
  (``asn1``, ``x509``, ``uni``, ``lint``, ``service``);
* the concurrency/resource checkers — **fork-cow**, **async-blocking**,
  **pickle-boundary**, **resource-lifetime** — run whole-program over
  every module under ``src/repro`` (fork-cow on top of the
  :mod:`~repro.staticcheck.callgraph` worker-reachability graph).

Everything is parameterized so tests can point the same checkers at
fixture registries and fixture files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .asyncblocking import check_async_blocking
from .baseline import load_baseline, partition
from .cachesafety import check_cache_safety
from .determinism import check_determinism
from .findings import Finding, sort_key
from .forkcow import check_fork_cow
from .hygiene import check_exception_hygiene
from .pickleboundary import check_pickle_boundary
from .registry import check_registered, check_registry_invariants
from .resolve import SourceIndex
from .resourcelifetime import check_resource_lifetime

#: src/repro — the default analysis root.
PKG_ROOT = Path(__file__).resolve().parents[1]

CHECKER_NAMES = (
    "registry-invariants",
    "cache-safety",
    "exception-hygiene",
    "determinism",
    "fork-cow",
    "async-blocking",
    "pickle-boundary",
    "resource-lifetime",
)

#: Modules that define lints (scanned by cache-safety / determinism /
#: the registered-scan).  ``parallel.py`` is deliberately absent from
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
    """Outcome of one analyzer run, split against a baseline."""

    findings: list[Finding]
    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    checkers: tuple = CHECKER_NAMES

    def counts(self, findings=None) -> dict[str, int]:
        counts = {"error": 0, "warning": 0, "info": 0}
        for finding in self.findings if findings is None else findings:
            counts[finding.severity] += 1
        return counts

    def worst_new(self) -> str | None:
        for severity in ("error", "warning", "info"):
            if any(f.severity == severity for f in self.new):
                return severity
        return None

    def to_dict(self) -> dict:
        counts = self.counts()
        counts["new"] = len(self.new)
        counts["baselined"] = len(self.baselined)
        return {
            "version": 1,
            "checkers": list(self.checkers),
            "counts": counts,
            "findings": [f.to_dict() for f in self.findings],
            "new": [f.to_dict() for f in self.new],
            "baselined": [f.to_dict() for f in self.baselined],
        }


def run_checkers(
    lints,
    index: SourceIndex,
    *,
    lint_paths=(),
    hygiene_files=(),
    fuzz_files=(),
    concurrency_files=(),
    pkg_root: Path = PKG_ROOT,
    worker_roots=None,
    resolve_rule=None,
    checkers=None,
) -> list[Finding]:
    """Run the selected checker groups and return sorted findings."""
    selected = set(checkers or CHECKER_NAMES)
    unknown = selected - set(CHECKER_NAMES)
    if unknown:
        raise ValueError(f"unknown checkers: {', '.join(sorted(unknown))}")
    findings: list[Finding] = []
    if "registry-invariants" in selected:
        findings.extend(
            check_registry_invariants(lints, index, resolve_rule=resolve_rule)
        )
        findings.extend(check_registered(lint_paths, index, lints))
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
    baseline_path=None,
    checkers=None,
) -> StaticcheckReport:
    """Analyze the real tree: live registry + default file scopes."""
    from ..lint import REGISTRY
    from ..lint.constraints import rules_for_lint

    pkg_root = Path(pkg_root) if pkg_root else PKG_ROOT
    index = SourceIndex(repo_root=pkg_root.parent)
    findings = run_checkers(
        REGISTRY.snapshot(),
        index,
        lint_paths=lint_module_paths(pkg_root),
        hygiene_files=hygiene_paths(pkg_root),
        fuzz_files=fuzz_module_paths(pkg_root),
        concurrency_files=concurrency_paths(pkg_root),
        pkg_root=pkg_root,
        resolve_rule=rules_for_lint,
        checkers=checkers,
    )
    report = StaticcheckReport(findings=findings)
    baseline = load_baseline(baseline_path) if baseline_path else {}
    report.new, report.baselined = partition(findings, baseline)
    return report
