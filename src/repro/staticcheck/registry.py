"""Checker: registry invariants over the live lint registry.

Runtime half (:func:`check_registry_invariants`) — introspects
registered :class:`~repro.lint.framework.Lint` objects:

* name prefix / severity agreement (``e_`` ⇒ ERROR, ``w_`` ⇒ WARN);
* the citation resolves to a :class:`ConstraintRule` whose source
  document matches the lint's :class:`Source`;
* ``effective_date`` is not earlier than the publication date of the
  lint's source standard (a 2008 effective date on an RFC published in
  2024 backdates findings the paper would have called NOT_EFFECTIVE).

AST half (:func:`check_registered`) — scans lint modules for lint
objects that never reach a registry: a bare ``FunctionLint(...)``
constructor whose result is not passed to a ``register`` call, or a
``Lint`` subclass with no registered instance.
"""

from __future__ import annotations

import ast
import datetime as _dt
from pathlib import Path

from ..lint.framework import (
    CABF_BR_DATE,
    COMMUNITY_DATE,
    IDNA2008_DATE,
    RFC5280_DATE,
    RFC6818_DATE,
    RFC8399_DATE,
    RFC9549_DATE,
    RFC9598_DATE,
    Severity,
    Source,
)
from .findings import Finding
from .resolve import SourceIndex, lint_location

CHECKER = "registry-invariants"

#: Earliest defensible effective date per source document.  RFC 1034
#: and X.680 predate every lint here, so they impose no floor.
_SOURCE_FLOOR: dict[Source, _dt.datetime] = {
    Source.RFC5280: RFC5280_DATE,
    Source.RFC6818: RFC6818_DATE,
    Source.RFC8399: RFC8399_DATE,
    Source.RFC9549: RFC9549_DATE,
    Source.RFC9598: RFC9598_DATE,
    Source.IDNA2008: IDNA2008_DATE,
    Source.CABF_BR: CABF_BR_DATE,
    Source.COMMUNITY: COMMUNITY_DATE,
}


def check_registry_invariants(
    lints, index: SourceIndex, resolve_rule=None
) -> list[Finding]:
    """Runtime invariants over a sequence of registered lints."""
    findings: list[Finding] = []

    def report(lint, message, severity="error"):
        path, line = lint_location(lint, index)
        findings.append(
            Finding(
                checker=CHECKER,
                severity=severity,
                path=path,
                line=line,
                anchor=lint.metadata.name,
                message=message,
            )
        )

    seen: dict[str, object] = {}
    for lint in lints:
        meta = lint.metadata
        name = meta.name
        if name in seen:
            report(lint, f"duplicate lint name {name!r}")
        seen[name] = lint

        if name.startswith("e_") and meta.severity is not Severity.ERROR:
            report(
                lint,
                f"name prefix 'e_' but severity is {meta.severity.value!r}",
            )
        elif name.startswith("w_") and meta.severity is Severity.ERROR:
            report(lint, "name prefix 'w_' but severity is 'error'")
        elif not name.startswith(("e_", "w_")):
            report(
                lint,
                "lint name must start with 'e_' or 'w_'",
                severity="warning",
            )

        if not meta.citation.strip():
            report(lint, "citation is empty")
        if resolve_rule is not None:
            try:
                rule = resolve_rule(name)
            except KeyError:
                rule = None
            if rule is None:
                report(lint, "citation does not resolve to a ConstraintRule")
            elif rule.source_document != meta.source.value:
                report(
                    lint,
                    f"ConstraintRule source {rule.source_document!r} "
                    f"disagrees with lint source {meta.source.value!r}",
                )

        floor = _SOURCE_FLOOR.get(meta.source)
        if floor is not None and meta.effective_date < floor:
            report(
                lint,
                f"effective_date {meta.effective_date.date()} predates its "
                f"source {meta.source.value} ({floor.date()})",
            )
    return findings


def _parents_of(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _callee_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def check_registered(paths, index: SourceIndex, lints=()) -> list[Finding]:
    """AST scan: every constructed lint must reach a registry.

    ``lints`` supplies the registered population used to decide whether
    a ``Lint`` subclass defined in the scanned files has an instance.
    """
    findings: list[Finding] = []
    registered_types = {type(lint).__name__ for lint in lints}
    for path in paths:
        tree = index.module(str(path))
        if tree is None:
            continue
        relpath = index.relpath(str(path))
        parents = _parents_of(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee_name(node) == "FunctionLint":
                parent = parents.get(node)
                if isinstance(parent, ast.Call) and _callee_name(parent) in (
                    "register",
                    "register_lint",
                ):
                    continue
                findings.append(
                    Finding(
                        checker=CHECKER,
                        severity="error",
                        path=relpath,
                        line=node.lineno,
                        anchor="FunctionLint",
                        message=(
                            "FunctionLint constructed without being passed "
                            "to a registry register() call"
                        ),
                    )
                )
            if isinstance(node, ast.ClassDef):
                bases = {
                    base.id if isinstance(base, ast.Name) else
                    base.attr if isinstance(base, ast.Attribute) else ""
                    for base in node.bases
                }
                if "Lint" in bases and node.name not in registered_types:
                    findings.append(
                        Finding(
                            checker=CHECKER,
                            severity="error",
                            path=relpath,
                            line=node.lineno,
                            anchor=node.name,
                            message=(
                                f"Lint subclass {node.name} has no "
                                "registered instance"
                            ),
                        )
                    )
    return findings
