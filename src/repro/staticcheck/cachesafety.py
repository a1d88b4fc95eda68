"""Checker: lint bodies must not mutate memoized certificate views.

The derived-view caches on :class:`repro.x509.Certificate` (``san``,
``ian``, extension views) are shared across all ~95 lints of a run.
The helper extractors (``san_names``, ``all_dns_names``, …) and the
``Name`` accessors (``attributes``, ``get_attrs``) now return a fresh
list per call, but they stay on the list below: mutating what a helper
or accessor returns is still a bug to flag, whether or not today's
implementation shares it.  A lint that sorts, appends to, or writes through
one of those views corrupts every later lint *and* every later
certificate served from the same memo.  This checker walks each
function in the lint modules, taints names bound to cached views
(helper-extractor results and cached attribute chains), and reports
mutating method calls or stores through tainted expressions.

Copies break the taint: ``list(...)``, ``sorted(...)``, slicing and
concatenation all build fresh objects, so ``names = sorted(all_dns_
names(cert))`` followed by ``names.append(...)`` is fine.
"""

from __future__ import annotations

import ast

from .findings import Finding
from .resolve import SourceIndex

CHECKER = "cache-safety"

#: Helper calls that return memoized (shared) views.
_CACHED_HELPERS = frozenset(
    {
        "san_names",
        "ian_names",
        "all_dns_names",
        "xn_labels",
        "alabel_decodings",
        "subject_attrs",
        "issuer_attrs",
        "attributes",  # Name.attributes()
        "get_attrs",
    }
)

#: Attribute reads that yield cached/shared structures.
_CACHED_ATTRS = frozenset(
    {
        "san",
        "ian",
        "aia",
        "sia",
        "crl_distribution_points",
        "policies",
        "names",
        "points",
        "full_names",
        "descriptions",
        "explicit_texts",
        "cps_uris",
        "extensions",
        "rdns",
    }
)

_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "add",
        "discard",
    }
)


def _is_cached_expr(node: ast.expr, tainted: set[str]) -> bool:
    """Whether ``node`` evaluates to a (possibly) shared cached view."""
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Attribute):
        return node.attr in _CACHED_ATTRS
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _CACHED_HELPERS
    if isinstance(node, ast.Subscript):
        # An element of a cached list is itself shared.
        return _is_cached_expr(node.value, tainted)
    return False


def _function_nodes(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node


def _qualname(node) -> str:
    return getattr(node, "name", "<lambda>")


def _check_function(node, relpath: str, findings: list[Finding]) -> None:
    tainted: set[str] = set()
    label = _qualname(node)
    body = node.body if isinstance(node.body, list) else [node.body]

    for sub in ast.walk(ast.Module(body=list(body), type_ignores=[])):
        # Taint assignments: name bound directly to a cached view.
        if isinstance(sub, ast.Assign):
            if _is_cached_expr(sub.value, tainted):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        elif isinstance(sub, ast.For):
            # Loop variable over a cached iterable: the elements are
            # shared objects (mutating them writes through the cache).
            if _is_cached_expr(sub.iter, tainted) and isinstance(
                sub.target, ast.Name
            ):
                tainted.add(sub.target.id)

    for sub in ast.walk(ast.Module(body=list(body), type_ignores=[])):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in _MUTATORS and _is_cached_expr(
                sub.func.value, tainted
            ):
                findings.append(
                    Finding(
                        checker=CHECKER,
                        severity="error",
                        path=relpath,
                        line=sub.lineno,
                        anchor=label,
                        message=(
                            f".{sub.func.attr}() mutates a memoized "
                            "certificate view"
                        ),
                    )
                )
        elif isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_cached_expr(
                    target.value, tainted
                ):
                    findings.append(
                        Finding(
                            checker=CHECKER,
                            severity="error",
                            path=relpath,
                            line=sub.lineno,
                            anchor=label,
                            message="item store into a memoized certificate view",
                        )
                    )
                elif isinstance(target, ast.Attribute) and _is_cached_expr(
                    target.value, tainted
                ):
                    findings.append(
                        Finding(
                            checker=CHECKER,
                            severity="error",
                            path=relpath,
                            line=sub.lineno,
                            anchor=label,
                            message=(
                                f"attribute store .{target.attr} writes through "
                                "a memoized certificate view"
                            ),
                        )
                    )


def check_cache_safety(paths, index: SourceIndex) -> list[Finding]:
    """Scan lint-module functions for mutations of cached views."""
    findings: list[Finding] = []
    for path in paths:
        tree = index.module(str(path))
        if tree is None:
            continue
        relpath = index.relpath(str(path))
        for node in _function_nodes(tree):
            _check_function(node, relpath, findings)
    return findings
