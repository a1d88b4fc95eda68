"""Hybrid runtime+AST resolution for lint callables.

The family-soundness checker needs to know, for every registered lint,
which certificate *field families* its ``applies`` predicate keys on.
Lints are plain functions (often factory-built closures), so a purely
syntactic pass cannot see the captured ``oid``/``kind``/``issuer``
arguments.  This module combines the two worlds:

* the live function object supplies ``__code__`` (file + first line,
  used to locate the exact AST node) and an *environment* — its
  ``__globals__`` merged with the closure cells bound to
  ``co_freevars`` — so factory-captured values resolve to the real
  runtime objects (an ``ObjectIdentifier``, a ``GeneralNameKind``
  member, the ``subject_attrs`` helper, a bool flag);
* the parsed AST supplies the structure: which helpers are called,
  which ``cert.<attr>`` fields are touched, which branch of an
  ``issuer``-style conditional is live, and which ``.spec.name`` /
  ``.kind`` guards narrow an iteration.

The output is a set of *atoms* — family keys in the exact vocabulary of
:mod:`repro.lint.context` — plus a list of accesses the resolver could
not map (reported separately as unverifiable).
"""

from __future__ import annotations

import ast
import builtins
import types
from dataclasses import dataclass, field
from pathlib import Path

from ..lint import helpers as _helpers
from ..lint.context import (
    FAMILY_AIA,
    FAMILY_CP,
    FAMILY_CRLDP,
    FAMILY_DNS,
    FAMILY_IAN_PRESENT,
    FAMILY_ISSUER_ANY,
    FAMILY_SAN_PRESENT,
    FAMILY_SIA,
    FAMILY_SUBJECT_ANY,
    FAMILY_XN,
)
from ..x509 import GeneralNameKind

_MISSING = object()

#: ``cert.<attr>`` accesses that imply a field family is present.
_CERT_ATTR_ATOMS = {
    "san": FAMILY_SAN_PRESENT,
    "ian": FAMILY_IAN_PRESENT,
    "aia": FAMILY_AIA,
    "sia": FAMILY_SIA,
    "crl_distribution_points": FAMILY_CRLDP,
    "policies": FAMILY_CP,
    "subject": FAMILY_SUBJECT_ANY,
    "issuer": FAMILY_ISSUER_ANY,
    "subject_common_names": ("s", "2.5.4.3"),
    "dns_names": FAMILY_DNS,
    "san_dns_names": FAMILY_DNS,
    "ca_issuer_urls": FAMILY_AIA,
}

#: ``cert.<attr>`` accesses that are always present and family-neutral.
_NEUTRAL_CERT_ATTRS = frozenset(
    {
        "not_before",
        "not_after",
        "version",
        "serial_number",
        "extensions",
        "get_extension",
        "is_ca",
        "is_self_issued",
        "is_precertificate",
        "validity_days",
        "to_der",
        "tbs_der",
        "signature_algorithm",
        "subject_public_key_info",
    }
)

#: Helper extractors whose *call* implies a family, keyed by the live
#: function object so closure-captured aliases resolve too.
_KINDED_HELPERS = {
    _helpers.san_names: "san",
    _helpers.ian_names: "ian",
}
_OID_HELPERS = {
    _helpers.subject_attrs: "s",
    _helpers.issuer_attrs: "i",
}
_PLAIN_HELPERS = {
    _helpers.all_dns_names: FAMILY_DNS,
    _helpers.compute_all_dns_names: FAMILY_DNS,
    _helpers.xn_labels: FAMILY_XN,
    _helpers.alabel_decodings: FAMILY_XN,
}

#: Builtins that merely observe their arguments.
_TRANSPARENT_CALLEES = (bool, len, any, all, sorted, list, tuple, set, frozenset)


class SourceIndex:
    """Parse-once cache of module ASTs, with code-object lookup."""

    def __init__(self, repo_root: Path | None = None):
        self.repo_root = Path(repo_root) if repo_root else None
        self._modules: dict[str, ast.Module | None] = {}

    def module(self, filename: str) -> ast.Module | None:
        tree = self._modules.get(filename, _MISSING)
        if tree is _MISSING:
            try:
                source = Path(filename).read_text(encoding="utf-8")
                tree = ast.parse(source, filename=filename)
            except (OSError, SyntaxError, ValueError):
                tree = None
            self._modules[filename] = tree
        return tree

    def relpath(self, filename: str) -> str:
        path = Path(filename)
        if self.repo_root is not None:
            try:
                return path.resolve().relative_to(self.repo_root.resolve()).as_posix()
            except ValueError:
                pass
        return path.as_posix()

    def function_node(self, code: types.CodeType):
        """The AST node backing a code object, or ``None``.

        Matches by first line; when several lambdas share a line the
        candidate whose parameter names match the code object wins.
        """
        tree = self.module(code.co_filename)
        if tree is None:
            return None
        argnames = code.co_varnames[: code.co_argcount]
        candidates = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                if node.lineno == code.co_firstlineno:
                    candidates.append(node)
        if len(candidates) > 1:
            named = [
                n
                for n in candidates
                if tuple(a.arg for a in n.args.args) == argnames
            ]
            candidates = named or candidates
        return candidates[0] if candidates else None


def callable_env(fn) -> dict:
    """The function's resolvable names: globals overlaid with closure."""
    env = dict(getattr(fn, "__globals__", {}) or {})
    code = getattr(fn, "__code__", None)
    closure = getattr(fn, "__closure__", None)
    if code is not None and closure:
        for name, cell in zip(code.co_freevars, closure):
            try:
                env[name] = cell.cell_contents
            except ValueError:  # pragma: no cover - unfilled cell
                pass
    return env


def local_names(node) -> set[str]:
    """Every name the function binds locally (params, targets, defs).

    Used to *block* environment resolution: a local that happens to
    share its name with a module global must not resolve to the global.
    """
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.comprehension):
            for target in ast.walk(sub.target):
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(sub.name)
        elif isinstance(sub, ast.arg):
            names.add(sub.arg)
    return names


def resolve_expr(node: ast.expr, env: dict, blocked=frozenset()):
    """Evaluate a side-effect-free Name/Attribute/Constant chain.

    Returns ``(value, True)`` on success, ``(None, False)`` otherwise.
    Only pure lookups are performed — no calls, no subscripts — so this
    cannot execute lint code.  Names in ``blocked`` (function locals)
    never resolve.
    """
    if isinstance(node, ast.Constant):
        return node.value, True
    if isinstance(node, ast.Name):
        if node.id in blocked:
            return None, False
        value = env.get(node.id, _MISSING)
        if value is _MISSING:
            value = getattr(builtins, node.id, _MISSING)
        if value is _MISSING:
            return None, False
        return value, True
    if isinstance(node, ast.Attribute):
        base, ok = resolve_expr(node.value, env, blocked)
        if not ok:
            return None, False
        try:
            return getattr(base, node.attr), True
        except AttributeError:
            return None, False
    return None, False


@dataclass
class AtomExtraction:
    """Family atoms an ``applies`` callable keys on, plus residue."""

    atoms: set = field(default_factory=set)
    unknown: list = field(default_factory=list)  # human-readable accesses

    def merge(self, other: "AtomExtraction") -> None:
        self.atoms |= other.atoms
        self.unknown.extend(other.unknown)


def _cert_param_name(node, code: types.CodeType) -> str | None:
    names: tuple[str, ...] = ()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        names = tuple(arg.arg for arg in node.args.args)
    elif code.co_argcount:
        names = code.co_varnames[: code.co_argcount]
    if names and names[0] == "self":  # Lint-subclass applies(self, cert)
        names = names[1:]
    return names[0] if names else None


def _attr_root(node: ast.expr):
    """The leftmost Name of an attribute chain plus the first attr."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and chain:
        return node.id, chain[-1]
    return None, None


class _AppliesVisitor(ast.NodeVisitor):
    """Collect family atoms from one applies-predicate body."""

    def __init__(self, extractor, env, blocked, cert_name):
        self._extract = extractor  # re-entry point for helper recursion
        self.env = env
        self.blocked = blocked
        self.cert_name = cert_name
        self.result = AtomExtraction()

    def _resolve(self, node):
        return resolve_expr(node, self.env, self.blocked)

    # -- branch pruning ----------------------------------------------------

    def _constant_test(self, test: ast.expr):
        value, ok = self._resolve(test)
        if ok and (value is None or isinstance(value, (bool, int, str))):
            return bool(value), True
        return False, False

    def visit_If(self, node: ast.If):
        truth, known = self._constant_test(node.test)
        if known:
            for stmt in node.body if truth else node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp):
        truth, known = self._constant_test(node.test)
        if known:
            self.visit(node.body if truth else node.orelse)
            return
        self.generic_visit(node)

    # -- atom sources ------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute):
        root, first = _attr_root(node)
        if root == self.cert_name:
            atom = _CERT_ATTR_ATOMS.get(first)
            if atom is not None:
                self.result.atoms.add(atom)
            elif first not in _NEUTRAL_CERT_ATTRS:
                self.result.unknown.append(
                    f"unmapped certificate access cert.{first}"
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        target, resolved = self._resolve(node.func)
        if resolved and callable(target):
            try:
                kinded = _KINDED_HELPERS.get(target)
                oided = _OID_HELPERS.get(target)
                plain = _PLAIN_HELPERS.get(target)
                transparent = any(target is t for t in _TRANSPARENT_CALLEES)
            except TypeError:  # unhashable callable
                kinded = oided = plain = None
                transparent = False
            if kinded is not None:
                self._helper_with_arg(node, kinded, self._as_kind)
                return
            if oided is not None:
                self._helper_with_arg(node, oided, self._as_oid)
                return
            if plain is not None:
                self.result.atoms.add(plain)
                return
            if transparent:
                for arg in node.args:
                    self.visit(arg)
                return
            if isinstance(target, types.FunctionType) and self._passes_cert(node):
                self.result.merge(self._extract(target))
                for arg in node.args:
                    if not (isinstance(arg, ast.Name) and arg.id == self.cert_name):
                        self.visit(arg)
                return
        if not resolved and self._passes_cert(node):
            # A call we cannot resolve receives the certificate: we
            # cannot know which fields it keys on.
            self.result.unknown.append(
                f"certificate passed to unresolvable callee at line {node.lineno}"
            )
        self.generic_visit(node)

    def _passes_cert(self, node: ast.Call) -> bool:
        return any(
            isinstance(arg, ast.Name) and arg.id == self.cert_name
            for arg in node.args
        )

    def _helper_with_arg(self, node: ast.Call, prefix: str, coerce) -> None:
        if len(node.args) >= 2:
            value, ok = self._resolve(node.args[1])
            if ok:
                key = coerce(value)
                if key is not None:
                    self.result.atoms.add((prefix, key))
                    return
        self.result.unknown.append(
            f"unresolvable {prefix}-helper argument at line {node.lineno}"
        )

    @staticmethod
    def _as_kind(value):
        try:
            return int(value)
        except (TypeError, ValueError):
            return None

    @staticmethod
    def _as_oid(value):
        return getattr(value, "dotted", None)


class _GuardScanner(ast.NodeVisitor):
    """Find ``.spec.name == X`` and ``.kind is K`` narrowing guards."""

    def __init__(self, env, blocked):
        self.env = env
        self.blocked = blocked
        self.spec_names: set[str] = set()
        self.kinds: set[int] = set()

    def visit_Compare(self, node: ast.Compare):
        if len(node.ops) == 1 and isinstance(node.ops[0], (ast.Eq, ast.Is)):
            for lhs, rhs in (
                (node.left, node.comparators[0]),
                (node.comparators[0], node.left),
            ):
                if (
                    isinstance(lhs, ast.Attribute)
                    and lhs.attr == "name"
                    and isinstance(lhs.value, ast.Attribute)
                    and lhs.value.attr == "spec"
                ):
                    value, ok = resolve_expr(rhs, self.env, self.blocked)
                    if ok and isinstance(value, str):
                        self.spec_names.add(value)
                if isinstance(lhs, ast.Attribute) and lhs.attr == "kind":
                    value, ok = resolve_expr(rhs, self.env, self.blocked)
                    if ok and isinstance(value, GeneralNameKind):
                        self.kinds.add(int(value))
        self.generic_visit(node)


class AppliesResolver:
    """Extract family atoms for applies callables, with memoization."""

    MAX_DEPTH = 8

    def __init__(self, index: SourceIndex):
        self.index = index
        # Keyed by the function object, NOT its code object: factory
        # products share one code object with different closures.
        self._memo: dict = {}
        self._depth = 0

    def extract(self, fn) -> AtomExtraction:
        code = getattr(fn, "__code__", None)
        if code is None:
            result = AtomExtraction()
            result.unknown.append(f"applies callable {fn!r} has no Python code")
            return result
        memo = self._memo.get(fn)
        if memo is not None:
            return memo
        result = AtomExtraction()
        self._memo[fn] = result  # break recursion cycles
        if self._depth >= self.MAX_DEPTH:
            result.unknown.append(f"helper recursion too deep at {code.co_name}")
            return result
        node = self.index.function_node(code)
        if node is None:
            result.unknown.append(
                f"source for {code.co_name} at "
                f"{code.co_filename}:{code.co_firstlineno} not found"
            )
            return result
        env = callable_env(fn)
        blocked = frozenset(local_names(node))
        cert_name = _cert_param_name(node, code)
        visitor = _AppliesVisitor(self.extract, env, blocked, cert_name)
        body = node.body if isinstance(node.body, list) else [node.body]
        self._depth += 1
        try:
            for stmt in body:
                visitor.visit(stmt)
        finally:
            self._depth -= 1
        extracted = visitor.result

        # Narrowing guards: iterating DN attributes under a
        # ``.spec.name == X`` test keys applicability on the *spec*
        # family, not on any-subject/any-issuer; iterating GeneralNames
        # under ``.kind is K`` keys it on the kind bucket.
        guards = _GuardScanner(env, blocked)
        for stmt in body:
            guards.visit(stmt)
        atoms = set(extracted.atoms)
        if guards.spec_names and atoms & {FAMILY_SUBJECT_ANY, FAMILY_ISSUER_ANY}:
            atoms -= {FAMILY_SUBJECT_ANY, FAMILY_ISSUER_ANY}
            atoms |= {("spec", name) for name in guards.spec_names}
        if guards.kinds:
            if FAMILY_SAN_PRESENT in atoms:
                atoms.discard(FAMILY_SAN_PRESENT)
                atoms |= {("san", kind) for kind in guards.kinds}
            if FAMILY_IAN_PRESENT in atoms:
                atoms.discard(FAMILY_IAN_PRESENT)
                atoms |= {("ian", kind) for kind in guards.kinds}
        result.atoms |= atoms
        result.unknown.extend(extracted.unknown)
        return result


def lint_location(lint, index: SourceIndex) -> tuple[str, int]:
    """``(repo-relative path, line)`` anchoring a lint's definition."""
    for attr in ("_applies", "_check"):
        fn = getattr(lint, attr, None)
        code = getattr(fn, "__code__", None)
        if code is not None:
            return index.relpath(code.co_filename), code.co_firstlineno
    cls = type(lint)
    module = getattr(cls, "__module__", "")
    return module.replace(".", "/") + ".py", 1
