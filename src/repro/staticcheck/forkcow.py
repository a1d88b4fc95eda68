"""Checker: worker-reachable writes to pre-fork-shared state.

The parallel pipeline builds the registry snapshot, the
:class:`~repro.lint.framework.RegistryIndex`, and the compiled dispatch
plan *before* forking, so every worker inherits them copy-on-write.
That contract has a failure mode the tests cannot see: a worker-side
write to module-level state (a memo dict, a ``global``) or to one of
the shared objects silently diverges per process — under fork it also
dirties COW pages, and under spawn the divergence happens at different
times, which is exactly the class of bug that would break the
byte-identity guarantees behind Figures 2/3/4 and Tables 4/5.

This checker walks every function reachable from the worker entry
points (:mod:`repro.staticcheck.callgraph`) and reports:

* assignments to ``global``-declared names;
* item/attribute stores and mutating method calls through names that
  resolve to module-level bindings (including local aliases such as
  ``memo = _CHAR_MASKS`` and imported names such as ``REGISTRY``);
* ``self.<attr>`` stores and mutations inside non-``__init__`` methods
  of the *pre-fork-shared classes* — classes instantiated at module
  scope anywhere under analysis, plus the reviewed
  :data:`SHARED_CLASSES` set.

One type rule replaces any allow-list: an item store or mutating call
passes only when its receiver is a :class:`repro.memo.ProcessMemo` —
a module-level ``X = ProcessMemo(...)`` binding (in the writing module
or imported from another one, one hop) or a ``self.x = ProcessMemo(...)``
made in the class's ``__init__``.  A ``ProcessMemo`` bound inside a
function body exempts nothing.  Every other write is an error.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .callgraph import ModuleInfo, _attr_chain, build_call_graph
from .findings import Finding
from .resolve import SourceIndex

CHECKER = "fork-cow"

#: Classes whose instances are built pre-fork and shared with workers
#: even though no module-scope instantiation is syntactically visible
#: (``RegistryIndex`` instances live in the module-level
#: ``_INDEX_MEMO``; ``CompiledPlan`` hangs off a ``RegistryIndex``).
SHARED_CLASSES = frozenset({"LintRegistry", "RegistryIndex", "CompiledPlan"})

#: The one memo type a worker may write.
MEMO_TYPE = "repro.memo.ProcessMemo"

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


def _is_memo_call(mod: ModuleInfo, value) -> bool:
    """Whether ``value`` constructs a ``ProcessMemo`` in ``mod``."""
    chain = _attr_chain(value.func) if isinstance(value, ast.Call) else None
    head = mod.imports.get(chain[0]) if chain else None
    return head is not None and ".".join([head, *chain[1:]]) == MEMO_TYPE


def _module_memos(mod: ModuleInfo) -> set[str]:
    """Module-level names whose every binding is a ``ProcessMemo(...)``."""
    memos: set[str] = set()
    others: set[str] = set()
    for node in mod.tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        memo = not isinstance(node, ast.AugAssign) and _is_memo_call(mod, node.value)
        for target in targets:
            if memo and isinstance(target, ast.Name):
                memos.add(target.id)
            else:
                others.update(
                    leaf.id for leaf in ast.walk(target) if isinstance(leaf, ast.Name)
                )
    return memos - others


def _init_memos(mod: ModuleInfo, class_name: str | None) -> set[str]:
    """Attributes ``__init__`` binds as ``self.x = ProcessMemo(...)``."""
    init = mod.functions.get(f"{class_name}.__init__")
    if init is None:
        return set()
    attrs: set[str] = set()
    for sub in ast.walk(init.node):
        if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
            continue
        if not _is_memo_call(mod, sub.value):
            continue
        for target in sub.targets if isinstance(sub, ast.Assign) else [sub.target]:
            chain = _attr_chain(target)
            if chain is not None and len(chain) == 2 and chain[0] == "self":
                attrs.add(chain[1])
    return attrs


def _local_bindings(fn_node: ast.AST) -> tuple[set[str], set[str]]:
    """``(locals, globals_declared)`` for one function body.

    Locals cover parameters, assignment targets, comprehension targets
    and nested def names — any of these shadows a module-level name.
    ``global``-declared names are excluded from locals (a write to one
    is a module-level write by definition).
    """
    local: set[str] = set()
    declared_global: set[str] = set()
    for sub in ast.walk(fn_node):
        if isinstance(sub, ast.Global):
            declared_global.update(sub.names)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            local.add(sub.id)
        elif isinstance(sub, ast.arg):
            local.add(sub.arg)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local.add(sub.name)
    return local - declared_global, declared_global


def _module_alias_map(fn_node: ast.AST, module_names, local) -> dict[str, str]:
    """Locals that are plain aliases of module-level names.

    ``memo = _CHAR_MASKS`` makes ``memo[key] = ...`` a module-level
    write; one level of aliasing catches the idiom the compiled-kernel
    memos actually use.
    """
    aliases: dict[str, str] = {}
    for sub in ast.walk(fn_node):
        if not (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Name)):
            continue
        source = sub.value.id
        if source not in module_names or source in local:
            continue
        for target in sub.targets:
            if isinstance(target, ast.Name):
                aliases[target.id] = source
    return aliases


class _FunctionScanner:
    """Collects the writes of one function that the memo rule does not pass."""

    def __init__(self, mod: ModuleInfo, qualname: str, shared: frozenset, is_memo):
        self.mod = mod
        self.qualname = qualname
        node = mod.functions[qualname].node
        self.node = node
        self.local, self.declared_global = _local_bindings(node)
        self.aliases = _module_alias_map(node, mod.module_names, self.local)
        class_name = qualname.split(".")[0] if "." in qualname else None
        self.self_is_shared = (
            class_name in shared and not qualname.endswith(".__init__")
        )
        self.self_memos = _init_memos(mod, class_name) if self.self_is_shared else set()
        #: ``is_memo(mod, name)``: whether a module-level name is a memo.
        self.is_memo = is_memo
        #: (statement-node, message)
        self.writes: list[tuple[ast.stmt | ast.expr, str]] = []

    def _module_target(self, name: str) -> str | None:
        """The module-level name ``name`` writes through, if any."""
        if name in self.declared_global:
            return name
        if name in self.local:
            return self.aliases.get(name)
        if name in self.mod.module_names:
            return name
        return None

    def _root_write(self, expr: ast.expr) -> str | None:
        """Module-level name behind a subscript/attribute store root."""
        while isinstance(expr, (ast.Subscript, ast.Attribute)):
            expr = expr.value
        if isinstance(expr, ast.Name):
            return self._module_target(expr.id)
        return None

    def _is_shared_self(self, expr: ast.expr) -> bool:
        while isinstance(expr, ast.Subscript):
            expr = expr.value
        chain = _attr_chain(expr)
        return bool(
            self.self_is_shared and chain and chain[0] == "self"
        )

    def _is_memo_receiver(self, receiver: ast.expr) -> bool:
        """Whether ``receiver`` is itself a ``ProcessMemo`` binding."""
        if isinstance(receiver, ast.Name):
            name = self._module_target(receiver.id)
            return name is not None and self.is_memo(self.mod, name)
        return isinstance(receiver, ast.Attribute) and (
            receiver.attr in self.self_memos
            and _attr_chain(receiver) == ["self", receiver.attr]
        )

    def _record(self, stmt, receiver: ast.expr, what: str, memo_ok: bool) -> None:
        """Record ``what`` done to ``receiver`` unless the rule passes it."""
        name = self._root_write(receiver)
        if name is not None:
            where = f"module-level '{name}' from worker-reachable code"
        elif self._is_shared_self(receiver):
            where = f"pre-fork-shared instance state in {self.qualname}"
        else:
            return
        if not (memo_ok and self._is_memo_receiver(receiver)):
            self.writes.append((stmt, f"{what} {where}"))

    def scan(self) -> None:
        for sub in ast.walk(self.node):
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    self._scan_store(sub, target)
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _MUTATORS
            ):
                self._record(sub, sub.func.value, f".{sub.func.attr}() mutates", True)

    def _scan_store(self, stmt, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.declared_global:
                self.writes.append(
                    (
                        stmt,
                        f"assignment to global '{target.id}' from "
                        "worker-reachable code",
                    )
                )
        elif isinstance(target, ast.Subscript):
            self._record(stmt, target.value, "item store into", True)
        elif isinstance(target, ast.Attribute):
            self._record(stmt, target.value, f"attribute store .{target.attr} into", False)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_store(stmt, element)


def check_fork_cow(
    paths,
    index: SourceIndex,
    *,
    pkg_root: Path,
    roots=None,
    shared_classes=None,
) -> list[Finding]:
    """Report worker-reachable shared-state writes that are not memo writes."""
    paths = [Path(p) for p in paths]
    if not paths:
        return []
    graph = build_call_graph(paths, index, pkg_root)
    reach = graph.worker_reachable(roots)
    shared = frozenset(
        SHARED_CLASSES if shared_classes is None else shared_classes
    )
    # Classes instantiated at module scope are shared under fork too.
    discovered = set(shared)
    for mod in graph.modules.values():
        for node in mod.tree.body:
            values = []
            if isinstance(node, ast.Assign):
                values = [node.value]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                values = [node.value]
            for value in values:
                if isinstance(value, ast.Call) and isinstance(
                    value.func, ast.Name
                ):
                    if value.func.id in mod.classes or any(
                        value.func.id in m.classes
                        for m in graph.modules.values()
                    ):
                        discovered.add(value.func.id)
    shared = frozenset(discovered)
    memos = {name: _module_memos(mod) for name, mod in graph.modules.items()}

    def is_memo(mod: ModuleInfo, name: str) -> bool:
        """A memo of ``mod`` itself, or one imported one hop away."""
        if name in memos[mod.name]:
            return True
        head, _, leaf = mod.imports.get(name, "").rpartition(".")
        return leaf in memos.get(head, ())

    findings: list[Finding] = []
    for ident in sorted(reach):
        fn = graph.functions[ident]
        mod = graph.modules[fn.module]
        scanner = _FunctionScanner(mod, fn.qualname, shared, is_memo)
        scanner.scan()
        relpath = index.relpath(str(mod.path))
        for stmt, message in scanner.writes:
            findings.append(
                Finding(
                    checker=CHECKER,
                    severity="error",
                    path=relpath,
                    line=stmt.lineno,
                    anchor=fn.qualname,
                    message=message,
                )
            )
    return findings
