"""Module-qualified call graph over ``src/repro`` for worker reachability.

The concurrency checkers (fork-cow, pickle-boundary) need to know which
functions can execute *inside a worker process*.  That set is not a
module list — ``repro.lint.runner`` runs both in the parent (serial
path) and in every pool worker — so the checkers share one
whole-program call graph, rooted at the worker entry points:

* the :class:`~repro.lint.parallel.LintPool` spawn initializer and warm
  task (``_worker_init`` / ``_warm_worker``);
* the pool submit targets (``lint_shard``, ``evaluate_batch_timed``)
  plus anything an analyzed call site passes to
  ``executor.submit(fn, ...)`` or an ``initializer=`` keyword
  (:func:`discovered_roots`).

The graph is deliberately an *over*-approximation — for reachability
soundness it must never miss an edge, and may include impossible ones:

* a direct ``Name(...)`` call resolves through the module's (and the
  enclosing function's) imports to the target module's function;
* ``Cls(...)`` constructor calls edge to ``Cls.__init__``;
* an attribute call ``x.meth(...)`` whose receiver cannot be typed
  statically edges to **every** scanned function named ``meth`` — any
  class method and any module-level function (class-hierarchy analysis
  without the hierarchy);
* a bare *reference* to a known function (``submit(lint_shard, task)``,
  ``initializer=_worker_init``) is an edge too: the referenced function
  will be called by whoever receives it.

Known blind spots, documented for checker authors: ``@property`` bodies
are reached only when the attribute is *called*, and dynamic dispatch
through containers (``SCOPES[key][0](...)``) is invisible unless the
functions are also referenced by name somewhere reachable.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .resolve import SourceIndex

#: The worker entry points of the live tree.  Missing roots (a module
#: not under analysis, a renamed function) are skipped silently so the
#: same default works for partial scopes.
DEFAULT_WORKER_ROOTS = (
    "repro.fuzz.oracle.evaluate_batch_timed",
    "repro.lint.parallel._warm_worker",
    "repro.lint.parallel._worker_init",
    "repro.lint.parallel._worker_schedule",
    "repro.lint.parallel.lint_shard",
)

#: Receiver-name fragments that mark ``.submit`` / ``.apply_async`` as
#: *executor* dispatch.  ``submit`` is a common verb (CT log monitors,
#: the service micro-batcher), so the generic names only count when the
#: receiver reads like a pool: ``executor.submit``, ``self._pool.submit``.
_EXECUTOR_HINTS = ("executor", "pool")


def is_executor_dispatch(func: ast.Attribute) -> bool:
    """Whether an attribute call's receiver looks like an executor/pool."""
    chain = _attr_chain(func.value)
    if not chain:
        return False
    last = chain[-1].lower()
    return any(hint in last for hint in _EXECUTOR_HINTS)


def module_name_for(path: Path, pkg_root: Path) -> str:
    """Dotted module name of ``path`` rooted at ``pkg_root``.

    ``pkg_root`` is the *package directory* (``src/repro``), so the
    root's own name is the first component: ``src/repro/lint/runner.py``
    maps to ``repro.lint.runner`` and ``__init__.py`` files map to
    their package.
    """
    rel = path.resolve().relative_to(pkg_root.resolve())
    parts = (pkg_root.name,) + rel.parts[:-1]
    stem = rel.parts[-1].removesuffix(".py")
    if stem != "__init__":
        parts = parts + (stem,)
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One graph node: a module-level function or a class method."""

    node: ast.AST  # FunctionDef | AsyncFunctionDef
    module: str
    qualname: str  # "lint_shard" or "LintPool.submit_shard"

    @property
    def ident(self) -> str:
        return f"{self.module}.{self.qualname}"


@dataclass
class ModuleInfo:
    """Per-module symbol table feeding edge resolution."""

    name: str
    path: Path
    tree: ast.Module
    functions: dict = field(default_factory=dict)  # qualname -> FunctionInfo
    classes: dict = field(default_factory=dict)  # class name -> ast.ClassDef
    imports: dict = field(default_factory=dict)  # local name -> dotted target
    module_names: set = field(default_factory=set)  # module-scope bindings


def _relative_base(module: str, level: int) -> str:
    """The package a ``from ...x import y`` of ``level`` resolves against."""
    parts = module.split(".")
    # level 1 is "the current package": for a module that is one more
    # component than its package, both level-1-from-module and
    # level-1-from-__init__ drop down to the parent package.
    return ".".join(parts[: len(parts) - level]) if level < len(parts) else ""


def _collect_imports(info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(info.name, node.level)
                prefix = f"{base}.{node.module}" if node.module else base
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = (
                    f"{prefix}.{alias.name}" if prefix else alias.name
                )


def _collect_symbols(info: ModuleInfo) -> None:
    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(node, info.name, node.name)
            info.module_names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = node
            info.module_names.add(node.name)
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{node.name}.{sub.name}"
                    info.functions[qual] = FunctionInfo(sub, info.name, qual)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        info.module_names.add(leaf.id)
    for local in info.imports:
        info.module_names.add(local)


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for non-Name roots."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


class CallGraph:
    """The whole-program graph plus the symbol tables it was built from."""

    def __init__(self, modules: dict[str, ModuleInfo]):
        self.modules = modules
        self.functions: dict[str, FunctionInfo] = {}
        for mod in modules.values():
            for fn in mod.functions.values():
                self.functions[fn.ident] = fn
        #: Every function sharing a bare name — the attribute-call
        #: fallback table ("CHA without the hierarchy").
        self._by_name: dict[str, list[str]] = {}
        for ident, fn in sorted(self.functions.items()):
            leaf = fn.qualname.split(".")[-1]
            self._by_name.setdefault(leaf, []).append(ident)
        self.edges: dict[str, set[str]] = {}
        self._build_edges()
        #: Functions referenced from module-scope statements — the
        #: ``SCOPES = {"dns": (_scope_dns, ...), ...}`` dispatch-table
        #: idiom.  Activated per module during reachability: once any
        #: function of a module runs in a worker, anything the module
        #: body wired into a table may run too.
        self._module_refs: dict[str, set[str]] = {
            name: self._collect_module_refs(mod)
            for name, mod in modules.items()
        }

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, paths, index: SourceIndex, pkg_root: Path) -> "CallGraph":
        modules: dict[str, ModuleInfo] = {}
        for path in sorted(Path(p) for p in paths):
            tree = index.module(str(path))
            if tree is None:
                continue
            name = module_name_for(path, pkg_root)
            info = ModuleInfo(name=name, path=path, tree=tree)
            _collect_imports(info)
            _collect_symbols(info)
            modules[name] = info
        return cls(modules)

    def _resolve_name(self, mod: ModuleInfo, name: str) -> str | None:
        """A bare name in ``mod`` as a function ident, if it is one."""
        fn = mod.functions.get(name)
        if fn is not None:
            return fn.ident
        if name in mod.classes:
            init = mod.functions.get(f"{name}.__init__")
            return init.ident if init is not None else None
        target = mod.imports.get(name)
        if target is None:
            return None
        if target in self.functions:
            return target
        # Imported class: edge to its constructor.
        init = self.functions.get(f"{target}.__init__")
        if init is not None:
            return init.ident
        # ``from mod import name`` re-exported through a package
        # __init__: chase one level of the package's own imports.
        head, _, leaf = target.rpartition(".")
        package = self.modules.get(head)
        if package is not None and leaf in package.imports:
            chased = package.imports[leaf]
            if chased in self.functions:
                return chased
        return None

    def _callable_targets(self, mod: ModuleInfo, node: ast.expr) -> list[str]:
        """Possible graph targets of using ``node`` as a callable."""
        if isinstance(node, ast.Name):
            ident = self._resolve_name(mod, node.id)
            return [ident] if ident is not None else []
        if isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if chain is not None and len(chain) >= 2:
                # Imported-module receiver: `_helpers.decode_alabel(..)`.
                prefix = mod.imports.get(chain[0])
                if prefix is not None:
                    dotted = ".".join([prefix] + chain[1:])
                    if dotted in self.functions:
                        return [dotted]
                    init = self.functions.get(f"{dotted}.__init__")
                    if init is not None:
                        return [init.ident]
                if chain[0] in mod.classes:
                    qual = ".".join(chain)
                    ident = f"{mod.name}.{qual}"
                    if ident in self.functions:
                        return [ident]
            # Untyped receiver: every function with the leaf name.
            return list(self._by_name.get(node.attr, ()))
        return []

    def _collect_module_refs(self, mod: ModuleInfo) -> set[str]:
        """Function references in module-scope (non-def) statements."""
        refs: set[str] = set()
        stack: list[ast.stmt] = list(mod.tree.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # bodies are graph nodes, not module-scope code
            if isinstance(stmt, ast.ClassDef):
                stack.extend(stmt.body)
                continue
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    ident = self._resolve_name(mod, sub.id)
                    if ident is not None:
                        refs.add(ident)
        return refs

    def _build_edges(self) -> None:
        for mod in self.modules.values():
            for fn in mod.functions.values():
                out = self.edges.setdefault(fn.ident, set())
                for sub in ast.walk(fn.node):
                    if isinstance(sub, ast.Call):
                        out.update(self._callable_targets(mod, sub.func))
                    elif isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Load
                    ):
                        # Bare function references (callbacks, submit
                        # arguments, initializer kwargs) are edges too.
                        ident = self._resolve_name(mod, sub.id)
                        if ident is not None:
                            out.add(ident)

    # -- queries -------------------------------------------------------

    def discovered_roots(self) -> list[str]:
        """Callables handed to ``*.submit(fn, ...)`` / ``initializer=``.

        Supplements :data:`DEFAULT_WORKER_ROOTS` so fixture packages
        (and future pools) get worker roots without configuration.
        """
        roots: set[str] = set()
        for mod in self.modules.values():
            for fn in mod.functions.values():
                for sub in ast.walk(fn.node):
                    if not isinstance(sub, ast.Call):
                        continue
                    candidates: list[ast.expr] = []
                    if isinstance(sub.func, ast.Attribute) and sub.args:
                        if sub.func.attr in (
                            "submit",
                            "apply_async",
                        ) and is_executor_dispatch(sub.func):
                            candidates.append(sub.args[0])
                        elif (
                            sub.func.attr == "run_in_executor"
                            and len(sub.args) >= 2
                        ):
                            # (executor, fn, *args) — fn is second.
                            candidates.append(sub.args[1])
                    candidates.extend(
                        kw.value
                        for kw in sub.keywords
                        if kw.arg == "initializer"
                    )
                    for expr in candidates:
                        roots.update(self._callable_targets(mod, expr))
        return sorted(roots)

    def reachable(self, roots) -> set[str]:
        """Function idents reachable from ``roots`` (present ones).

        Reaching any function of a module also activates the functions
        its module body references (dispatch tables like ``SCOPES``):
        reachable code can call through the table even though no direct
        edge names the entries.
        """
        seen: set[str] = set()
        activated_modules: set[str] = set()
        queue = deque(sorted(r for r in roots if r in self.functions))
        while queue:
            ident = queue.popleft()
            if ident in seen:
                continue
            seen.add(ident)
            queue.extend(sorted(self.edges.get(ident, ()) - seen))
            module = self.functions[ident].module
            if module not in activated_modules:
                activated_modules.add(module)
                queue.extend(
                    sorted(self._module_refs.get(module, set()) - seen)
                )
        return seen

    def worker_reachable(self, roots=None) -> set[str]:
        """Reachability from explicit + discovered worker entry points."""
        base = DEFAULT_WORKER_ROOTS if roots is None else tuple(roots)
        return self.reachable(sorted(set(base) | set(self.discovered_roots())))


def build_call_graph(paths, index: SourceIndex, pkg_root: Path) -> CallGraph:
    """Convenience wrapper matching the checker entry-point style."""
    return CallGraph.build(paths, index, pkg_root)
