"""Checker: objects crossing the process boundary must be picklable.

Every ``LintPool.submit*`` dispatch and every :class:`ShardTask` field
is pickled into a worker pipe.  A lambda, a closure over local state, a
``memoryview`` (including ``CorpusStore.der_view`` slices), or an open
file handle raises ``PicklingError`` at submit time at best — and at
worst pickles *by reference semantics the worker cannot share* (a
handle's fd number means nothing in another process).  The rules the
live tree encodes, now enforced:

* the callable handed to ``executor.submit(fn, ...)`` (and
  ``initializer=``) must be a *module-level* function — resolvable
  through the module's imports, including function-local imports — so
  fork and spawn agree on it by qualified name;
* data arguments to ``submit*`` dispatches and ``ShardTask(...)``
  constructions must not be lambdas, functions defined in the enclosing
  scope, generator expressions, ``memoryview``/``der_view`` results, or
  values bound from ``open(...)``/``mmap.mmap(...)``.

The check is flow-local: a name is tainted by the statement that binds
it within the same function body.  That is exactly the scope pickling
failures arise in — nothing hands an open file across functions into a
submit call in this codebase, and the conservative miss is documented
rather than guessed at.
"""

from __future__ import annotations

import ast

from .callgraph import _attr_chain, is_executor_dispatch
from .findings import Finding
from .resolve import SourceIndex

CHECKER = "pickle-boundary"

#: Dispatch attributes whose *first positional argument* is the callable
#: run in the worker.  Only counted on executor-/pool-named receivers
#: (:func:`~repro.staticcheck.callgraph.is_executor_dispatch`) —
#: ``.submit`` is a common verb and CT log monitors and the
#: micro-batcher expose one that never leaves the process.
_FN_DISPATCH = frozenset({"submit", "apply_async"})

#: Dispatch attributes whose arguments are all data (the callable is
#: fixed inside the pool wrapper).
_DATA_DISPATCH = frozenset({"submit_shard", "submit_fuzz"})

#: Constructors whose fields are pickled wholesale into worker tasks.
_TASK_TYPES = frozenset({"ShardTask"})


def _module_level_defs(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _imported_names(fn_node: ast.AST, tree: ast.Module) -> set[str]:
    """Names bound by imports — module-level *or* inside this function.

    ``submit_fuzz`` imports ``evaluate_batch_timed`` in its own body; a
    function-local import still resolves to a module-qualified object,
    so it pickles fine.
    """
    names: set[str] = set()
    for scope in (tree, fn_node):
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Import):
                for alias in sub.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(sub, ast.ImportFrom):
                for alias in sub.names:
                    if alias.name != "*":
                        names.add(alias.asname or alias.name)
    return names


class _Taint:
    """Per-function map of names to why they cannot cross the boundary."""

    def __init__(self, fn_node: ast.AST):
        self.reasons: dict[str, str] = {}
        for sub in ast.walk(fn_node):
            if isinstance(sub, ast.Assign):
                reason = self._value_taint(sub.value)
                if reason is None:
                    continue
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        self.reasons[target.id] = reason
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if sub is not fn_node:
                    self.reasons[sub.name] = (
                        "function defined in the enclosing scope (pickles "
                        "by qualified name, which spawn cannot resolve)"
                    )

    @staticmethod
    def _value_taint(value: ast.expr) -> str | None:
        if isinstance(value, ast.Lambda):
            return "lambda (unpicklable)"
        if isinstance(value, ast.GeneratorExp):
            return "generator expression (unpicklable)"
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                if func.id == "open":
                    return "open file handle (fd is process-local)"
                if func.id == "memoryview":
                    return "memoryview (buffer is process-local)"
            elif isinstance(func, ast.Attribute):
                chain = _attr_chain(func)
                if func.attr == "der_view":
                    return (
                        "CorpusStore.der_view() memoryview (zero-copy "
                        "slice of a process-local mapping)"
                    )
                if chain and chain[0] == "mmap" and func.attr == "mmap":
                    return "mmap handle (mapping is process-local)"
        return None

    def of(self, expr: ast.expr) -> str | None:
        """Taint reason for one argument expression, if any."""
        if isinstance(expr, ast.Lambda):
            return "lambda (unpicklable)"
        if isinstance(expr, ast.GeneratorExp):
            return "generator expression (unpicklable)"
        direct = self._value_taint(expr)
        if direct is not None:
            return direct
        if isinstance(expr, ast.Name):
            return self.reasons.get(expr.id)
        if isinstance(expr, ast.Starred):
            return self.of(expr.value)
        return None


def _function_nodes(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _check_fn_argument(
    expr: ast.expr,
    taint: _Taint,
    resolvable: set[str],
) -> str | None:
    """Why ``expr`` is not a safe worker callable, or ``None``."""
    if isinstance(expr, ast.Lambda):
        return "lambda (unpicklable)"
    if isinstance(expr, ast.Name):
        reason = taint.reasons.get(expr.id)
        if reason is not None:
            return reason
        if expr.id in resolvable:
            return None
        return (
            f"callable '{expr.id}' does not resolve to a module-level "
            "function (workers import it by qualified name)"
        )
    if isinstance(expr, ast.Attribute):
        chain = _attr_chain(expr)
        if chain is not None and chain[0] in resolvable:
            return None  # mod.fn — qualified-name picklable
        if chain is not None and chain[0] == "self":
            return (
                f"bound method self.{'.'.join(chain[1:])} pickles its "
                "whole instance into the worker"
            )
        return "callable expression cannot be verified picklable"
    return "callable expression cannot be verified picklable"


def check_pickle_boundary(paths, index: SourceIndex) -> list[Finding]:
    """Scan submit dispatches and task constructions for unpicklables."""
    findings: list[Finding] = []
    for path in paths:
        tree = index.module(str(path))
        if tree is None:
            continue
        relpath = index.relpath(str(path))
        module_defs = _module_level_defs(tree)
        for fn_node in _function_nodes(tree):
            taint = _Taint(fn_node)
            resolvable = module_defs | _imported_names(fn_node, tree)
            label = fn_node.name
            for sub in ast.walk(fn_node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                data_args: list[ast.expr] = []
                fn_dispatch = (
                    isinstance(func, ast.Attribute)
                    and func.attr in _FN_DISPATCH
                    and is_executor_dispatch(func)
                )
                if fn_dispatch:
                    if sub.args:
                        reason = _check_fn_argument(
                            sub.args[0], taint, resolvable
                        )
                        if reason is not None:
                            findings.append(
                                Finding(
                                    checker=CHECKER,
                                    severity="error",
                                    path=relpath,
                                    line=sub.lineno,
                                    anchor=label,
                                    message=(
                                        f".{func.attr}() callable crosses the "
                                        f"process boundary: {reason}"
                                    ),
                                )
                            )
                    data_args = list(sub.args[1:])
                elif isinstance(func, ast.Attribute) and func.attr in _DATA_DISPATCH:
                    data_args = list(sub.args)
                elif isinstance(func, ast.Name) and func.id in _TASK_TYPES:
                    data_args = list(sub.args)
                # `initializer=` runs inside every worker regardless of
                # which constructor or dispatch carries it.
                for kw in sub.keywords:
                    if kw.arg != "initializer":
                        continue
                    reason = _check_fn_argument(kw.value, taint, resolvable)
                    if reason is not None:
                        findings.append(
                            Finding(
                                checker=CHECKER,
                                severity="error",
                                path=relpath,
                                line=sub.lineno,
                                anchor=label,
                                message=(
                                    "initializer= crosses the process "
                                    f"boundary: {reason}"
                                ),
                            )
                        )
                data_kwargs = []
                if (
                    fn_dispatch
                    or (isinstance(func, ast.Name) and func.id in _TASK_TYPES)
                    or (
                        isinstance(func, ast.Attribute)
                        and func.attr in _DATA_DISPATCH
                    )
                ):
                    data_kwargs = [
                        kw for kw in sub.keywords if kw.arg != "initializer"
                    ]
                for expr in data_args + [kw.value for kw in data_kwargs]:
                    reason = taint.of(expr)
                    if reason is not None:
                        findings.append(
                            Finding(
                                checker=CHECKER,
                                severity="error",
                                path=relpath,
                                line=sub.lineno,
                                anchor=label,
                                message=(
                                    "value crossing the process boundary "
                                    f"is not picklable: {reason}"
                                ),
                            )
                        )
    return findings
