"""Source lookup shared by the staticcheck checkers.

:class:`SourceIndex` parses each module once and maps a live code
object back to its AST node; :func:`lint_location` anchors a registered
lint's findings at the line that defines its ``applies``/``check``.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path

_MISSING = object()


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
