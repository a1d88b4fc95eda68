"""Source lookup shared by the staticcheck checkers.

:class:`SourceIndex` parses each module once and reports paths
relative to the repository root.
"""

from __future__ import annotations

import ast
from pathlib import Path

_MISSING = object()


class SourceIndex:
    """Parse-once cache of module ASTs."""

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
