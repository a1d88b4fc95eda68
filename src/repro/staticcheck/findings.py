"""Finding records for the staticcheck analyzers.

Every checker reports :class:`Finding` records.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Finding severities, in increasing order of importance.
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Finding:
    """One violation reported by a staticcheck checker."""

    checker: str  # e.g. "cache-safety"
    severity: str  # "error" | "warning" | "info"
    path: str  # repo-relative posix path
    line: int
    anchor: str  # function qualname or symbol the finding hangs off
    message: str

    def to_dict(self) -> dict:
        return {
            "checker": self.checker,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "anchor": self.anchor,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.severity:<7} {self.checker:<20} "
            f"{self.path}:{self.line}  {self.anchor}: {self.message}"
        )


def sort_key(finding: Finding) -> tuple:
    """Deterministic report order: severity desc, then location."""
    return (
        -SEVERITIES.index(finding.severity),
        finding.path,
        finding.line,
        finding.checker,
        finding.anchor,
        finding.message,
    )
