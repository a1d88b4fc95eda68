"""Finding records and fingerprints for the staticcheck analyzers.

Every checker reports :class:`Finding` records.  A finding's
*fingerprint* deliberately excludes the line number: baselines must
survive unrelated edits that shift code up or down, so the fingerprint
hashes the checker id, the file path, the anchoring symbol (a lint name
or function qualname), and the message — the parts that only change
when the finding itself materially changes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


#: Finding severities, in increasing order of importance.
SEVERITIES = ("info", "warning", "error")


def fingerprint_of(checker: str, path: str, anchor: str, message: str) -> str:
    """Stable, line-number-free identity for one finding."""
    digest = hashlib.sha256(
        "|".join((checker, path, anchor, message)).encode("utf-8")
    )
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class Finding:
    """One violation reported by a staticcheck checker."""

    checker: str  # e.g. "registry-invariants"
    severity: str  # "error" | "warning" | "info"
    path: str  # repo-relative posix path
    line: int
    anchor: str  # lint name or function qualname the finding hangs off
    message: str
    fingerprint: str = field(default="")

    def __post_init__(self):
        if not self.fingerprint:
            object.__setattr__(
                self,
                "fingerprint",
                fingerprint_of(self.checker, self.path, self.anchor, self.message),
            )

    def to_dict(self) -> dict:
        return {
            "checker": self.checker,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "anchor": self.anchor,
            "message": self.message,
            "fingerprint": self.fingerprint,
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
