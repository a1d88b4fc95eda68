"""DNS hostname syntax per RFC 1034 / RFC 5890 (LDH rule).

These checks back the linter's DNSName constraints: in the context of a
certificate DNSName, IA5String is further restricted to the *preferred
name syntax* — letters, digits, hyphen, and dots between labels.
"""

from __future__ import annotations

import string

MAX_LABEL_OCTETS = 63
MAX_NAME_OCTETS = 253

_LDH_CHARS = frozenset(string.ascii_letters + string.digits + "-")


def label_violations(label: str, allow_underscore: bool = False) -> list[str]:
    """Return human-readable LDH violations for one DNS label."""
    problems: list[str] = []
    if not label:
        problems.append("empty label")
        return problems
    if len(label) > MAX_LABEL_OCTETS:
        problems.append(f"label longer than {MAX_LABEL_OCTETS} octets ({len(label)})")
    allowed = _LDH_CHARS | {"_"} if allow_underscore else _LDH_CHARS
    bad = sorted({ch for ch in label if ch not in allowed})
    if bad:
        shown = ", ".join(f"U+{ord(ch):04X}" for ch in bad[:8])
        problems.append(f"non-LDH character(s): {shown}")
    if label.startswith("-"):
        problems.append("label starts with hyphen")
    if label.endswith("-"):
        problems.append("label ends with hyphen")
    return problems


def is_ldh_label(label: str) -> bool:
    """Whether ``label`` satisfies the LDH rule of RFC 5890 2.3.1.

    Exactly ``not label_violations(label)``, without building messages.
    """
    return (
        0 < len(label) <= MAX_LABEL_OCTETS
        and label[0] != "-"
        and label[-1] != "-"
        and _LDH_CHARS.issuperset(label)
    )


def is_reserved_ldh_label(label: str) -> bool:
    """Whether ``label`` has hyphens in positions 3 and 4 (R-LDH)."""
    return len(label) >= 4 and label[2:4] == "--"


def is_xn_label(label: str) -> bool:
    """Whether ``label`` carries the IDNA ACE prefix (case-insensitive)."""
    return label[:4].lower() == "xn--"


def name_violations(
    name: str,
    allow_wildcard: bool = True,
    allow_trailing_dot: bool = True,
) -> list[str]:
    """Return violations of the preferred name syntax for a full name."""
    problems: list[str] = []
    if not name:
        return ["empty name"]
    candidate = name
    if allow_trailing_dot and candidate.endswith(".") and candidate != ".":
        candidate = candidate[:-1]
    if len(candidate) > MAX_NAME_OCTETS:
        problems.append(f"name longer than {MAX_NAME_OCTETS} octets ({len(candidate)})")
    labels = candidate.split(".")
    for index, label in enumerate(labels):
        if allow_wildcard and index == 0 and label == "*":
            continue
        for problem in label_violations(label):
            problems.append(f"label {index + 1} ({label!r}): {problem}")
    return problems


def is_valid_dns_name(name: str, allow_wildcard: bool = True) -> bool:
    """Whether ``name`` satisfies the certificate DNSName syntax."""
    return not name_violations(name, allow_wildcard=allow_wildcard)
