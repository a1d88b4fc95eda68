"""The original per-A-label IDN analysis, kept as a test-only oracle.

``repro.lint.compiled._xn_label_mask`` derives its four bits from one
Punycode decode and boolean passes over it
(:func:`repro.uni.idna.has_unpermitted`, the NFC check and
:func:`repro.uni.idna.alabel_roundtrip_mismatch`, which proves the
round trip from the decode).  This module keeps the composition it
replaced — decode, then ``alabel_violations`` (a second decode and a
full ``ulabel_violations``, with its own encode) filtered by keyword,
then ``is_nfc`` and a full ``ulabel_to_alabel`` re-encode — together
with the ``ulabel_violations``, ``alabel_violations``, ``is_ldh_label``
and ``label_violations`` of that time, decoding with the original
decoder in :mod:`tests.uni.reference_punycode`, so the differential
tests compare against code the change did not touch.
"""

import string
import unicodedata

from repro.lint.compiled import PSEUDO_BITS, SCOPE_NONEMPTY
from repro.uni import punycode
from repro.uni.idna import ulabel_to_alabel, ACE_PREFIX, _bidi_violations, derived_property
from repro.uni.normalization import is_nfc
from repro.uni.dns import MAX_LABEL_OCTETS
from repro.uni.errors import IDNAError, PunycodeError

from ..uni import reference_punycode

XN_DECODE_BAD = PSEUDO_BITS["XN_DECODE_BAD"]
XN_UNPERMITTED = PSEUDO_BITS["XN_UNPERMITTED"]
XN_NOT_NFC = PSEUDO_BITS["XN_NOT_NFC"]
XN_ROUNDTRIP_BAD = PSEUDO_BITS["XN_ROUNDTRIP_BAD"]


_LDH_CHARS = frozenset(string.ascii_letters + string.digits + "-")


def label_violations(label: str, allow_underscore: bool = False) -> list[str]:
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
    return not label_violations(label)


def ulabel_violations(label: str) -> list[str]:
    problems: list[str] = []
    if not label:
        return ["empty label"]
    if unicodedata.normalize("NFC", label) != label:
        problems.append("label is not in NFC form")
    if label.startswith("-"):
        problems.append("label starts with hyphen")
    if label.endswith("-"):
        problems.append("label ends with hyphen")
    if len(label) >= 4 and label[2:4] == "--":
        problems.append("label has hyphens in positions 3 and 4")
    if unicodedata.category(label[0]) in ("Mn", "Mc", "Me"):
        problems.append("label starts with a combining mark")
    for ch in label:
        prop = derived_property(ord(ch))
        if prop in ("DISALLOWED", "UNASSIGNED"):
            problems.append(f"{prop} code point U+{ord(ch):04X}")
    if all(ord(ch) < 0x80 for ch in label):
        problems.append("label is pure ASCII (not a U-label)")
    problems.extend(_bidi_violations(label))
    try:
        if len(ACE_PREFIX) + len(punycode.encode(label)) > MAX_LABEL_OCTETS:
            problems.append("A-label form exceeds 63 octets")
    except PunycodeError as exc:
        problems.append(f"Punycode encoding failed: {exc}")
    return problems


def alabel_violations(label: str) -> list[str]:
    if not label[:4].lower() == ACE_PREFIX:
        return ["missing xn-- prefix"]
    if not is_ldh_label(label):
        return [f"A-label is not LDH: {problem}" for problem in label_violations(label)]
    try:
        decoded = reference_punycode.decode(label[4:])
    except PunycodeError as exc:
        return [f"unconvertible to Unicode: {exc}"]
    problems = [p for p in ulabel_violations(decoded) if p != "label is pure ASCII (not a U-label)"]
    if not problems and all(ord(ch) < 0x80 for ch in decoded):
        problems.append("decodes to pure ASCII (hyper-compressed A-label)")
    return problems


def unpermitted_problems(label: str) -> list[str]:
    """What ``e_rfc_dns_idn_a2u_unpermitted_unichar`` filtered out."""
    return [
        p
        for p in alabel_violations(label)
        if "DISALLOWED" in p or "UNASSIGNED" in p or "direction" in p or "numerals" in p
    ]


def xn_label_mask(label: str) -> int:
    try:
        ulabel = reference_punycode.decode(label[4:])
    except PunycodeError:
        return XN_DECODE_BAD
    mask = SCOPE_NONEMPTY
    if unpermitted_problems(label):
        mask |= XN_UNPERMITTED
    if not is_nfc(ulabel):
        mask |= XN_NOT_NFC
    try:
        canonical = ulabel_to_alabel(ulabel, validate=False)
    except IDNAError:
        canonical = None
    if canonical is not None and canonical != label.lower():
        mask |= XN_ROUNDTRIP_BAD
    return mask
