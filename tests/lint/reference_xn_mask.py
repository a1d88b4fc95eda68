"""The original per-A-label IDN analysis, kept as a test-only oracle.

``repro.lint.compiled._xn_label_mask`` derives its four bits from one
Punycode decode, :func:`repro.uni.idna.unpermitted_violations` and one
encode.  This module keeps the composition it replaced — decode, then
``alabel_violations`` (a second decode and a full
``ulabel_violations``, with its own encode) filtered by keyword, then
``is_nfc`` and ``ulabel_to_alabel`` — together with the
``ulabel_violations`` and ``alabel_violations`` of that time, so the
differential tests compare against code the change did not touch.
"""

import unicodedata

from repro.lint.compiled import PSEUDO_BITS, SCOPE_NONEMPTY
from repro.uni import is_nfc, punycode, ulabel_to_alabel
from repro.uni.dns import MAX_LABEL_OCTETS, is_ldh_label, label_violations
from repro.uni.errors import IDNAError, PunycodeError
from repro.uni.idna import ACE_PREFIX, _bidi_violations, derived_property

XN_DECODE_BAD = PSEUDO_BITS["XN_DECODE_BAD"]
XN_UNPERMITTED = PSEUDO_BITS["XN_UNPERMITTED"]
XN_NOT_NFC = PSEUDO_BITS["XN_NOT_NFC"]
XN_ROUNDTRIP_BAD = PSEUDO_BITS["XN_ROUNDTRIP_BAD"]


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
        decoded = punycode.decode(label[4:])
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
        ulabel = punycode.decode(label[4:])
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
