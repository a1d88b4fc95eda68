"""IDNA2008 label handling: A-label/U-label conversion and validation.

Implements the parts of RFC 5890-5893 the paper's lints depend on:

* Punycode-backed A-label ↔ U-label conversion (with the ``xn--`` ACE
  prefix), surfacing every conversion failure mode;
* the *derived property* approximation of RFC 5892 (PVALID / CONTEXTJ /
  CONTEXTO / DISALLOWED / UNASSIGNED) computed from ``unicodedata``;
* U-label structural rules: NFC form, hyphen restrictions, no leading
  combining mark, and the Bidi rule of RFC 5893.

The derived-property table here is the standard category-based
approximation (the same one used by common IDNA libraries for code
points without explicit exceptions); it classifies all characters the
paper's examples exercise (bidi controls, zero-width characters,
uppercase, symbols) exactly as IANA's tables do.
"""

from __future__ import annotations

import unicodedata

from . import punycode
from .dns import MAX_LABEL_OCTETS, is_ldh_label, label_violations
from .errors import IDNAError, PunycodeError

ACE_PREFIX = "xn--"

# RFC 5892 exceptions (Appendix B.1), abridged to the commonly hit ones.
_PVALID_EXCEPTIONS = frozenset(
    {
        0x00DF,  # LATIN SMALL LETTER SHARP S
        0x03C2,  # GREEK SMALL LETTER FINAL SIGMA
        0x06FD,  # ARABIC SIGN SINDHI AMPERSAND
        0x06FE,  # ARABIC SIGN SINDHI POSTPOSITION MEN
        0x0F0B,  # TIBETAN MARK INTERSYLLABIC TSHEG
        0x3007,  # IDEOGRAPHIC NUMBER ZERO
    }
)
_CONTEXTO_EXCEPTIONS = frozenset(
    {
        0x00B7,  # MIDDLE DOT
        0x0375,  # GREEK LOWER NUMERAL SIGN
        0x05F3,  # HEBREW PUNCTUATION GERESH
        0x05F4,  # HEBREW PUNCTUATION GERSHAYIM
        0x30FB,  # KATAKANA MIDDLE DOT
    }
)
_DISALLOWED_EXCEPTIONS = frozenset(
    {
        0x0640,  # ARABIC TATWEEL
        0x07FA,  # NKO LAJANYALAN
        0x302E,  # HANGUL SINGLE DOT TONE MARK
        0x302F,  # HANGUL DOUBLE DOT TONE MARK
        0x3031,  # VERTICAL KANA REPEAT MARK
        0x3032,
        0x3033,
        0x3034,
        0x3035,
        0x303B,  # VERTICAL IDEOGRAPHIC ITERATION MARK
    }
)

#: Categories that make a code point PVALID under the RFC 5892 recipe.
_LETTER_DIGIT_CATEGORIES = frozenset({"Ll", "Lo", "Lm", "Mn", "Mc", "Nd"})


def derived_property(cp: int) -> str:
    """Classify a code point per the RFC 5892 derived-property recipe."""
    ch = chr(cp)
    if cp in _PVALID_EXCEPTIONS:
        return "PVALID"
    if cp in _CONTEXTO_EXCEPTIONS or 0x0660 <= cp <= 0x0669 or 0x06F0 <= cp <= 0x06F9:
        return "CONTEXTO"
    if cp in _DISALLOWED_EXCEPTIONS:
        return "DISALLOWED"
    if cp in (0x200C, 0x200D):  # ZWNJ / ZWJ
        return "CONTEXTJ"
    category = unicodedata.category(ch)
    if category == "Cn":
        return "UNASSIGNED"
    # ASCII fast-path: only lowercase LDH is PVALID.
    if cp <= 0x7F:
        if 0x61 <= cp <= 0x7A or 0x30 <= cp <= 0x39 or cp == 0x2D:
            return "PVALID"
        return "DISALLOWED"
    if category in _LETTER_DIGIT_CATEGORIES:
        return "PVALID"
    return "DISALLOWED"


# ---------------------------------------------------------------------------
# Bidi rule (RFC 5893 Section 2)
# ---------------------------------------------------------------------------

_RTL_DIRECTIONS = frozenset({"R", "AL", "AN"})

#: Derived properties that make a code point unpermitted in a U-label.
_UNPERMITTED_PROPERTIES = ("DISALLOWED", "UNASSIGNED")


def _bidi_violations(label: str) -> list[str]:
    directions = [unicodedata.bidirectional(ch) or "ON" for ch in label]
    if not any(d in _RTL_DIRECTIONS for d in directions):
        return []  # Not a bidi label; rule does not constrain it further.
    problems: list[str] = []
    first = directions[0]
    rtl = first in ("R", "AL")
    if not rtl and first != "L":
        problems.append(f"first character has direction {first}, expected L, R or AL")
        rtl = True  # Validate against the RTL tail rules anyway.
    if rtl:
        allowed = {"R", "AL", "AN", "EN", "ES", "CS", "ET", "ON", "BN", "NSM"}
        for ch, d in zip(label, directions):
            if d not in allowed:
                problems.append(f"direction {d} (U+{ord(ch):04X}) not allowed in RTL label")
        if "AN" in directions and "EN" in directions:
            problems.append("RTL label mixes Arabic and European numerals")
        tail = [d for d in directions if d != "NSM"]
        if tail and tail[-1] not in {"R", "AL", "AN", "EN"}:
            problems.append(f"RTL label ends with direction {tail[-1]}")
    else:
        allowed = {"L", "EN", "ES", "CS", "ET", "ON", "BN", "NSM"}
        for ch, d in zip(label, directions):
            if d not in allowed:
                problems.append(f"direction {d} (U+{ord(ch):04X}) not allowed in LTR label")
        tail = [d for d in directions if d != "NSM"]
        if tail and tail[-1] not in {"L", "EN"}:
            problems.append(f"LTR label ends with direction {tail[-1]}")
    return problems


# ---------------------------------------------------------------------------
# U-label validation
# ---------------------------------------------------------------------------


def unpermitted_violations(label: str) -> list[str]:
    """The code-point violations of a U-label: DISALLOWED or UNASSIGNED
    code points (RFC 5892) and the Bidi rule (RFC 5893).

    The one definition behind the "unpermitted character" lint, its
    compiled trigger bit, and the matching part of
    :func:`ulabel_violations`.
    """
    problems = []
    for ch in label:
        prop = derived_property(ord(ch))
        if prop in _UNPERMITTED_PROPERTIES:
            problems.append(f"{prop} code point U+{ord(ch):04X}")
    problems.extend(_bidi_violations(label))
    return problems


def has_unpermitted(label: str) -> bool:
    """Exactly ``bool(unpermitted_violations(label))``, with no messages.

    An ASCII character is PVALID iff it is lowercase LDH, so any other
    one answers at once; :func:`derived_property` runs only on non-ASCII
    characters, and the Bidi rule only when one of them is R, AL or AN
    (no ASCII character is).
    """
    bidi = False
    for ch in label:
        if ch < "\x80":
            if not ("a" <= ch <= "z" or "0" <= ch <= "9" or ch == "-"):
                return True
            continue
        if derived_property(ord(ch)) in _UNPERMITTED_PROPERTIES:
            return True
        if not bidi and unicodedata.bidirectional(ch) in _RTL_DIRECTIONS:
            bidi = True
    return bidi and bool(_bidi_violations(label))


def ulabel_violations(label: str) -> list[str]:
    """Return every IDNA2008 violation of a would-be U-label."""
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
    # A pure-ASCII label never triggers the Bidi rule, so its message
    # order matches checking the Bidi rule after the ASCII test.
    problems.extend(unpermitted_violations(label))
    if label.isascii():
        problems.append("label is pure ASCII (not a U-label)")
    try:
        if len(ACE_PREFIX) + len(punycode.encode(label)) > MAX_LABEL_OCTETS:
            problems.append("A-label form exceeds 63 octets")
    except PunycodeError as exc:
        problems.append(f"Punycode encoding failed: {exc}")
    return problems


def is_valid_ulabel(label: str) -> bool:
    """Whether ``label`` is a fully valid IDNA2008 U-label."""
    return not ulabel_violations(label)


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------


def ulabel_to_alabel(label: str, validate: bool = True) -> str:
    """Convert a U-label to its A-label (``xn--`` + Punycode)."""
    if validate:
        problems = ulabel_violations(label)
        if problems:
            raise IDNAError(f"invalid U-label {label!r}: {problems[0]}", label)
    try:
        encoded = punycode.encode(label.lower())
    except PunycodeError as exc:
        raise IDNAError(f"cannot encode {label!r}: {exc}", label) from exc
    alabel = ACE_PREFIX + encoded
    if len(alabel) > MAX_LABEL_OCTETS:
        raise IDNAError(f"A-label exceeds {MAX_LABEL_OCTETS} octets", label)
    return alabel


def alabel_to_ulabel(label: str, validate: bool = True) -> str:
    """Convert an A-label back to its U-label.

    With ``validate=True`` the round-trip requirements of RFC 5891 are
    enforced: the decoded label must be a valid U-label and re-encoding
    must reproduce the input.  ``validate=False`` performs the raw
    conversion only — the mode monitors and parsers effectively use.
    """
    if not label[:4].lower() == ACE_PREFIX:
        raise IDNAError(f"{label!r} lacks the {ACE_PREFIX!r} prefix", label)
    try:
        decoded = punycode.decode(label[4:])
    except PunycodeError as exc:
        raise IDNAError(f"cannot decode {label!r}: {exc}", label) from exc
    if validate:
        problems = ulabel_violations(decoded)
        if problems:
            raise IDNAError(f"decoded U-label invalid: {problems[0]}", label)
        if ulabel_to_alabel(decoded, validate=False) != label.lower():
            raise IDNAError("A-label does not round-trip", label)
    return decoded


def alabel_roundtrip_mismatch(label: str, ulabel: str) -> bool:
    """Whether the A-label ``label`` (``xn--`` in any case), which decodes
    to ``ulabel``, is not the canonical encoding of its U-label.

    Exactly ``ulabel_to_alabel(ulabel, validate=False) != label.lower()``,
    counting an encoding that fails (``IDNAError``: over 63 octets) as no
    mismatch.  The
    answer mostly comes from the decode alone: Punycode decoding is
    injective on lowercase input (RFC 3492 §3.1, §6.2 — each insertion
    and each generalized variable-length integer has exactly one
    encoding), so with ``P = label[4:]`` the re-encoding of
    ``ulabel.lower()`` is ``P.lower()`` whenever the last delimiter of
    ``P`` is not at position 0 (``"-abc"`` decodes like ``"abc"``) and
    ``ulabel.lower()`` differs from ``ulabel`` only in ASCII letters
    (then it is the decode of ``P.lower()``).  The encoder runs only when
    one of those fails.
    """
    if label[4:].rfind(punycode.DELIMITER) != 0 and (
        ulabel.lower() == ulabel
        or all(ch.lower() == ch for ch in ulabel if ch >= "\x80")
    ):
        return False
    try:
        canonical = ulabel_to_alabel(ulabel, validate=False)
    except IDNAError:
        return False
    return canonical != label.lower()


def alabel_violations(label: str) -> list[str]:
    """Return every problem with an A-label, per the paper's F1 finding.

    Covers both failure classes the paper measures: (i) the A-label
    cannot be converted to Unicode at all, and (ii) the converted label
    contains characters disallowed by IDNA2008 (e.g. bidi controls).
    """
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


# ---------------------------------------------------------------------------
# Whole-domain helpers
# ---------------------------------------------------------------------------


def domain_to_unicode(domain: str, validate: bool = True) -> str:
    """Convert every A-label of ``domain`` to Unicode form."""
    labels = []
    for label in domain.split("."):
        if label[:4].lower() == ACE_PREFIX:
            labels.append(alabel_to_ulabel(label, validate=validate))
        else:
            labels.append(label)
    return ".".join(labels)


def domain_to_ascii(domain: str, validate: bool = True) -> str:
    """Convert every non-ASCII label of ``domain`` to its A-label."""
    labels = []
    for label in domain.split("."):
        if label and any(ord(ch) >= 0x80 for ch in label):
            labels.append(ulabel_to_alabel(label, validate=validate))
        else:
            labels.append(label)
    return ".".join(labels)


def is_idn(domain: str) -> bool:
    """Whether ``domain`` contains at least one A-label or U-label."""
    return any(
        label[:4].lower() == ACE_PREFIX or any(ord(ch) >= 0x80 for ch in label)
        for label in domain.split(".")
    )
