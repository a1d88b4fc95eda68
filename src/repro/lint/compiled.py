"""Compiled lint dispatch: fused char-class kernels with bitmask triggers.

Most of the registry reduces to "does any string of scope S contain a
character (or satisfy a shape/length/type predicate) of class X?".
Instead of letting each lint re-ask that question, the registry is
*compiled* once per schedule:

* every lint declares its kernel where it is registered
  (``register_lint(..., scan=ScanSpec(...))``, or built by its factory
  from the factory's own arguments): a ``(scope, trigger, mode)`` row —
  a string source on the certificate (subject attributes, DNS names,
  SAN URIs, …) and a bitmask over the *atoms*: the committed char-class
  interval tables of :mod:`repro.uni.intervals` plus the pseudo-atoms
  below (length thresholds, ASN.1 string-type presence, DNS/email/URI
  shape, decode failures, per-label IDN analysis);
* compiling numbers the family keys the rows name (one bit each of an
  integer signature) and the primitive scopes they read (one slot each);
* at lint time one pass over the certificate's fields
  (:meth:`CompiledPlan.scan`) sets the signature bits and ORs each
  string's N-bit membership mask into its slots, the mask computed via
  a fused interval table (one bisect per distinct character, memoized
  corpus-wide per string);
* a compiled lint whose trigger bits don't fire on its scope mask is
  proven compliant and emits ``PASS`` without running its check; when a
  bit fires the lint's own check runs unchanged, so details stay
  byte-identical;
* those settled outcomes are memoized as verdict templates keyed by the
  signature and the slot masks projected onto the bits live rows read
  (:meth:`CompiledPlan.template`), so a report is a shared PASS skeleton
  plus the few rows that still run.

Soundness contract (verified by the equivalence suite against the
reference oracle): a compiled lint may only *fail* on a certificate
whose scope mask intersects the lint's trigger — the scan
over-approximates, never under-approximates.  The scope is also the
lint's only applicability declaration: its entry in :data:`SCOPES`
names the family keys a certificate must carry for the row to be live,
and the row's mode says what else ``applies()`` needs —
``APPLIES_EXACT`` nothing (live means applicable), ``APPLIES_NONEMPTY``
the scope's ``SCOPE_NONEMPTY`` bit.  Production never calls
``applies()``; the applicability property test checks, lint by lint,
that it equals this derivation.  A lint that declares no kernel
(``scan=None``) gets an unscoped row, live on every certificate with its
``check()`` always run; only test-planted lints whose ``applies()`` is
always True use it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import and_, itemgetter
from typing import NamedTuple

from ..asn1.oid import OID_COMMON_NAME, OID_ON_SMTP_UTF8_MAILBOX
from ..memo import ProcessMemo
from ..uni import punycode
from ..uni.dns import is_ldh_label, is_xn_label
from ..uni.idna import alabel_roundtrip_mismatch, has_unpermitted
from ..uni.normalization import is_nfc
from ..uni.errors import PunycodeError
from ..uni.confusables import mixed_script_confusable
from ..uni.intervals import ATOM_BITS, ATOM_INTERVALS
from ..x509.general_name import GeneralNameKind, mailbox_encoding_problem
from ..x509.certificate import VIEWS
from .framework import LintResult, LintStatus

# ---------------------------------------------------------------------------
# Fused interval table: one sorted boundary array whose segments carry the
# union mask of every atom covering that codepoint range.
# ---------------------------------------------------------------------------


def _fuse_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sweep all atom intervals into (boundaries, per-segment masks)."""
    events: dict[int, int] = {}
    for name, intervals in ATOM_INTERVALS.items():
        bit = ATOM_BITS[name]
        for lo, hi in intervals:
            events[lo] = events.get(lo, 0) ^ bit
            events[hi + 1] = events.get(hi + 1, 0) ^ bit
    bounds = [0]
    masks = [0]
    active = 0
    for position in sorted(events):
        active ^= events[position]
        if position == 0:
            masks[0] = active
            continue
        bounds.append(position)
        masks.append(active)
    return tuple(bounds), tuple(masks)


_BOUNDS, _SEG_MASKS = _fuse_tables()

#: Direct-indexed masks for the ASCII range (the overwhelmingly common case).
_ASCII_MASKS = tuple(
    _SEG_MASKS[bisect_right(_BOUNDS, cp) - 1] for cp in range(0x80)
)

# ---------------------------------------------------------------------------
# Pseudo-atoms: trigger bits that are not interval-backed char classes but
# are computed in the same fused pass (string-derived) or by the field
# pass (structure-derived).  Appended after the interval atoms.
# ---------------------------------------------------------------------------

#: Pseudo-atom names in bit order (appended after ``ATOM_BITS``).
PSEUDO_ATOMS = (
    "DECODE_BAD",  # a scope string failed charset decoding
    "SCOPE_NONEMPTY",  # the scope's item collection is nonempty
    "LEN_GT_64",  # string-derived length thresholds (RFC 5280 ubs)
    "LEN_GT_128",
    "LEN_GT_200",
    "LEN_NE_2",  # countryName shape
    "NOT_UPPER",  # not str.isupper()
    "LEAD_WS",  # nonempty and text[0].isspace(): exactly text != text.lstrip()
    "TRAIL_WS",  # nonempty and text[-1].isspace(): exactly text != text.rstrip()
    "NOT_NFC",  # not is_nfc(text) (set on non-ASCII text only: ASCII is NFC)
    "EMPTY_NORAW",  # attr value "" with no raw content octets
    "SPEC_PrintableString",  # declared ASN.1 string type of some attr
    "SPEC_UTF8String",
    "SPEC_IA5String",
    "SPEC_TeletexString",
    "SPEC_BMPString",
    "SPEC_UniversalString",
    "SPEC_OTHER",
    "DUP_OID",  # an attribute OID repeats within the DN
    "EXTRA_CN",  # more than one subject CommonName (on its per-OID bucket)
    "DNS_LABEL_GT_63",  # DNS shape bits (one memoized walk per name)
    "DNS_NAME_GT_253",
    "DNS_EMPTY_LABEL",
    "DNS_HYPHEN_EDGE",
    "SHAPE_BAD",  # scope-specific: bad mailbox @-shape / bad URI scheme
    "SAN_EMPTY_ENTRY",  # SAN dns/email/uri entry with empty value
    "SAN_NO_NAMES",  # SAN present but carries zero names
    "SAN_HAS_URI",  # SAN carries at least one URI
    "CN_NOT_IN_SAN",  # a subject CN is not a verbatim SAN value
    "CP_TAG_IA5",  # explicitText encoded as IA5String (tag 22)
    "CP_TAG_OTHER",  # explicitText tag neither UTF8String nor IA5String
    "XN_DECODE_BAD",  # per-A-label IDN analysis (memoized corpus-wide)
    "XN_UNPERMITTED",
    "XN_NOT_NFC",
    "XN_ROUNDTRIP_BAD",
    "MIXED_CONFUSABLE",  # one value mixes a Latin letter and a non-Latin confusable
    "ALABEL",  # a DNS name carries an ``xn--`` label (SAN/IAN DNSName buckets)
    "SMTP_NOT_UTF8",  # a mailbox otherName is not a decodable UTF8String
    "SMTP_ASCII_LOCAL",  # a mailbox's local part is nonempty and all ASCII
)

#: Pseudo-atom name -> its bit (continuing the interval-atom bit order).
PSEUDO_BITS = {
    name: 1 << (len(ATOM_BITS) + index) for index, name in enumerate(PSEUDO_ATOMS)
}

#: Every trigger-atom name (interval and pseudo) -> bit.
BIT_BY_NAME = {**ATOM_BITS, **PSEUDO_BITS}

DECODE_BAD = PSEUDO_BITS["DECODE_BAD"]
SCOPE_NONEMPTY = PSEUDO_BITS["SCOPE_NONEMPTY"]
_LEN_GT_64 = PSEUDO_BITS["LEN_GT_64"]
_LEN_GT_128 = PSEUDO_BITS["LEN_GT_128"]
_LEN_GT_200 = PSEUDO_BITS["LEN_GT_200"]
_LEN_NE_2 = PSEUDO_BITS["LEN_NE_2"]
_NOT_UPPER = PSEUDO_BITS["NOT_UPPER"]
_LEAD_WS = PSEUDO_BITS["LEAD_WS"]
_TRAIL_WS = PSEUDO_BITS["TRAIL_WS"]
_NOT_NFC = PSEUDO_BITS["NOT_NFC"]
_EMPTY_NORAW = PSEUDO_BITS["EMPTY_NORAW"]
_SPEC_OTHER = PSEUDO_BITS["SPEC_OTHER"]
_DUP_OID = PSEUDO_BITS["DUP_OID"]
_EXTRA_CN = PSEUDO_BITS["EXTRA_CN"]
_DNS_LABEL_GT_63 = PSEUDO_BITS["DNS_LABEL_GT_63"]
_DNS_NAME_GT_253 = PSEUDO_BITS["DNS_NAME_GT_253"]
_DNS_EMPTY_LABEL = PSEUDO_BITS["DNS_EMPTY_LABEL"]
_DNS_HYPHEN_EDGE = PSEUDO_BITS["DNS_HYPHEN_EDGE"]
_SHAPE_BAD = PSEUDO_BITS["SHAPE_BAD"]
_SAN_EMPTY_ENTRY = PSEUDO_BITS["SAN_EMPTY_ENTRY"]
_SAN_NO_NAMES = PSEUDO_BITS["SAN_NO_NAMES"]
_SAN_HAS_URI = PSEUDO_BITS["SAN_HAS_URI"]
_CN_NOT_IN_SAN = PSEUDO_BITS["CN_NOT_IN_SAN"]
_CP_TAG_IA5 = PSEUDO_BITS["CP_TAG_IA5"]
_CP_TAG_OTHER = PSEUDO_BITS["CP_TAG_OTHER"]
_XN_DECODE_BAD = PSEUDO_BITS["XN_DECODE_BAD"]
_XN_UNPERMITTED = PSEUDO_BITS["XN_UNPERMITTED"]
_XN_NOT_NFC = PSEUDO_BITS["XN_NOT_NFC"]
_XN_ROUNDTRIP_BAD = PSEUDO_BITS["XN_ROUNDTRIP_BAD"]
_MIXED_CONFUSABLE = PSEUDO_BITS["MIXED_CONFUSABLE"]
_ALABEL = PSEUDO_BITS["ALABEL"]
_SMTP_NOT_UTF8 = PSEUDO_BITS["SMTP_NOT_UTF8"]
_SMTP_ASCII_LOCAL = PSEUDO_BITS["SMTP_ASCII_LOCAL"]
_CONFUSABLE = ATOM_BITS["CONFUSABLE"]

#: Declared ASN.1 string type -> its presence bit (unknown types map to
#: ``SPEC_OTHER``; see :func:`spec_trigger`).
_SPEC_NAMES = (
    "PrintableString",
    "UTF8String",
    "IA5String",
    "TeletexString",
    "BMPString",
    "UniversalString",
)
_SPEC_BITS = {name: PSEUDO_BITS["SPEC_" + name] for name in _SPEC_NAMES}

#: Applicability modes of a compiled row (see module docstring).
APPLIES_EXACT = 1
APPLIES_NONEMPTY = 2

#: Entry cap of each per-string mask memo; a full memo flushes.
_STRING_MEMO_MAX = 1 << 20
#: Corpus-wide per-string mask memos (issuer DNs and hostnames repeat).
_STRING_MASKS = ProcessMemo(_STRING_MEMO_MAX)
_CHAR_MASKS = ProcessMemo(_STRING_MEMO_MAX)
#: DNS name -> ``(shape mask, name mask, xn mask)`` (see :func:`dns_name_facts`).
_DNS_NAMES = ProcessMemo(_STRING_MEMO_MAX)
_EMAIL_MASKS = ProcessMemo(_STRING_MEMO_MAX)
_URI_MASKS = ProcessMemo(_STRING_MEMO_MAX)
_XN_MASKS = ProcessMemo(_STRING_MEMO_MAX)
#: ``(raw, value)`` of a SmtpUTF8Mailbox otherName -> its mask
#: (see :func:`_mailbox_mask`).
_MAILBOXES = ProcessMemo(_STRING_MEMO_MAX)

#: Entry cap of each content-keyed memo of a plan; a full memo flushes.
_CONTENT_MEMO_MAX = 1 << 14

_CN_DOTTED = OID_COMMON_NAME.dotted
_SMTP_DOTTED = OID_ON_SMTP_UTF8_MAILBOX.dotted


def char_mask(ch: str) -> int:
    """Interval-atom membership bitmask of one character."""
    cp = ord(ch)
    if cp < 0x80:
        return _ASCII_MASKS[cp]
    return _SEG_MASKS[bisect_right(_BOUNDS, cp) - 1]


def scan_mask(text: str) -> int:
    """Membership bitmask of a string: char atoms plus value-derived bits.

    One fused walk answers every atom's "does the string contain …?"
    question at once, then folds in the string-derived pseudo-bits
    (length thresholds, case, whitespace at either end, and NFC and
    mixed-script confusables, asked only of non-ASCII text: ASCII is
    always NFC and holds no ``CONFUSABLE`` character).  Results are
    memoized per string, and per distinct character on the non-ASCII
    path.
    """
    mask = _STRING_MASKS.get(text)
    if mask is not None:
        return mask
    mask = 0
    if text.isascii():
        table = _ASCII_MASKS
        for ch in set(text):
            mask |= table[ord(ch)]
    else:
        memo = _CHAR_MASKS
        bounds = _BOUNDS
        segs = _SEG_MASKS
        for ch in set(text):
            entry = memo.get(ch)
            if entry is None:
                cp = ord(ch)
                entry = memo[ch] = (
                    _ASCII_MASKS[cp]
                    if cp < 0x80
                    else segs[bisect_right(bounds, cp) - 1]
                )
            mask |= entry
        if not is_nfc(text):
            mask |= _NOT_NFC
        if mask & _CONFUSABLE and mixed_script_confusable(text):
            mask |= _MIXED_CONFUSABLE
    if text:
        if text[0].isspace():
            mask |= _LEAD_WS
        if text[-1].isspace():
            mask |= _TRAIL_WS
    length = len(text)
    if length > 64:
        mask |= _LEN_GT_64
        if length > 128:
            mask |= _LEN_GT_128
            if length > 200:
                mask |= _LEN_GT_200
    if length != 2:
        mask |= _LEN_NE_2
    if not text.isupper():
        mask |= _NOT_UPPER
    _STRING_MASKS[text] = mask
    return mask


def _email_shape_mask(value: str) -> int:
    """Scan mask of one rfc822Name; SHAPE_BAD iff not local@domain."""
    mask = _EMAIL_MASKS.get(value)
    if mask is not None:
        return mask
    mask = scan_mask(value)
    if value.count("@") != 1 or value.startswith("@") or value.endswith("@"):
        mask |= _SHAPE_BAD
    _EMAIL_MASKS[value] = mask
    return mask


def _uri_shape_mask(value: str) -> int:
    """Scan mask of one URI; SHAPE_BAD iff it lacks a valid scheme."""
    mask = _URI_MASKS.get(value)
    if mask is not None:
        return mask
    mask = scan_mask(value)
    head = value.split(":", 1)[0] if ":" in value else ""
    if not head or not head[:1].isalpha() or not all(
        ch.isalnum() or ch in "+-." for ch in head
    ):
        mask |= _SHAPE_BAD
    _URI_MASKS[value] = mask
    return mask


def _xn_label_mask(label: str) -> int:
    """Exact IDN-analysis bits of one A-label (memoized corpus-wide).

    Runs the pure pipeline the four IDN lints interpret once per
    distinct label for the whole corpus: one Punycode decode, then
    boolean passes over it — the IDNA2008 code-point check
    (:func:`repro.uni.idna.has_unpermitted`, LDH labels only, as in
    :func:`repro.uni.idna.alabel_violations`), the NFC check, and the
    canonical round-trip (:func:`repro.uni.idna.alabel_roundtrip_mismatch`,
    which proves it from the decode and encodes only labels that can
    fire).  Every bit is exact (fires iff the corresponding lint would
    fail on this label), so the fast path only falls back on labels
    that actually violate; ``SCOPE_NONEMPTY`` records decodability for
    the two lints that only apply to decodable labels.
    """
    mask = _XN_MASKS.get(label)
    if mask is not None:
        return mask
    try:
        ulabel = punycode.decode(label[4:])
    except PunycodeError:
        mask = _XN_DECODE_BAD
    else:
        mask = SCOPE_NONEMPTY
        if is_ldh_label(label) and has_unpermitted(ulabel):
            mask |= _XN_UNPERMITTED
        if not is_nfc(ulabel):
            mask |= _XN_NOT_NFC
        if alabel_roundtrip_mismatch(label, ulabel):
            mask |= _XN_ROUNDTRIP_BAD
    _XN_MASKS[label] = mask
    return mask


def dns_name_facts(name: str) -> tuple[int, int, int]:
    """``(shape mask, name mask, xn mask)`` of one DNS name (memoized).

    The shape mask is the name's scan mask plus the four DNS shape bits
    (its ``dns`` scope contribution); the name mask is its scan mask
    plus ``SCOPE_NONEMPTY``, and ``ALABEL`` when it has an ``xn--``
    label (its SAN/IAN DNSName bucket contribution); the xn mask is the
    union of :func:`_xn_label_mask` over its ``xn--`` labels, 0 when it
    has none (its ``xn`` scope contribution).  One entry answers all
    three, so no certificate splits a name or looks up a label again.
    """
    entry = _DNS_NAMES.get(name)
    if entry is not None:
        return entry
    scan = scan_mask(name)
    mask = scan
    stripped = name.rstrip(".")
    if len(stripped) > 253:
        mask |= _DNS_NAME_GT_253
    candidate = name[:-1] if name.endswith(".") else name
    labels = candidate.split(".")
    if not candidate or "" in labels:
        mask |= _DNS_EMPTY_LABEL
    for label in labels:
        if len(label) > 63:
            mask |= _DNS_LABEL_GT_63
    for label in stripped.split("."):
        if label.startswith("-") or label.endswith("-"):
            mask |= _DNS_HYPHEN_EDGE
    xn = 0
    for label in name.split("."):
        if is_xn_label(label):
            xn |= _xn_label_mask(label)
    scan |= SCOPE_NONEMPTY
    if xn:
        scan |= _ALABEL
    entry = _DNS_NAMES[name] = (mask, scan, xn)
    return entry


def _mailbox_mask(gn) -> int:
    """Mask of one SmtpUTF8Mailbox otherName (memoized by payload and value).

    The value's scan mask and ``SCOPE_NONEMPTY``, plus two bits that
    restate the mailbox lints' checks: ``SMTP_NOT_UTF8`` iff
    :func:`~repro.x509.general_name.mailbox_encoding_problem` finds a
    problem in the payload, and ``SMTP_ASCII_LOCAL`` iff the local part
    (before the last ``@``) is nonempty and all ASCII.
    """
    key = (gn.raw, gn.value)
    mask = _MAILBOXES.get(key)
    if mask is not None:
        return mask
    value = gn.value
    mask = scan_mask(value) | SCOPE_NONEMPTY
    if mailbox_encoding_problem(gn.raw) is not None:
        mask |= _SMTP_NOT_UTF8
    local = value.rsplit("@", 1)[0] if "@" in value else value
    if local and local.isascii():
        mask |= _SMTP_ASCII_LOCAL
    _MAILBOXES[key] = mask
    return mask


# ---------------------------------------------------------------------------
# Scopes and families.  A scope names the strings a lint reads; the field
# pass of :class:`CompiledPlan` fills one slot mask per primitive scope and
# one signature bit per family key, in a single walk of the certificate.
# ---------------------------------------------------------------------------

# Family keys of the signature.  Beside these names, a DN attribute of OID
# ``oid`` gives ``("s", oid.dotted)``/``("i", ...)``, its declared string
# type ``("spec", type_name)``, and a SAN/IAN GeneralName of kind ``k``
# gives ``("san", int(k))``/``("ian", ...)``.
FAMILY_SUBJECT_ANY = "s*"
FAMILY_ISSUER_ANY = "i*"
FAMILY_SAN_PRESENT = "san!"
FAMILY_IAN_PRESENT = "ian!"
FAMILY_DNS = "dns"
FAMILY_XN = "xn"
FAMILY_AIA = "e:aia"
FAMILY_SIA = "e:sia"
FAMILY_CRLDP = "e:crldp"
FAMILY_CP = "e:cp"

_DNS_KIND = GeneralNameKind.DNS_NAME
_EMAIL_KIND = GeneralNameKind.RFC822_NAME
_URI_KIND = GeneralNameKind.URI
_OTHER_KIND = GeneralNameKind.OTHER_NAME
_SAN_DNS, _IAN_DNS = ("san", int(_DNS_KIND)), ("ian", int(_DNS_KIND))
_SAN_EMAIL, _IAN_EMAIL = ("san", int(_EMAIL_KIND)), ("ian", int(_EMAIL_KIND))
_SAN_URI, _IAN_URI = ("san", int(_URI_KIND)), ("ian", int(_URI_KIND))
_SAN_OTHER, _IAN_OTHER = ("san", int(_OTHER_KIND)), ("ian", int(_OTHER_KIND))


def dns_shaped(common_name: str) -> bool:
    """Whether a subject CommonName counts as a DNS name."""
    return "." in common_name and " " not in common_name and "@" not in common_name


#: Every named scope: ``(family keys, primitive scopes)``.  A row is live
#: only on a certificate whose signature holds one of its scope's family
#: keys (``None``: live on every certificate).  The primitive scopes are
#: the slot masks the field pass fills; a union scope reads the OR of
#: several, which the plan projects onto each of them.  A tuple scope
#: ``(side, oid_dotted)`` is not listed: it is its own family key and
#: its own primitive scope.
SCOPES = {
    "subject": ((FAMILY_SUBJECT_ANY,), ("subject",)),
    "issuer": ((FAMILY_ISSUER_ANY,), ("issuer",)),
    "dn": (None, ("subject", "issuer")),
    "ps": ((("spec", "PrintableString"),), ("subject_ps", "issuer_ps")),
    "utf8": ((("spec", "UTF8String"),), ("subject_utf8", "issuer_utf8")),
    "dns": ((FAMILY_DNS,), ("dns",)),
    "xn": ((FAMILY_XN,), ("xn",)),
    "san_dns": ((_SAN_DNS,), ("san_dns",)),
    "san_email": ((_SAN_EMAIL,), ("san_email",)),
    "san_uri": ((_SAN_URI,), ("san_uri",)),
    "ian_dns": ((_IAN_DNS,), ("ian_dns",)),
    "ian_email": ((_IAN_EMAIL,), ("ian_email",)),
    "ian_uri": ((_IAN_URI,), ("ian_uri",)),
    "email_all": ((_SAN_EMAIL, _IAN_EMAIL), ("san_email", "ian_email")),
    "uri_all": ((_SAN_URI, _IAN_URI), ("san_uri", "ian_uri")),
    "uris_scheme": (
        (FAMILY_CRLDP, _SAN_URI, _IAN_URI),
        ("san_uri", "ian_uri", "crldp_uris"),
    ),
    "crldp": ((FAMILY_CRLDP,), ("crldp",)),
    "aia_uris": ((FAMILY_AIA,), ("aia_uris",)),
    "sia_uris": ((FAMILY_SIA,), ("sia_uris",)),
    "cp_text": ((FAMILY_CP,), ("cp_text",)),
    "cps_uris": ((FAMILY_CP,), ("cps_uris",)),
    "san_entries": ((FAMILY_SAN_PRESENT,), ("san_entries",)),
    "cn_san": ((("s", _CN_DOTTED),), ("cn_san",)),
    "smtp": ((_SAN_OTHER, _IAN_OTHER), ("smtp",)),
}


def _gn_mask(general_names, value_fn) -> int:
    """Union mask over GeneralNames (+NONEMPTY, +DECODE_BAD per failure)."""
    if not general_names:
        return 0
    mask = SCOPE_NONEMPTY
    for gn in general_names:
        mask |= value_fn(gn.value)
        if not gn.decode_ok:
            mask |= DECODE_BAD
    return mask


def _access_entries(ia, scope: str) -> tuple:
    """The URI accessLocations of an AIA/SIA view."""
    mask = 0
    if ia is not None:
        for description in ia.descriptions:
            gn = description.location
            if gn.kind is _URI_KIND:
                mask |= scan_mask(gn.value) | SCOPE_NONEMPTY
                if not gn.decode_ok:
                    mask |= DECODE_BAD
    return ((scope, mask),)


def _crldp_entries(dps) -> tuple:
    """The ``crldp`` mask and the CRLDP part of ``uris_scheme``."""
    mask = 0
    uris = 0
    if dps is not None:
        for point in dps.points:
            mask |= _gn_mask(point.full_names, scan_mask)
            for gn in point.full_names:
                if gn.kind is _URI_KIND:
                    uris |= _uri_shape_mask(gn.value) | SCOPE_NONEMPTY
    return (("crldp", mask), ("crldp_uris", uris))


def _cp_entries(policies) -> tuple:
    text_mask = 0
    uri_mask = 0
    if policies is not None:
        texts = policies.explicit_texts
        if texts:
            text_mask = SCOPE_NONEMPTY
        for tag, text, ok in texts:
            text_mask |= scan_mask(text)
            if not ok:
                text_mask |= DECODE_BAD
            if tag == 22:
                text_mask |= _CP_TAG_IA5
            elif tag != 12:
                text_mask |= _CP_TAG_OTHER
        uris = policies.cps_uris
        if uris:
            uri_mask = SCOPE_NONEMPTY
        for uri in uris:
            uri_mask |= scan_mask(uri)
    return (("cp_text", text_mask), ("cps_uris", uri_mask))


#: The CA-stamped payload slots, in a fixed order: ``(view slot, presence
#: family, view -> (primitive scope, mask) pairs)``.
_PAYLOAD_SLOTS = (
    ("aia", FAMILY_AIA, lambda view: _access_entries(view, "aia_uris")),
    ("sia", FAMILY_SIA, lambda view: _access_entries(view, "sia_uris")),
    ("crldp", FAMILY_CRLDP, _crldp_entries),
    ("cp", FAMILY_CP, _cp_entries),
)


def _walk_name(name_obj, tables, spec_families, slots) -> tuple[int, list]:
    """OR one DN into ``slots``; return its family bits and CommonNames.

    ``tables`` is one side's :attr:`CompiledPlan._subject`/``_issuer``:
    the side's ``s*``/``i*`` bit, its per-OID family bits and slots, and
    its whole-side, PrintableString and UTF8String slots.  Sets
    ``DUP_OID`` on the whole side when an OID repeats, whether or not a
    lint names that OID.
    """
    any_bit, oid_bits, oid_slots, whole, ps_slot, u8_slot = tables
    # ``s*``/``i*`` mirror ``not name.is_empty``, the DN lints' applies():
    # a DN of empty RDNs has no attributes yet is not empty.
    bits = any_bit if name_obj.rdns else 0
    mask = ps = u8 = 0
    seen = set()
    common_names = []
    string_masks = _STRING_MASKS
    spec_atoms = _SPEC_BITS
    for rdn in name_obj.rdns:
        for attr in rdn.attributes:
            spec_name = attr.spec.name
            value = attr.value
            am = string_masks.get(value)
            if am is None:
                am = scan_mask(value)
            am |= spec_atoms.get(spec_name, _SPEC_OTHER)
            if not attr.decode_ok:
                am |= DECODE_BAD
            elif spec_name == "UTF8String":
                u8 |= SCOPE_NONEMPTY
            if not value and not attr.raw:
                am |= _EMPTY_NORAW
            dotted = attr.oid.dotted
            bits |= oid_bits.get(dotted, 0) | spec_families.get(spec_name, 0)
            if dotted in seen:
                mask |= _DUP_OID
            else:
                seen.add(dotted)
            slot = oid_slots.get(dotted)
            if slot is not None:
                slots[slot] |= am
            if spec_name == "PrintableString":
                ps |= am
            elif spec_name == "UTF8String":
                u8 |= am
            if dotted == _CN_DOTTED:
                common_names.append(value)
            mask |= am
    slots[whole] |= mask
    slots[ps_slot] |= ps
    slots[u8_slot] |= u8
    return bits, common_names


def _walk_general_names(names, tables, slots) -> tuple[int, int, int, int]:
    """OR one SAN's or IAN's names into their kind slots.

    ``tables`` is :attr:`CompiledPlan._san`/``_ian``: the family bit of
    each GeneralName kind, then the DNSName, rfc822Name, URI, mailbox
    and ``san_entries`` slots.  Returns ``(family bits, DNSName bucket
    mask, dns shape mask, xn mask)``: the last two are the ``dns`` and
    ``xn`` contributions of the DNSNames, from one
    :func:`dns_name_facts` entry per name.
    """
    kind_bits, dns_slot, email_slot, uri_slot, smtp_slot, entries_slot = tables
    bits = dns = shape = xn = email = uri = smtp = entries = 0
    for gn in names:
        kind = gn.kind
        bits |= kind_bits[kind]
        value = gn.value
        if kind is _DNS_KIND:
            facts = _DNS_NAMES.get(value) or dns_name_facts(value)
            shape |= facts[0]
            dns |= facts[1]
            xn |= facts[2]
            if not gn.decode_ok:
                dns |= DECODE_BAD
            if not value:
                entries |= _SAN_EMPTY_ENTRY
        elif kind is _EMAIL_KIND:
            value_mask = _EMAIL_MASKS.get(value)
            if value_mask is None:
                value_mask = _email_shape_mask(value)
            email |= value_mask | SCOPE_NONEMPTY
            if not gn.decode_ok:
                email |= DECODE_BAD
            if not value:
                entries |= _SAN_EMPTY_ENTRY
        elif kind is _URI_KIND:
            value_mask = _URI_MASKS.get(value)
            if value_mask is None:
                value_mask = _uri_shape_mask(value)
            uri |= value_mask | SCOPE_NONEMPTY
            entries |= _SAN_HAS_URI
            if not gn.decode_ok:
                uri |= DECODE_BAD
            if not value:
                entries |= _SAN_EMPTY_ENTRY
        elif kind is _OTHER_KIND:
            oid = gn.other_name_oid
            if oid is not None and oid.dotted == _SMTP_DOTTED:
                smtp |= _mailbox_mask(gn)
    if not names:
        entries = _SAN_NO_NAMES
    slots[dns_slot] |= dns
    slots[email_slot] |= email
    slots[uri_slot] |= uri
    slots[smtp_slot] |= smtp
    slots[entries_slot] |= entries
    return bits, dns, shape, xn


# ---------------------------------------------------------------------------
# Kernels: each lint declares its (scope, trigger, mode) where it is
# registered; the plan reads ``lint.scan``.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanSpec:
    """A lint's kernel and applicability: scope, trigger atoms, mode.

    ``mode`` is :data:`APPLIES_EXACT` (``applies()`` is True whenever one
    of the scope's families is present) or :data:`APPLIES_NONEMPTY` (it
    also needs the scope's ``SCOPE_NONEMPTY`` bit).  ``trigger`` is the
    atoms' bits as one mask; ``families`` and ``primitives`` come from
    the scope's :data:`SCOPES` entry (a tuple scope is its own family
    key and primitive scope).  An unknown scope, atom name or mode
    raises ``ValueError``, so a typo fails at ``import repro.lint`` (an
    unknown scope would otherwise read an empty mask and the lint would
    always PASS).
    """

    scope: object
    atoms: tuple[str, ...]
    mode: int = APPLIES_EXACT
    trigger: int = field(init=False, repr=False)
    families: tuple | None = field(init=False, repr=False)
    primitives: tuple = field(init=False, repr=False)

    def __post_init__(self):
        scope = self.scope
        entry = SCOPES.get(scope)
        if entry is not None:
            families, primitives = entry
        elif isinstance(scope, tuple) and len(scope) == 2 and scope[0] in ("s", "i"):
            families = primitives = (scope,)
        else:
            raise ValueError(f"unknown scope {scope!r}")
        unknown = [atom for atom in self.atoms if atom not in BIT_BY_NAME]
        if unknown:
            raise ValueError(f"unknown trigger atom(s) {unknown}")
        if self.mode not in (APPLIES_EXACT, APPLIES_NONEMPTY):
            raise ValueError(f"unknown applicability mode {self.mode!r}")
        trigger = 0
        for atom in self.atoms:
            trigger |= BIT_BY_NAME[atom]
        object.__setattr__(self, "trigger", trigger)
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "primitives", primitives)


def spec_trigger(allowed_names) -> tuple[str, ...] | None:
    """Trigger atoms for "spec must be one of ``allowed_names``" lints.

    The trigger is every spec-presence bit *outside* the allowed set
    plus ``SPEC_OTHER``.  If an allowed name has no dedicated bit it
    would alias into ``SPEC_OTHER`` and the trigger would over-kill
    legitimate failures' complement — unsound — so such lints get no
    kernel instead.
    """
    if not set(allowed_names) <= set(_SPEC_NAMES):
        return None
    atoms = tuple(
        "SPEC_" + name for name in _SPEC_NAMES if name not in allowed_names
    ) + ("SPEC_OTHER",)
    return atoms


# ---------------------------------------------------------------------------
# The compiled plan threaded through RegistryIndex / runner / workers.
# ---------------------------------------------------------------------------


#: Cap on the live-row sets and verdict templates one plan memoizes.
#: Keys repeat heavily (a few dozen templates cover a corpus), so the
#: cap only bounds a pathological stream; a full memo flushes and
#: refills.  Both memos full cost about 10 MiB (a live-row set ~1.5 KiB,
#: a template ~0.9 KiB with its key).
_TEMPLATE_MEMO_MAX = 1 << 12


class LiveRows(NamedTuple):
    """The rows of a plan that a family signature leaves live.

    ``rows`` holds the plan's own ``entries`` rows that stay live, in
    registration order (shared, not copied).  ``slots`` lists each slot
    a live row reads, in first-use order, and ``bits`` the bits those
    rows read from it: their triggers, plus ``SCOPE_NONEMPTY`` when an
    ``APPLIES_NONEMPTY`` row reads the slot.  A union scope's row reads
    each of its primitive slots.  ``select`` maps a :meth:`scan` slot
    list to the tuple of its ``slots`` masks.
    """

    rows: tuple
    slots: tuple
    bits: tuple
    select: object


def _selector(slots: tuple):
    """A callable picking ``slots`` out of a slot list, as a tuple."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return lambda masks: tuple(masks[slot] for slot in slots)


class Template(NamedTuple):
    """A memoized report skeleton for one (signature, slot masks) key.

    ``static`` holds the ordered PASS results of every row the masks
    settle.  ``dynamic`` lists ``(position, lint, passed)`` for each row
    whose ``check()`` still runs: an unscoped row, or a fired trigger on
    an applicable row.  ``position`` is the index into ``static`` the
    row's result precedes.
    """

    static: tuple
    dynamic: tuple


class CompiledPlan:
    """Registration-ordered dispatch rows for one lint schedule.

    ``entries`` holds one row per lint of the schedule, in its order:
    ``(lint, family mask, slots, trigger, mode)``, compiled from the
    lint's :class:`ScanSpec`.  Compiling gives every family key some
    row names one bit of the integer signature, and every primitive
    scope some row reads one slot, both in registration order, so a
    forked or spawned worker compiles the same numbering.  A row's
    family mask is the OR of its families' bits (``None``: live on
    every certificate) and its slots are its scope's primitive scopes.
    An unscoped row (``scan=None``) has no slots, so the runner runs its
    ``check()`` on every certificate; result order is registration
    order either way.

    :meth:`scan` is the one pass over a certificate's fields that
    yields ``(signature, slot masks)``.  Four memos sit beside the rows
    (see DESIGN.md §12): the issuer DN and CA payload facts of
    :meth:`scan` by received bytes, :meth:`live_rows` per signature and
    :meth:`template` per signature and projected slot masks.  The last
    two share the rows and one PASS result per lint name (``passed``)
    rather than copying them.
    """

    __slots__ = (
        "entries",
        "passed",
        "compiled_names",
        "family_bits",
        "slot_of",
        "_size",
        "_subject",
        "_issuer",
        "_spec_families",
        "_extra_cn_slot",
        "_payload_slots",
        "_san",
        "_ian",
        "_san_present",
        "_ian_present",
        "_dns_bit",
        "_xn_bit",
        "_dns_slot",
        "_xn_slot",
        "_cn_san_slot",
        "_issuers",
        "_payloads",
        "_live",
        "_templates",
    )

    def __init__(self, lints):
        family_bits: dict = {}
        slot_of: dict = {}
        rows = []
        compiled = []
        for lint in lints:
            spec = lint.scan
            if spec is None:
                rows.append((lint, None, (), 0, APPLIES_EXACT))
                continue
            families = None
            if spec.families is not None:
                families = 0
                for key in spec.families:
                    families |= family_bits.setdefault(key, 1 << len(family_bits))
            slots = tuple(slot_of.setdefault(name, len(slot_of)) for name in spec.primitives)
            rows.append((lint, families, slots, spec.trigger, spec.mode))
            compiled.append(lint.metadata.name)
        self.entries = tuple(rows)
        self.passed = {
            lint.metadata.name: LintResult(lint.metadata, LintStatus.PASS)
            for lint in lints
        }
        self.compiled_names = frozenset(compiled)
        self.family_bits = family_bits
        self.slot_of = slot_of
        self._compile_pass()
        self._issuers = ProcessMemo(_CONTENT_MEMO_MAX)
        self._payloads = ProcessMemo(_CONTENT_MEMO_MAX)
        self._live = ProcessMemo(_TEMPLATE_MEMO_MAX)
        self._templates = ProcessMemo(_TEMPLATE_MEMO_MAX)

    def _compile_pass(self) -> None:
        """The tables :meth:`scan` reads.

        A primitive scope no row reads writes to one spare slot past the
        last, which nothing reads, and a family key no row names has no
        bit: ``live_rows`` only intersects the signature with row
        family masks, so the dropped keys could not change it.
        """
        bits = self.family_bits
        slot_of = self.slot_of
        spare = len(slot_of)
        self._size = spare + 1

        def slot(name) -> int:
            return slot_of.get(name, spare)

        def side(tag: str, whole: str, any_key: str) -> tuple:
            return (
                bits.get(any_key, 0),
                {key[1]: bit for key, bit in bits.items() if key[:1] == (tag,)},
                {key[1]: index for key, index in slot_of.items() if key[:1] == (tag,)},
                slot(whole),
                slot(whole + "_ps"),
                slot(whole + "_utf8"),
            )

        def source(tag: str, entries_slot: int) -> tuple:
            return (
                tuple(bits.get((tag, int(kind)), 0) for kind in GeneralNameKind),
                slot(tag + "_dns"),
                slot(tag + "_email"),
                slot(tag + "_uri"),
                slot("smtp"),
                entries_slot,
            )

        self._subject = side("s", "subject", FAMILY_SUBJECT_ANY)
        self._issuer = side("i", "issuer", FAMILY_ISSUER_ANY)
        self._spec_families = {
            key[1]: bit for key, bit in bits.items() if key[:1] == ("spec",)
        }
        self._extra_cn_slot = slot(("s", _CN_DOTTED))
        self._payload_slots = {
            VIEWS[view][0].dotted: (view, 1 << order, bits.get(family, 0), entries)
            for order, (view, family, entries) in enumerate(_PAYLOAD_SLOTS)
        }
        self._san = source("san", slot("san_entries"))
        self._ian = source("ian", spare)
        self._san_present = bits.get(FAMILY_SAN_PRESENT, 0)
        self._ian_present = bits.get(FAMILY_IAN_PRESENT, 0)
        self._dns_bit = bits.get(FAMILY_DNS, 0)
        self._xn_bit = bits.get(FAMILY_XN, 0)
        self._dns_slot = slot("dns")
        self._xn_slot = slot("xn")
        self._cn_san_slot = slot("cn_san")

    def _packed(self, entries) -> tuple:
        """``(slot, mask)`` updates for ``(primitive scope, mask)`` pairs,
        keeping the nonzero masks of slots some row reads."""
        slot_of = self.slot_of
        return tuple(
            (slot_of[name], mask) for name, mask in entries if mask and name in slot_of
        )

    def scan(self, cert) -> tuple[int, list]:
        """One pass over ``cert``'s fields: ``(signature, slot masks)``.

        The signature has a bit set for every family key present on
        ``cert`` that some row names; ``slots[plan.slot_of[scope]]`` is
        the mask of a primitive scope.  The walk reads the subject's
        attributes, the issuer's facts (by its received bytes, from
        ``_issuers``), each CA payload's facts (by its bytes, from
        ``_payloads``), then one loop over the SAN's and one over the
        IAN's names; the DNS names (SAN DNSNames and DNS-shaped subject
        CNs) give ``dns``/``xn`` from one memo entry per name.  Nothing
        is stored on the certificate.
        """
        slots = [0] * self._size
        signature, common_names = _walk_name(
            cert.subject, self._subject, self._spec_families, slots
        )
        if len(common_names) > 1:
            slots[self._extra_cn_slot] |= _EXTRA_CN
        der = cert._issuer_der
        if der is None:  # built, or ``issuer`` reassigned
            signature |= _walk_name(cert.issuer, self._issuer, self._spec_families, slots)[0]
        else:
            record = self._issuers.get(der)
            if record is None:
                walked = [0] * self._size
                bits = _walk_name(cert.issuer, self._issuer, self._spec_families, walked)[0]
                updates = tuple((slot, mask) for slot, mask in enumerate(walked) if mask)
                record = self._issuers[der] = (bits, updates)
            signature |= record[0]
            for slot, mask in record[1]:
                slots[slot] |= mask
        signature |= self._scan_payloads(cert, slots)

        san = cert.san
        dns = shape = xn = 0
        values = ()
        if san is not None:
            names = san.names
            bits, dns, shape, xn = _walk_general_names(names, self._san, slots)
            signature |= self._san_present | bits
            if common_names:
                values = [gn.value for gn in names]
        ian = cert.ian
        if ian is not None:
            signature |= self._ian_present | _walk_general_names(ian.names, self._ian, slots)[0]
        for cn in common_names:
            if cn not in values:
                slots[self._cn_san_slot] |= _CN_NOT_IN_SAN
            if dns_shaped(cn):
                facts = _DNS_NAMES.get(cn) or dns_name_facts(cn)
                dns |= SCOPE_NONEMPTY
                shape |= facts[0]
                xn |= facts[2]
        if dns:
            signature |= self._dns_bit
            slots[self._dns_slot] |= shape
            if xn:
                signature |= self._xn_bit
                slots[self._xn_slot] |= xn
        return signature, slots

    def _scan_payloads(self, cert, slots) -> int:
        """OR the AIA/SIA/CRLDP/CP facts into ``slots``; return their
        presence bits.

        The first extension per OID counts, as in
        :meth:`Certificate.get_extension`.  Whether its payload decodes
        and its masks are a function of its bytes, kept in
        ``_payloads``, so the view is decoded only on a miss (or when a
        lint or accessor reads it).
        """
        signature = 0
        done = 0
        table = self._payload_slots
        for ext in cert.extensions:
            entry = table.get(ext.oid.dotted)
            if entry is None:
                continue
            view, order, family, entries = entry
            if done & order:
                continue
            done |= order
            key = (view, ext.value_der)
            record = self._payloads.get(key)
            if record is None:
                decoded = cert._view(view)[0]
                record = self._payloads[key] = (
                    0 if decoded is None else family,
                    self._packed(entries(decoded)),
                )
            signature |= record[0]
            for slot, mask in record[1]:
                slots[slot] |= mask
        return signature

    def live_rows(self, signature: int) -> LiveRows:
        """The rows whose family masks meet ``signature`` (memoized).

        A row whose families are all absent has ``applies()`` False —
        the NA result a report drops — so leaving it out is exact.
        """
        live = self._live.get(signature)
        if live is not None:
            return live
        rows = []
        bits: dict = {}
        for row in self.entries:
            _lint, families, slots, trigger, mode = row
            if families is not None and not families & signature:
                continue
            rows.append(row)
            read = trigger | SCOPE_NONEMPTY if mode == APPLIES_NONEMPTY else trigger
            for slot in slots:
                bits[slot] = bits.get(slot, 0) | read
        slots = tuple(bits)
        live = LiveRows(tuple(rows), slots, tuple(bits.values()), _selector(slots))
        self._live[signature] = live
        return live

    def template(self, signature: int, slots: list) -> Template:
        """The report skeleton for a :meth:`scan` result.

        The key is the signature and each live slot's mask ANDed with
        the bits live rows read from it.  The masks alone settle
        applicability: a live ``APPLIES_EXACT`` row applies, and an
        ``APPLIES_NONEMPTY`` row applies iff its scope's
        ``SCOPE_NONEMPTY`` bit is set, else it is the dropped NA whether
        or not its trigger fired.  An applicable row with a clear
        trigger is PASS; a fired trigger or an unscoped row runs the
        lint's ``check()``.  A union scope's mask is the OR of its
        slots' projected masks, each of which keeps every bit the row
        reads.
        """
        live = self._live.get(signature)
        if live is None:
            live = self.live_rows(signature)
        key = (signature, tuple(map(and_, live.select(slots), live.bits)))
        template = self._templates.get(key)
        if template is not None:
            return template
        projected = dict(zip(live.slots, key[1]))
        pass_results = self.passed
        static = []
        dynamic = []
        for lint, _families, row_slots, trigger, mode in live.rows:
            passed = pass_results[lint.metadata.name]
            if row_slots:
                mask = 0
                for slot in row_slots:
                    mask |= projected[slot]
                if mode == APPLIES_NONEMPTY and not mask & SCOPE_NONEMPTY:
                    continue
                if not mask & trigger:
                    static.append(passed)
                    continue
            dynamic.append((len(static), lint, passed))
        template = Template(tuple(static), tuple(dynamic))
        self._templates[key] = template
        return template


def warm_default_plan(stats=None):
    """Build (once) the compiled plan for the default registry schedule.

    Called at engine/pool/service warm-up so plan compilation happens
    before certificates flow — pre-fork for COW sharing, and timed into
    the ``compile`` stage of ``stats`` when a build actually runs.
    """
    from .framework import _INDEX_MEMO, REGISTRY, index_for

    lints = REGISTRY.snapshot()
    if lints in _INDEX_MEMO or stats is None:
        return index_for(lints).compiled_plan()
    with stats.time("compile", items=1):
        return index_for(lints).compiled_plan()

