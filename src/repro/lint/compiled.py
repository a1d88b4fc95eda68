"""Compiled lint dispatch: fused char-class kernels with bitmask triggers.

Most of the registry reduces to "does any string of scope S contain a
character (or satisfy a shape/length/type predicate) of class X?".
Instead of letting each lint re-ask that question, the registry is
*compiled* once per schedule:

* every lint whose predicate the classifier understands is mapped to a
  ``(scope, trigger, mode)`` row — a string source on the certificate
  (subject attributes, DNS names, SAN URIs, …) and a bitmask over the
  *atoms*: the committed char-class interval tables of
  :mod:`repro.uni.intervals` plus the pseudo-atoms below (length
  thresholds, ASN.1 string-type presence, DNS/email/URI shape, decode
  failures, per-label IDN analysis);
* at lint time each scope's strings are walked **once**, computing an
  N-bit membership mask per string via a fused interval table (one
  bisect per distinct character, memoized corpus-wide per string);
* a compiled lint whose trigger bits don't fire on its scope mask is
  proven compliant and emits ``PASS`` without running its check; when a
  bit fires the interpreted check runs unchanged, so details stay
  byte-identical.

Soundness contract (verified by the equivalence suite and the
``kernel-coverage`` staticcheck): a compiled lint may only *fail* on a
certificate whose scope mask intersects the lint's trigger — the scan
over-approximates, never under-approximates.  Each row also carries an
applicability mode: ``APPLIES_EXACT`` when — given the lint's family
check already passed — ``applies()`` is provably True,
``APPLIES_NONEMPTY`` when it equals the scope's ``SCOPE_NONEMPTY`` bit,
and ``APPLIES_CALL`` when only calling ``applies()`` is sound.  Lints
the classifier cannot prove safe fall through to the interpreted path
and must be listed in :data:`UNCOMPILED_MANIFEST`.
"""

from __future__ import annotations

import ast
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass

from ..asn1.oid import OID_COMMON_NAME
from ..uni import is_ldh_label, is_nfc, ulabel_to_alabel, unpermitted_violations
from ..uni.errors import IDNAError
from ..uni.intervals import ATOM_BITS, ATOM_INTERVALS
from ..x509 import GeneralNameKind
from .framework import FunctionLint

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
# are computed in the same fused pass (string-derived) or by the scope
# walkers (structure-derived).  Appended after the interval atoms.
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
    "EMPTY_NORAW",  # attr value "" with no raw content octets
    "SPEC_PrintableString",  # declared ASN.1 string type of some attr
    "SPEC_UTF8String",
    "SPEC_IA5String",
    "SPEC_TeletexString",
    "SPEC_BMPString",
    "SPEC_UniversalString",
    "SPEC_OTHER",
    "DUP_OID",  # an attribute OID repeats within the DN
    "EXTRA_CN",  # more than one subject CommonName
    "DNS_LABEL_GT_63",  # DNS shape bits (one memoized walk per name)
    "DNS_NAME_GT_253",
    "DNS_EMPTY_LABEL",
    "DNS_HYPHEN_EDGE",
    "SHAPE_BAD",  # scope-specific: bad mailbox @-shape / bad URI scheme
    "SAN_EMPTY_ENTRY",  # SAN dns/email/uri entry with empty value
    "SAN_NO_NAMES",  # SAN present but carries zero names
    "SAN_HAS_URI",  # SAN carries at least one URI
    "CP_TAG_IA5",  # explicitText encoded as IA5String (tag 22)
    "CP_TAG_OTHER",  # explicitText tag neither UTF8String nor IA5String
    "XN_DECODE_BAD",  # per-A-label IDN analysis (memoized corpus-wide)
    "XN_UNPERMITTED",
    "XN_NOT_NFC",
    "XN_ROUNDTRIP_BAD",
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
_CP_TAG_IA5 = PSEUDO_BITS["CP_TAG_IA5"]
_CP_TAG_OTHER = PSEUDO_BITS["CP_TAG_OTHER"]
_XN_DECODE_BAD = PSEUDO_BITS["XN_DECODE_BAD"]
_XN_UNPERMITTED = PSEUDO_BITS["XN_UNPERMITTED"]
_XN_NOT_NFC = PSEUDO_BITS["XN_NOT_NFC"]
_XN_ROUNDTRIP_BAD = PSEUDO_BITS["XN_ROUNDTRIP_BAD"]

#: Declared ASN.1 string type -> its presence bit (unknown types map to
#: ``SPEC_OTHER``; see :func:`_spec_trigger`).
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
APPLIES_CALL = 0
APPLIES_EXACT = 1
APPLIES_NONEMPTY = 2

#: Corpus-wide per-string mask memos (issuer DNs and hostnames repeat).
_STRING_MASKS: dict[str, int] = {}  # staticcheck: process-local
_CHAR_MASKS: dict[str, int] = {}  # staticcheck: process-local
_DNS_MASKS: dict[str, int] = {}  # staticcheck: process-local
_EMAIL_MASKS: dict[str, int] = {}  # staticcheck: process-local
_URI_MASKS: dict[str, int] = {}  # staticcheck: process-local
_XN_MASKS: dict[str, int] = {}  # staticcheck: process-local
#: Soft cap keeping a pathological corpus from growing any memo unboundedly.
_STRING_MEMO_MAX = 1 << 20

_CN_DOTTED = OID_COMMON_NAME.dotted


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
    (length thresholds, case).  Results are memoized per string, and per
    distinct character on the non-ASCII path.
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
    if len(_STRING_MASKS) < _STRING_MEMO_MAX:
        _STRING_MASKS[text] = mask
    return mask


def _dns_shape_mask(name: str) -> int:
    """Scan mask of one DNS name plus the four DNS shape bits."""
    mask = _DNS_MASKS.get(name)
    if mask is not None:
        return mask
    mask = scan_mask(name)
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
    if len(_DNS_MASKS) < _STRING_MEMO_MAX:
        _DNS_MASKS[name] = mask
    return mask


def _email_shape_mask(value: str) -> int:
    """Scan mask of one rfc822Name; SHAPE_BAD iff not local@domain."""
    mask = _EMAIL_MASKS.get(value)
    if mask is not None:
        return mask
    mask = scan_mask(value)
    if value.count("@") != 1 or value.startswith("@") or value.endswith("@"):
        mask |= _SHAPE_BAD
    if len(_EMAIL_MASKS) < _STRING_MEMO_MAX:
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
    if len(_URI_MASKS) < _STRING_MEMO_MAX:
        _URI_MASKS[value] = mask
    return mask


def _xn_label_mask(label: str) -> int:
    """Exact IDN-analysis bits of one A-label (memoized corpus-wide).

    Runs the same pure pipeline the four IDN lints interpret — one
    punycode decode, the IDNA2008 code-point check
    (:func:`repro.uni.idna.unpermitted_violations`, LDH labels only, as
    in :func:`repro.uni.idna.alabel_violations`), the NFC check, and one
    encode for the canonical round-trip — once per distinct label for
    the whole corpus.  Every bit is exact (fires iff the corresponding
    lint would fail on this label), so the fast path only falls back on
    labels that actually violate; ``SCOPE_NONEMPTY`` records
    decodability for the two lints that only apply to decodable labels.
    """
    mask = _XN_MASKS.get(label)
    if mask is not None:
        return mask
    from .helpers import decode_alabel

    _, ulabel, error = decode_alabel(label)
    if error is not None:
        mask = _XN_DECODE_BAD
    else:
        mask = SCOPE_NONEMPTY
        if is_ldh_label(label) and unpermitted_violations(ulabel):
            mask |= _XN_UNPERMITTED
        if not is_nfc(ulabel):
            mask |= _XN_NOT_NFC
        try:
            canonical = ulabel_to_alabel(ulabel, validate=False)
        except IDNAError:
            canonical = None
        if canonical is not None and canonical != label.lower():
            mask |= _XN_ROUNDTRIP_BAD
    if len(_XN_MASKS) < _STRING_MEMO_MAX:
        _XN_MASKS[label] = mask
    return mask


# ---------------------------------------------------------------------------
# Scopes: string sources on the certificate.  Each scope function receives
# the per-certificate ``masks`` memo, stores its own key (plus any sibling
# keys one walk can fill), and returns the scope's mask.
# ---------------------------------------------------------------------------


def _walk_side(cert, masks: dict, side: str) -> int:
    """One pass over a DN: whole-side, per-OID, and per-spec masks.

    Fills ``masks[side_key]``, ``masks[(side, oid.dotted)]`` for every
    present attribute OID, and the PrintableString/UTF8String partial
    masks the ``ps``/``utf8`` scopes assemble.  Sets ``DUP_OID`` when an
    OID repeats and (subject side) ``EXTRA_CN`` for >1 CommonName.
    """
    side_key = "subject" if side == "s" else "issuer"
    mask = masks.get(side_key)
    if mask is not None:
        return mask
    name_obj = cert.subject if side == "s" else cert.issuer
    mask = 0
    ps = 0
    u8 = 0
    cn_count = 0
    spec_bits = _SPEC_BITS
    for attr in name_obj.attributes():
        spec_name = attr.spec.name
        value = attr.value
        am = scan_mask(value) | spec_bits.get(spec_name, _SPEC_OTHER)
        if not attr.decode_ok:
            am |= DECODE_BAD
        elif spec_name == "UTF8String":
            u8 |= SCOPE_NONEMPTY
        if not value and not attr.raw:
            am |= _EMPTY_NORAW
        dotted = attr.oid.dotted
        oid_key = (side, dotted)
        prev = masks.get(oid_key)
        if prev is None:
            masks[oid_key] = am
        else:
            masks[oid_key] = prev | am
            mask |= _DUP_OID
        if spec_name == "PrintableString":
            ps |= am
        elif spec_name == "UTF8String":
            u8 |= am
        if dotted == _CN_DOTTED:
            cn_count += 1
        mask |= am
    if side == "s" and cn_count > 1:
        mask |= _EXTRA_CN
    masks[side_key] = mask
    masks["_ps_" + side] = ps
    masks["_u8_" + side] = u8
    return mask


def _scope_subject(cert, ctx, masks):
    return _walk_side(cert, masks, "s")


def _scope_issuer(cert, ctx, masks):
    return _walk_side(cert, masks, "i")


def _scope_dn(cert, ctx, masks):
    mask = _walk_side(cert, masks, "s") | _walk_side(cert, masks, "i")
    masks["dn"] = mask
    return mask


def _scope_ps(cert, ctx, masks):
    _walk_side(cert, masks, "s")
    _walk_side(cert, masks, "i")
    mask = masks["_ps_s"] | masks["_ps_i"]
    masks["ps"] = mask
    return mask


def _scope_utf8(cert, ctx, masks):
    _walk_side(cert, masks, "s")
    _walk_side(cert, masks, "i")
    mask = masks["_u8_s"] | masks["_u8_i"]
    masks["utf8"] = mask
    return mask


def _scope_dns(cert, ctx, masks):
    mask = 0
    for dns_name in ctx.all_dns_names():
        mask |= _dns_shape_mask(dns_name)
    masks["dns"] = mask
    return mask


def _scope_xn(cert, ctx, masks):
    mask = 0
    for label in ctx.xn_labels():
        mask |= _xn_label_mask(label)
    masks["xn"] = mask
    return mask


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


def _make_kind_scope(key: str, source: str, kind, value_fn):
    """Build the scope fn for one SAN/IAN GeneralName kind bucket."""

    def fn(cert, ctx, masks):
        names = ctx.san_names(kind) if source == "san" else ctx.ian_names(kind)
        mask = _gn_mask(names, value_fn)
        masks[key] = mask
        return mask

    return fn


def _get(scope, cert, ctx, masks):
    mask = masks.get(scope)
    if mask is None:
        mask = SCOPE_FNS[scope](cert, ctx, masks)
    return mask


def _scope_email_all(cert, ctx, masks):
    mask = _get("san_email", cert, ctx, masks) | _get("ian_email", cert, ctx, masks)
    masks["email_all"] = mask
    return mask


def _scope_uri_all(cert, ctx, masks):
    mask = _get("san_uri", cert, ctx, masks) | _get("ian_uri", cert, ctx, masks)
    masks["uri_all"] = mask
    return mask


def _scope_uris_scheme(cert, ctx, masks):
    mask = _get("uri_all", cert, ctx, masks)
    dps = cert.crl_distribution_points
    if dps is not None:
        uri_kind = GeneralNameKind.URI
        for point in dps.points:
            for gn in point.full_names:
                if gn.kind is uri_kind:
                    mask |= _uri_shape_mask(gn.value) | SCOPE_NONEMPTY
    masks["uris_scheme"] = mask
    return mask


def _scope_crldp(cert, ctx, masks):
    dps = cert.crl_distribution_points
    mask = 0
    if dps is not None:
        for point in dps.points:
            mask |= _gn_mask(point.full_names, scan_mask)
    masks["crldp"] = mask
    return mask


def _make_access_scope(key: str, attr: str):
    """Build the scope fn for AIA/SIA URI accessLocations."""

    def fn(cert, ctx, masks):
        ia = getattr(cert, attr)
        mask = 0
        if ia is not None:
            uri_kind = GeneralNameKind.URI
            for description in ia.descriptions:
                gn = description.location
                if gn.kind is uri_kind:
                    mask |= scan_mask(gn.value) | SCOPE_NONEMPTY
                    if not gn.decode_ok:
                        mask |= DECODE_BAD
        masks[key] = mask
        return mask

    return fn


def _scope_cp_text(cert, ctx, masks):
    policies = cert.policies
    mask = 0
    if policies is not None:
        texts = policies.explicit_texts
        if texts:
            mask = SCOPE_NONEMPTY
        for tag, text, ok in texts:
            mask |= scan_mask(text)
            if not ok:
                mask |= DECODE_BAD
            if tag == 22:
                mask |= _CP_TAG_IA5
            elif tag != 12:
                mask |= _CP_TAG_OTHER
    masks["cp_text"] = mask
    return mask


def _scope_cps_uris(cert, ctx, masks):
    policies = cert.policies
    mask = 0
    if policies is not None:
        uris = policies.cps_uris
        if uris:
            mask = SCOPE_NONEMPTY
        for uri in uris:
            mask |= scan_mask(uri)
    masks["cps_uris"] = mask
    return mask


def _scope_san_entries(cert, ctx, masks):
    san = cert.san
    mask = 0
    if san is not None:
        names = san.names
        if not names:
            mask |= _SAN_NO_NAMES
        dns_kind = GeneralNameKind.DNS_NAME
        email_kind = GeneralNameKind.RFC822_NAME
        uri_kind = GeneralNameKind.URI
        for gn in names:
            kind = gn.kind
            if kind is uri_kind:
                mask |= _SAN_HAS_URI
            if (
                kind is dns_kind or kind is email_kind or kind is uri_kind
            ) and gn.value == "":
                mask |= _SAN_EMPTY_ENTRY
    masks["san_entries"] = mask
    return mask


SCOPE_FNS = {
    "subject": _scope_subject,
    "issuer": _scope_issuer,
    "dn": _scope_dn,
    "ps": _scope_ps,
    "utf8": _scope_utf8,
    "dns": _scope_dns,
    "xn": _scope_xn,
    "san_dns": _make_kind_scope("san_dns", "san", GeneralNameKind.DNS_NAME, scan_mask),
    "san_email": _make_kind_scope(
        "san_email", "san", GeneralNameKind.RFC822_NAME, _email_shape_mask
    ),
    "san_uri": _make_kind_scope("san_uri", "san", GeneralNameKind.URI, _uri_shape_mask),
    "ian_dns": _make_kind_scope("ian_dns", "ian", GeneralNameKind.DNS_NAME, scan_mask),
    "ian_email": _make_kind_scope(
        "ian_email", "ian", GeneralNameKind.RFC822_NAME, _email_shape_mask
    ),
    "ian_uri": _make_kind_scope("ian_uri", "ian", GeneralNameKind.URI, _uri_shape_mask),
    "email_all": _scope_email_all,
    "uri_all": _scope_uri_all,
    "uris_scheme": _scope_uris_scheme,
    "crldp": _scope_crldp,
    "aia_uris": _make_access_scope("aia_uris", "aia"),
    "sia_uris": _make_access_scope("sia_uris", "sia"),
    "cp_text": _scope_cp_text,
    "cps_uris": _scope_cps_uris,
    "san_entries": _scope_san_entries,
}


def resolve_scope(scope, cert, ctx, masks: dict) -> int:
    """Compute (and memoize in ``masks``) one scope's mask for a cert.

    String scopes dispatch through :data:`SCOPE_FNS`; tuple scopes
    ``(side, oid_dotted)`` are per-OID DN buckets filled by the side
    walk (absent OIDs resolve to 0, though the family gate means the
    runner only asks for OIDs that are present).
    """
    fn = SCOPE_FNS.get(scope)
    if fn is not None:
        return fn(cert, ctx, masks)
    _walk_side(cert, masks, scope[0])
    mask = masks.get(scope)
    if mask is None:
        mask = masks[scope] = 0
    return mask


# ---------------------------------------------------------------------------
# Classification: map a registered lint to (scope, trigger, mode).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanSpec:
    """A compiled lint's kernel: scope, trigger atoms, applicability mode.

    ``mode`` is one of :data:`APPLIES_EXACT` (family check passing
    implies ``applies()`` True), :data:`APPLIES_NONEMPTY` (``applies()``
    equals the scope's ``SCOPE_NONEMPTY`` bit), or :data:`APPLIES_CALL`
    (fall back to calling ``applies()`` before emitting PASS).
    """

    scope: object
    atoms: tuple[str, ...]
    mode: int = APPLIES_EXACT

    def trigger(self) -> int:
        """The spec's atom bits as one trigger mask."""
        mask = 0
        for atom in self.atoms:
            mask |= BIT_BY_NAME[atom]
        return mask


#: ``dn_charset_lint`` predicates -> trigger atoms, keyed by the resolved
#: predicate function's (module, qualname).
_DN_PREDICATE_ATOMS = {
    ("repro.lint.character", "_control_char_violation"): ("CONTROL",),
    ("repro.lint.character", "_leading_ws"): ("WHITESPACE",),
    ("repro.lint.character", "_trailing_ws"): ("WHITESPACE",),
    ("repro.lint.character", "_del_char"): ("DEL",),
    ("repro.lint.character", "_replacement_char"): ("REPLACEMENT",),
    ("repro.lint.character", "_bidi_control"): ("BIDI",),
    ("repro.lint.character", "_invisible"): ("INVISIBLE_NON_BIDI",),
    ("repro.lint.character", "_noncharacter"): ("NONCHARACTER",),
    ("repro.lint.character", "_mixed_script"): ("CONFUSABLE",),
}

#: Directly registered check functions -> kernels, keyed by (module,
#: qualname).  Every trigger is a *necessary* condition for the check to
#: fail (see the per-atom derivations in DESIGN.md §12).
_CHECK_SPECS = {
    # -- character.py ------------------------------------------------------
    ("repro.lint.character", "_badalpha_check"): ScanSpec(
        "ps", ("NON_PRINTABLESTRING", "DECODE_BAD")
    ),
    ("repro.lint.character", "_check_label_charset"): ScanSpec("dns", ("NON_LDH",)),
    ("repro.lint.character", "_check_dns_whitespace"): ScanSpec(
        "dns", ("WHITESPACE",)
    ),
    ("repro.lint.character", "_check_idn_decodable"): ScanSpec(
        "xn", ("XN_DECODE_BAD",)
    ),
    ("repro.lint.character", "_check_idn_permitted"): ScanSpec(
        "xn", ("XN_UNPERMITTED",)
    ),
    ("repro.lint.character", "_check_email_controls"): ScanSpec(
        "email_all", ("CONTROL",)
    ),
    ("repro.lint.character", "_check_uri_controls"): ScanSpec(
        "uri_all", ("CONTROL",)
    ),
    ("repro.lint.character", "_check_crldp_controls"): ScanSpec(
        "crldp", ("CONTROL",), mode=APPLIES_NONEMPTY
    ),
    ("repro.lint.character", "_check_cp_text_controls"): ScanSpec(
        "cp_text", ("CONTROL",), mode=APPLIES_NONEMPTY
    ),
    # -- normalization.py --------------------------------------------------
    ("repro.lint.normalization", "_check_utf8_nfc"): ScanSpec(
        "utf8", ("NON_ASCII", "DECODE_BAD"), mode=APPLIES_NONEMPTY
    ),
    ("repro.lint.normalization", "_check_ulabel_nfc"): ScanSpec(
        "xn", ("XN_NOT_NFC",), mode=APPLIES_NONEMPTY
    ),
    ("repro.lint.normalization", "_check_alabel_roundtrip"): ScanSpec(
        "xn", ("XN_ROUNDTRIP_BAD",), mode=APPLIES_NONEMPTY
    ),
    # -- format.py ---------------------------------------------------------
    ("repro.lint.format", "_check_country_two_letter"): ScanSpec(
        ("s", "2.5.4.6"), ("LEN_NE_2",)
    ),
    ("repro.lint.format", "_check_country_uppercase"): ScanSpec(
        ("s", "2.5.4.6"), ("NOT_UPPER",)
    ),
    ("repro.lint.format", "_check_label_length"): ScanSpec(
        "dns", ("DNS_LABEL_GT_63",)
    ),
    ("repro.lint.format", "_check_name_length"): ScanSpec(
        "dns", ("DNS_NAME_GT_253",)
    ),
    ("repro.lint.format", "_check_empty_label"): ScanSpec(
        "dns", ("DNS_EMPTY_LABEL",)
    ),
    ("repro.lint.format", "_check_hyphen_edges"): ScanSpec(
        "dns", ("DNS_HYPHEN_EDGE",)
    ),
    ("repro.lint.format", "_check_port_or_path"): ScanSpec(
        "san_dns", ("COLON_OR_SLASH",)
    ),
    ("repro.lint.format", "_check_email_shape"): ScanSpec(
        "email_all", ("SHAPE_BAD",)
    ),
    ("repro.lint.format", "_check_uri_scheme"): ScanSpec(
        "uris_scheme", ("SHAPE_BAD",), mode=APPLIES_NONEMPTY
    ),
    ("repro.lint.format", "_check_empty_attr"): ScanSpec(
        "subject", ("EMPTY_NORAW",)
    ),
    ("repro.lint.format", "_check_empty_san"): ScanSpec(
        "san_entries", ("SAN_EMPTY_ENTRY", "SAN_NO_NAMES")
    ),
    ("repro.lint.format", "_check_text_length"): ScanSpec(
        "cp_text", ("LEN_GT_200",), mode=APPLIES_NONEMPTY
    ),
    # -- encoding.py -------------------------------------------------------
    ("repro.lint.encoding", "_check_explicit_text_not_utf8"): ScanSpec(
        "cp_text", ("CP_TAG_OTHER",), mode=APPLIES_NONEMPTY
    ),
    ("repro.lint.encoding", "_check_explicit_text_ia5"): ScanSpec(
        "cp_text", ("CP_TAG_IA5",), mode=APPLIES_NONEMPTY
    ),
    ("repro.lint.encoding", "_check_cps_uri_ia5"): ScanSpec(
        "cps_uris", ("NON_ASCII",), mode=APPLIES_NONEMPTY
    ),
    ("repro.lint.encoding", "_check_rfc822_ascii_local"): ScanSpec(
        "email_all", ("NON_ASCII",)
    ),
    ("repro.lint.encoding", "_check_dn_decodable"): ScanSpec("dn", ("DECODE_BAD",)),
    # -- structure.py ------------------------------------------------------
    ("repro.lint.structure", "_check_duplicate_attrs"): ScanSpec(
        "subject", ("DUP_OID",)
    ),
    ("repro.lint.structure", "_check_extra_cn"): ScanSpec("subject", ("EXTRA_CN",)),
    ("repro.lint.structure", "_check_san_uri"): ScanSpec(
        "san_entries", ("SAN_HAS_URI",)
    ),
}

#: SAN GeneralName kinds the ``_make_san_unpermitted_lint`` factory is
#: compiled for.
_SAN_SCOPES = {
    GeneralNameKind.DNS_NAME: "san_dns",
    GeneralNameKind.RFC822_NAME: "san_email",
    GeneralNameKind.URI: "san_uri",
}

#: ``gn_ia5_encoding_lint`` extractor call targets -> per-kind scopes.
_GN_KIND_SCOPES = {
    "san_names": {
        GeneralNameKind.DNS_NAME: "san_dns",
        GeneralNameKind.RFC822_NAME: "san_email",
        GeneralNameKind.URI: "san_uri",
    },
    "ian_names": {
        GeneralNameKind.DNS_NAME: "ian_dns",
        GeneralNameKind.RFC822_NAME: "ian_email",
        GeneralNameKind.URI: "ian_uri",
    },
}


def _fn_key(fn) -> tuple[str, str]:
    return (getattr(fn, "__module__", ""), getattr(fn, "__qualname__", ""))


def _spec_trigger(allowed_names) -> tuple[str, ...] | None:
    """Trigger atoms for "spec must be one of ``allowed_names``" lints.

    The trigger is every spec-presence bit *outside* the allowed set
    plus ``SPEC_OTHER``.  If an allowed name has no dedicated bit it
    would alias into ``SPEC_OTHER`` and the trigger would over-kill
    legitimate failures' complement — unsound — so such lints are
    declared unclassifiable instead.
    """
    if not set(allowed_names) <= set(_SPEC_NAMES):
        return None
    atoms = tuple(
        "SPEC_" + name for name in _SPEC_NAMES if name not in allowed_names
    ) + ("SPEC_OTHER",)
    return atoms


_SOURCE_INDEX = None  # staticcheck: process-local


def _classify_gn_extractor(extractor) -> ScanSpec | None:
    """Resolve a ``gn_ia5_encoding_lint`` extractor to its scope.

    Named extractors key directly; the module-level lambdas are resolved
    through the staticcheck AST machinery — the lambda body must be a
    single call whose callee and kind argument resolve statically
    (``san_names(cert, GeneralNameKind.X)``, ``_uri_names(cert.aia)``).
    """
    global _SOURCE_INDEX
    key = _fn_key(extractor)
    if key == ("repro.lint.encoding", "_crldp_uris"):
        return ScanSpec("crldp", ("NON_ASCII", "DECODE_BAD"), mode=APPLIES_NONEMPTY)
    code = getattr(extractor, "__code__", None)
    if code is None:
        return None
    from ..staticcheck.resolve import SourceIndex, callable_env, resolve_expr

    if _SOURCE_INDEX is None:
        _SOURCE_INDEX = SourceIndex()
    node = _SOURCE_INDEX.function_node(code)
    if node is None or not isinstance(node, ast.Lambda):
        return None
    body = node.body
    if not isinstance(body, ast.Call) or body.keywords or len(body.args) not in (1, 2):
        return None
    params = frozenset(arg.arg for arg in node.args.args)
    env = callable_env(extractor)
    callee, ok = resolve_expr(body.func, env, blocked=params)
    if not ok:
        return None
    callee_key = _fn_key(callee)
    if callee_key in (
        ("repro.lint.helpers", "san_names"),
        ("repro.lint.helpers", "ian_names"),
    ):
        if len(body.args) != 2 or not isinstance(body.args[0], ast.Name):
            return None
        kind, ok = resolve_expr(body.args[1], env, blocked=params)
        if not ok:
            return None
        scope = _GN_KIND_SCOPES[callee_key[1]].get(kind)
        if scope is None:
            return None
        return ScanSpec(scope, ("NON_ASCII", "DECODE_BAD"))
    if callee_key == ("repro.lint.encoding", "_uri_names"):
        arg = body.args[0]
        if (
            len(body.args) == 1
            and isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and arg.value.id in params
            and arg.attr in ("aia", "sia")
        ):
            return ScanSpec(
                arg.attr + "_uris", ("NON_ASCII", "DECODE_BAD"), mode=APPLIES_NONEMPTY
            )
    return None


def classify_lint(lint) -> ScanSpec | None:
    """Resolve one lint to its kernel, or ``None`` when unclassifiable.

    Factory-made lints are unpacked through the staticcheck resolution
    machinery (:func:`repro.staticcheck.resolve.callable_env` reads the
    closure cells; :class:`repro.staticcheck.resolve.SourceIndex`
    resolves extractor lambdas), so the classification keys on the
    *underlying* predicate functions, not on lint names — a renamed or
    newly registered lint built from a known predicate compiles
    automatically, while an unknown predicate falls through to the
    interpreted path.
    """
    if not isinstance(lint, FunctionLint):
        return None
    check = lint._check
    spec = _CHECK_SPECS.get(_fn_key(check))
    if spec is not None:
        return spec
    module, qualname = _fn_key(check)
    if module == "repro.lint.helpers" and qualname == "dn_charset_lint.<locals>.check":
        from ..staticcheck.resolve import callable_env

        env = callable_env(check)
        predicate = env.get("predicate")
        issuer = env.get("issuer")
        if predicate is None or not isinstance(issuer, bool):
            return None
        if _fn_key(predicate) == (
            "repro.lint.helpers",
            "dn_charset_lint.<locals>.<lambda>",
        ):
            predicate = callable_env(predicate).get("value_predicate")
            if predicate is None:
                return None
        atoms = _DN_PREDICATE_ATOMS.get(_fn_key(predicate))
        if atoms is None:
            return None
        return ScanSpec("issuer" if issuer else "subject", atoms)
    if (
        module == "repro.lint.character"
        and qualname == "_make_san_unpermitted_lint.<locals>.check"
    ):
        from ..staticcheck.resolve import callable_env

        scope = _SAN_SCOPES.get(callable_env(check).get("kind"))
        if scope is None:
            return None
        return ScanSpec(scope, ("NON_VISIBLE_ASCII", "DECODE_BAD"))
    if module == "repro.lint.format" and qualname == "_make_length_lint.<locals>.check":
        from ..staticcheck.resolve import callable_env

        env = callable_env(check)
        oid = env.get("oid")
        maximum = env.get("maximum")
        atom = {64: "LEN_GT_64", 128: "LEN_GT_128", 200: "LEN_GT_200"}.get(maximum)
        if oid is None or atom is None:
            return None
        return ScanSpec(("s", oid.dotted), (atom,))
    if module == "repro.lint.helpers" and qualname == "dn_encoding_lint.<locals>.check":
        from ..staticcheck.resolve import callable_env

        env = callable_env(check)
        oid = env.get("oid")
        extractor = env.get("extractor")
        side = {
            ("repro.lint.helpers", "subject_attrs"): "s",
            ("repro.lint.helpers", "issuer_attrs"): "i",
        }.get(_fn_key(extractor))
        atoms = _spec_trigger(env.get("allowed_names") or ())
        if oid is None or side is None or atoms is None:
            return None
        return ScanSpec((side, oid.dotted), atoms)
    if (
        module == "repro.lint.encoding"
        and qualname == "_make_deprecated_type_lint.<locals>.check"
    ):
        from ..staticcheck.resolve import callable_env

        env = callable_env(check)
        type_name = env.get("type_name")
        issuer = env.get("issuer")
        if type_name not in _SPEC_BITS or not isinstance(issuer, bool):
            return None
        return ScanSpec("issuer" if issuer else "subject", ("SPEC_" + type_name,))
    if (
        module == "repro.lint.helpers"
        and qualname == "gn_ia5_encoding_lint.<locals>.check"
    ):
        from ..staticcheck.resolve import callable_env

        extractor = callable_env(check).get("extractor")
        if extractor is None:
            return None
        return _classify_gn_extractor(extractor)
    return None


# ---------------------------------------------------------------------------
# The compiled plan threaded through RegistryIndex / runner / workers.
# ---------------------------------------------------------------------------


class CompiledPlan:
    """Registration-ordered dispatch rows for one lint schedule.

    ``entries`` aligns with ``RegistryIndex.entries``: one row per lint,
    ``(lint, families, scope, trigger, mode)``.  Uncompiled rows carry
    ``scope=None`` and take the interpreted path, so result order is
    exactly the interpreted order.
    """

    __slots__ = ("entries", "compiled_names", "uncompiled_names", "resolve_scope")

    def __init__(self, lints):
        rows = []
        compiled = []
        uncompiled = []
        for lint in lints:
            spec = classify_lint(lint)
            if spec is None:
                rows.append((lint, lint.families, None, 0, APPLIES_CALL))
                uncompiled.append(lint.metadata.name)
            else:
                rows.append(
                    (lint, lint.families, spec.scope, spec.trigger(), spec.mode)
                )
                compiled.append(lint.metadata.name)
        self.entries = tuple(rows)
        self.compiled_names = frozenset(compiled)
        self.uncompiled_names = frozenset(uncompiled)
        self.resolve_scope = resolve_scope


def compile_plan(lints) -> CompiledPlan:
    """Classify every lint of a schedule into a :class:`CompiledPlan`."""
    return CompiledPlan(lints)


# ---------------------------------------------------------------------------
# Disable switch (mirrors repro.x509.cache.caching_disabled).
# ---------------------------------------------------------------------------

_disable_depth = 0


def compiling_enabled() -> bool:
    """Whether the compiled dispatch path is active (default True)."""
    return _disable_depth == 0


@contextmanager
def compiling_disabled():
    """Context manager pinning the interpreted dispatch path.

    Re-entrant, mirroring :func:`repro.x509.cache.caching_disabled`; the
    ``--no-compile`` CLI flag and the service knob use the same switch
    per call instead.
    """
    global _disable_depth
    _disable_depth += 1
    try:
        yield
    finally:
        _disable_depth -= 1


def warm_default_plan(stats=None):
    """Build (once) the compiled plan for the default registry schedule.

    Called at engine/pool/service warm-up so plan compilation happens
    before certificates flow — pre-fork for COW sharing, and timed into
    the ``compile`` stage of ``stats`` when a build actually runs.
    """
    from .framework import REGISTRY, index_for

    if not compiling_enabled():
        return None
    index = index_for(REGISTRY.snapshot())
    if index._compiled_plan is not None or stats is None:
        return index.compiled_plan()
    with stats.time("compile", items=1):
        return index.compiled_plan()


#: Registered lints reviewed as *not* compilable into scan kernels: the
#: SmtpUTF8Mailbox lints need per-name DER re-parsing or fail on the
#: *absence* of non-ASCII, and CN-in-SAN needs cross-field case-folded
#: IDN matching.  The kernel-coverage staticcheck fails when a
#: registered lint is neither classified nor listed here, so silently
#: losing compiled coverage on a new char-class lint is impossible.
UNCOMPILED_MANIFEST = frozenset(
    {
        "e_smtp_utf8_mailbox_not_utf8string",
        "e_smtp_utf8_mailbox_ascii_only",
        "e_smtp_utf8_mailbox_not_nfc",
        "w_cab_subject_common_name_not_in_san",
    }
)
