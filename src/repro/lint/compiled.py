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
* at lint time each scope's strings are walked **once**, computing an
  N-bit membership mask per string via a fused interval table (one
  bisect per distinct character, memoized corpus-wide per string);
* a compiled lint whose trigger bits don't fire on its scope mask is
  proven compliant and emits ``PASS`` without running its check; when a
  bit fires the lint's own check runs unchanged, so details stay
  byte-identical;
* those settled outcomes are memoized as verdict templates keyed by the
  certificate's family signature and its scope masks
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
from typing import NamedTuple

from ..asn1.oid import OID_COMMON_NAME, OID_ON_SMTP_UTF8_MAILBOX
from ..memo import ProcessMemo
from ..uni import punycode
from ..uni.dns import is_ldh_label, is_xn_label
from ..uni.idna import alabel_roundtrip_mismatch, has_unpermitted
from ..uni.normalization import is_nfc
from ..uni.errors import PunycodeError
from ..uni.intervals import ATOM_BITS, ATOM_INTERVALS
from ..x509.general_name import GeneralNameKind
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
_DNS_MASKS = ProcessMemo(_STRING_MEMO_MAX)
_EMAIL_MASKS = ProcessMemo(_STRING_MEMO_MAX)
_URI_MASKS = ProcessMemo(_STRING_MEMO_MAX)
_XN_MASKS = ProcessMemo(_STRING_MEMO_MAX)

#: Entry cap of each content-keyed memo; a full memo flushes.
_CONTENT_MEMO_MAX = 1 << 14
#: Issuer-side DN walks keyed by the issuer DN as received:
#: ``(mask entries, family keys)``, both immutable (see :func:`_walk_side`).
_ISSUER_WALKS = ProcessMemo(_CONTENT_MEMO_MAX)
#: Extension payload facts keyed by ``(slot, value_der)``:
#: ``(decodes, mask entries)`` (see :func:`walk_payloads`).
_PAYLOADS = ProcessMemo(_CONTENT_MEMO_MAX)

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
    (length thresholds, case, whitespace at either end, and NFC, asked
    only of non-ASCII text since ASCII is always NFC).  Results are
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


# ---------------------------------------------------------------------------
# Scopes: string sources on the certificate.  :func:`walk_fields` builds
# the family signature and fills the per-certificate ``masks`` memo with
# the DN, payload and GeneralName entries; each scope function then reads
# that memo, stores its own key, and returns the scope's mask.
# ---------------------------------------------------------------------------

# Family keys of the signature.  A certificate's present-family set is
# compared against the families each lint's scope gives (:data:`SCOPES`).
# Beside these names, a DN attribute of OID ``oid`` gives
# ``("s", oid.dotted)``/``("i", ...)``, its declared string type
# ``("spec", type_name)``, and a SAN/IAN GeneralName of kind ``k`` gives
# ``("san", int(k))``/``("ian", ...)``.
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


def all_dns_names(cert) -> list[str]:
    """Distinct DNSNames in SAN plus DNS-shaped CommonNames, in order."""
    san = cert.san
    return _dns_names(
        san.dns_names() if san is not None else [], cert.subject_common_names
    )


def _dns_names(san_dns: list[str], common_names) -> list[str]:
    """:func:`all_dns_names` from the SAN's DNSNames and the subject CNs."""
    names = list(san_dns)
    for cn in common_names:
        if "." in cn and " " not in cn and "@" not in cn:
            names.append(cn)
    # A CN repeated in the SAN (the CA/B-mandated layout) must not yield
    # the name twice — per-name lint messages would double-count it.
    return list(dict.fromkeys(names))


def _alabels(dns_names) -> list[str]:
    return [
        label
        for dns_name in dns_names
        for label in dns_name.split(".")
        if is_xn_label(label)
    ]


def xn_labels(cert) -> list[str]:
    """All ``xn--`` (A-label) DNS labels across the cert's DNS names."""
    return _alabels(all_dns_names(cert))


def _walk_side(cert, masks: dict, side: str, families: set) -> None:
    """One pass over a DN: whole-side, per-OID, and per-spec masks.

    Fills ``masks[side_key]``, ``masks[(side, oid.dotted)]`` for every
    present attribute OID, and the PrintableString/UTF8String partial
    masks the ``ps``/``utf8`` scopes assemble.  Sets ``DUP_OID`` when an
    OID repeats and, on the subject's CommonName bucket, ``EXTRA_CN``
    for >1 CommonName; the subject's CommonName values, in order, go to
    ``masks["_cns"]``.  Adds the side's family keys to ``families``.

    The issuer side of a parsed certificate is a function of its
    received bytes, so its entries and family keys come from
    :data:`_ISSUER_WALKS`; on a hit the issuer ``Name`` is not read.
    """
    if side == "s":
        _walk_name(cert.subject, masks, side, families)
        return
    der = cert._issuer_der
    if der is None:  # built, or ``issuer`` reassigned
        _walk_name(cert.issuer, masks, side, families)
        return
    walked = _ISSUER_WALKS.get(der)
    if walked is None:
        side_masks: dict = {}
        side_families: set = set()
        _walk_name(cert.issuer, side_masks, side, side_families)
        walked = (tuple(side_masks.items()), frozenset(side_families))
        _ISSUER_WALKS[der] = walked
    masks.update(walked[0])
    families.update(walked[1])


def _walk_name(name_obj, masks: dict, side: str, families: set) -> None:
    """The DN walk of :func:`_walk_side` over one decoded ``Name``."""
    mask = 0
    ps = 0
    u8 = 0
    common_names = []
    spec_bits = _SPEC_BITS
    attrs = name_obj.attributes()
    # ``s*``/``i*`` mirror ``not name.is_empty``, the DN lints' applies():
    # a DN of empty RDNs has no attributes yet is not empty.
    if name_obj.rdns:
        families.add(FAMILY_SUBJECT_ANY if side == "s" else FAMILY_ISSUER_ANY)
    for attr in attrs:
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
        families.add(oid_key)
        families.add(("spec", spec_name))
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
            common_names.append(value)
        mask |= am
    if side == "s":
        if len(common_names) > 1:
            masks[(side, _CN_DOTTED)] |= _EXTRA_CN
        masks["_cns"] = common_names
    masks["subject" if side == "s" else "issuer"] = mask
    masks["_ps_" + side] = ps
    masks["_u8_" + side] = u8


def walk_fields(cert, masks: dict) -> frozenset:
    """The certificate's family signature; fills ``masks`` on the way.

    Each field is walked once for both the signature and the scope
    masks: both DNs and the CA payload slots fill their mask entries
    and family keys, and one loop over each of the SAN and the IAN
    buckets its GeneralNames by kind (``masks["_san"]``/
    ``masks["_ian"]``: kind -> names) and adds the kinds' family keys;
    ``masks["_san_names"]`` keeps the SAN's names (``None`` when no SAN
    decodes), so no scope reads ``cert.san`` again.
    The DNS-name list and its A-labels (``masks["_dns_names"]``/
    ``masks["_xn_labels"]``) give the ``dns``/``xn`` families.  The
    scope functions read these entries, so ``masks`` must start empty
    for the run and pass through here before :func:`resolve_scope`.
    """
    present: set = set()
    _walk_side(cert, masks, "s", present)
    _walk_side(cert, masks, "i", present)
    walk_payloads(cert, masks, present)
    for source, family, general_names in (
        ("san", FAMILY_SAN_PRESENT, cert.san),
        ("ian", FAMILY_IAN_PRESENT, cert.ian),
    ):
        by_kind: dict = {}
        if general_names is not None:
            present.add(family)
            names = general_names.names
            for gn in names:
                bucket = by_kind.get(gn.kind)
                if bucket is None:
                    by_kind[gn.kind] = [gn]
                else:
                    bucket.append(gn)
            for kind in by_kind:
                present.add((source, int(kind)))
            if source == "san":
                masks["_san_names"] = names
        elif source == "san":
            masks["_san_names"] = None
        masks["_" + source] = by_kind
    dns_names = masks["_dns_names"] = _dns_names(
        [gn.value for gn in masks["_san"].get(_DNS_KIND, ())], masks["_cns"]
    )
    labels = masks["_xn_labels"] = _alabels(dns_names)
    if dns_names:
        present.add(FAMILY_DNS)
        if labels:
            present.add(FAMILY_XN)
    return frozenset(present)


def _aia_entries(aia) -> tuple:
    return (("aia_uris", _access_mask(aia)),)


def _sia_entries(sia) -> tuple:
    return (("sia_uris", _access_mask(sia)),)


def _access_mask(ia) -> int:
    """The URI accessLocations of an AIA/SIA view."""
    mask = 0
    if ia is not None:
        uri_kind = GeneralNameKind.URI
        for description in ia.descriptions:
            gn = description.location
            if gn.kind is uri_kind:
                mask |= scan_mask(gn.value) | SCOPE_NONEMPTY
                if not gn.decode_ok:
                    mask |= DECODE_BAD
    return mask


def _crldp_entries(dps) -> tuple:
    """The ``crldp`` mask and the CRLDP half of ``uris_scheme``."""
    mask = 0
    uris = 0
    if dps is not None:
        uri_kind = GeneralNameKind.URI
        for point in dps.points:
            mask |= _gn_mask(point.full_names, scan_mask)
            for gn in point.full_names:
                if gn.kind is uri_kind:
                    uris |= _uri_shape_mask(gn.value) | SCOPE_NONEMPTY
    return (("crldp", mask), ("_uris_crldp", uris))


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


#: The CA-stamped payload slots: extension OID -> (slot, presence
#: family, view -> mask entries).
_PAYLOAD_SLOTS = {
    VIEWS[slot][0].dotted: (slot, family, entries)
    for slot, family, entries in (
        ("aia", FAMILY_AIA, _aia_entries),
        ("sia", FAMILY_SIA, _sia_entries),
        ("crldp", FAMILY_CRLDP, _crldp_entries),
        ("cp", FAMILY_CP, _cp_entries),
    )
}
#: Every mask key a payload walk fills, zero while its slot is absent.
_PAYLOAD_ZEROS = {
    "aia_uris": 0,
    "sia_uris": 0,
    "crldp": 0,
    "_uris_crldp": 0,
    "cp_text": 0,
    "cps_uris": 0,
}


def walk_payloads(cert, masks: dict, families: set) -> None:
    """Fill the AIA/SIA/CRLDP/CP scope masks; collect presence families.

    One pass over ``cert.extensions`` finds each slot's extension (the
    first per OID, as :meth:`Certificate.get_extension` does).  Whether
    its payload decodes and the slot's masks are a function of the
    payload bytes, kept in :data:`_PAYLOADS`, so the view is decoded
    only on a miss (or when a lint or accessor reads it).
    """
    masks.update(_PAYLOAD_ZEROS)
    found: dict = {}
    slots = _PAYLOAD_SLOTS
    for ext in cert.extensions:
        entry = slots.get(ext.oid.dotted)
        if entry is not None and entry[0] not in found:
            found[entry[0]] = (entry, ext.value_der)
    for (slot, family, entries), value_der in found.values():
        key = (slot, value_der)
        record = _PAYLOADS.get(key)
        if record is None:
            view = cert._view(slot)[0]
            record = _PAYLOADS[key] = (view is not None, entries(view))
        decodes, slot_masks = record
        masks.update(slot_masks)
        if decodes:
            families.add(family)


def _filled(key: str):
    """The scope fn of a mask key :func:`walk_fields` always fills."""

    def fn(cert, masks):
        return masks[key]

    return fn


def _scope_dns(cert, masks):
    mask = 0
    for dns_name in masks["_dns_names"]:
        mask |= _dns_shape_mask(dns_name)
    masks["dns"] = mask
    return mask


def _scope_xn(cert, masks):
    mask = 0
    for label in masks["_xn_labels"]:
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


def _kind_scope(key: str, source: str, kind, value_fn):
    """The scope fn and family of one SAN/IAN GeneralName kind bucket."""
    bucket = "_" + source

    def fn(cert, masks):
        mask = masks[key] = _gn_mask(masks[bucket].get(kind), value_fn)
        return mask

    return fn, {(source, int(kind))}


def _get(scope, cert, masks):
    mask = masks.get(scope)
    if mask is None:
        mask = SCOPES[scope][0](cert, masks)
    return mask


def _union(key: str, left: str, right: str):
    """The scope fn of ``left | right``: scopes or filled mask keys."""

    def fn(cert, masks):
        mask = masks[key] = _get(left, cert, masks) | _get(right, cert, masks)
        return mask

    return fn


def _scope_san_entries(cert, masks):
    names = masks["_san_names"]
    mask = 0
    if names is not None:
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


def _scope_cn_san(cert, masks):
    """``CN_NOT_IN_SAN`` unless every subject CN is a verbatim SAN value.

    A verbatim member is the first thing the CN-in-SAN check accepts, so
    a clear bit proves it passes; only a CN that needs the case-folded
    or IDNA comparison (or has no match) runs the check.
    """
    names = masks["_san_names"]
    values = [gn.value for gn in names] if names is not None else []
    mask = 0
    for cn in masks["_cns"]:
        if cn not in values:
            mask = _CN_NOT_IN_SAN
            break
    masks["cn_san"] = mask
    return mask


def _scope_smtp(cert, masks):
    """The SmtpUTF8Mailbox otherName values of the SAN and the IAN."""
    mask = 0
    kind = GeneralNameKind.OTHER_NAME
    for by_kind in (masks["_san"], masks["_ian"]):
        for gn in by_kind.get(kind, ()):
            if gn.other_name_oid == OID_ON_SMTP_UTF8_MAILBOX:
                mask |= scan_mask(gn.value) | SCOPE_NONEMPTY
    masks["smtp"] = mask
    return mask


_EMAIL_KIND = GeneralNameKind.RFC822_NAME
_URI_KIND = GeneralNameKind.URI
_OTHER_NAME = int(GeneralNameKind.OTHER_NAME)
_SAN_EMAIL, _IAN_EMAIL = ("san", int(_EMAIL_KIND)), ("ian", int(_EMAIL_KIND))
_SAN_URI, _IAN_URI = ("san", int(_URI_KIND)), ("ian", int(_URI_KIND))

#: Every named scope: ``(walker, family keys)``.  The family keys are
#: the certificate fields a scoped lint can apply to: a row is live only
#: on a certificate whose family signature (:func:`walk_fields`) holds
#: one of them, and ``None`` makes it live on every certificate.  A
#: tuple scope ``(side, oid_dotted)`` is not listed: it is its own
#: family key.
SCOPES = {
    name: (fn, None if keys is None else frozenset(keys))
    for name, (fn, keys) in {
        "subject": (_filled("subject"), {FAMILY_SUBJECT_ANY}),
        "issuer": (_filled("issuer"), {FAMILY_ISSUER_ANY}),
        "dn": (_union("dn", "subject", "issuer"), None),
        "ps": (_union("ps", "_ps_s", "_ps_i"), {("spec", "PrintableString")}),
        "utf8": (_union("utf8", "_u8_s", "_u8_i"), {("spec", "UTF8String")}),
        "dns": (_scope_dns, {FAMILY_DNS}),
        "xn": (_scope_xn, {FAMILY_XN}),
        "san_dns": _kind_scope("san_dns", "san", _DNS_KIND, scan_mask),
        "san_email": _kind_scope("san_email", "san", _EMAIL_KIND, _email_shape_mask),
        "san_uri": _kind_scope("san_uri", "san", _URI_KIND, _uri_shape_mask),
        "ian_dns": _kind_scope("ian_dns", "ian", _DNS_KIND, scan_mask),
        "ian_email": _kind_scope("ian_email", "ian", _EMAIL_KIND, _email_shape_mask),
        "ian_uri": _kind_scope("ian_uri", "ian", _URI_KIND, _uri_shape_mask),
        "email_all": (
            _union("email_all", "san_email", "ian_email"),
            {_SAN_EMAIL, _IAN_EMAIL},
        ),
        "uri_all": (_union("uri_all", "san_uri", "ian_uri"), {_SAN_URI, _IAN_URI}),
        "uris_scheme": (
            _union("uris_scheme", "uri_all", "_uris_crldp"),
            {FAMILY_CRLDP, _SAN_URI, _IAN_URI},
        ),
        "crldp": (_filled("crldp"), {FAMILY_CRLDP}),
        "aia_uris": (_filled("aia_uris"), {FAMILY_AIA}),
        "sia_uris": (_filled("sia_uris"), {FAMILY_SIA}),
        "cp_text": (_filled("cp_text"), {FAMILY_CP}),
        "cps_uris": (_filled("cps_uris"), {FAMILY_CP}),
        "san_entries": (_scope_san_entries, {FAMILY_SAN_PRESENT}),
        "cn_san": (_scope_cn_san, {("s", _CN_DOTTED)}),
        "smtp": (_scope_smtp, {("san", _OTHER_NAME), ("ian", _OTHER_NAME)}),
    }.items()
}


def resolve_scope(scope, cert, masks: dict) -> int:
    """Compute (and memoize in ``masks``) one scope's mask for a cert.

    ``masks`` is the memo :func:`walk_fields` filled for ``cert``.
    Named scopes dispatch through :data:`SCOPES`; tuple scopes
    ``(side, oid_dotted)`` are the per-OID DN buckets of that walk
    (absent OIDs resolve to 0, though the family gate means the runner
    only asks for OIDs that are present).
    """
    entry = SCOPES.get(scope)
    if entry is not None:
        return entry[0](cert, masks)
    return masks.setdefault(scope, 0)


# ---------------------------------------------------------------------------
# Kernels: each lint declares its (scope, trigger, mode) where it is
# registered; the plan reads ``lint.scan``.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanSpec:
    """A lint's kernel and applicability: scope, trigger atoms, mode.

    ``mode`` is :data:`APPLIES_EXACT` (``applies()`` is True whenever the
    scope's families are present) or :data:`APPLIES_NONEMPTY` (it also
    needs the scope's ``SCOPE_NONEMPTY`` bit).  ``trigger`` is the
    atoms' bits as one mask; ``families`` comes from the scope's
    :data:`SCOPES` entry (a tuple scope is its own family key).  An
    unknown scope, atom name or mode raises ``ValueError``, so a typo
    fails at ``import repro.lint`` (an unknown scope would otherwise
    resolve to an empty mask and the lint would always PASS).
    """

    scope: object
    atoms: tuple[str, ...]
    mode: int = APPLIES_EXACT
    trigger: int = field(init=False, repr=False)
    families: frozenset | None = field(init=False, repr=False)

    def __post_init__(self):
        scope = self.scope
        entry = SCOPES.get(scope)
        if entry is not None:
            families = entry[1]
        elif isinstance(scope, tuple) and len(scope) == 2 and scope[0] in ("s", "i"):
            families = frozenset({scope})
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
#: refills.  Both memos full cost about 18 MiB (a live-row set ~3.4 KiB
#: with its signature, a template ~1.2 KiB).
_TEMPLATE_MEMO_MAX = 1 << 12


class LiveRows(NamedTuple):
    """The rows of a plan that a family signature leaves live.

    ``rows`` holds the plan's own ``entries`` rows that stay live, in
    registration order (shared, not copied).  ``scope_bits`` pairs each
    distinct live scope (first-use order) with the bits its rows read:
    their triggers, plus ``SCOPE_NONEMPTY`` when an ``APPLIES_NONEMPTY``
    row uses the scope.
    """

    signature: frozenset
    rows: tuple
    scope_bits: tuple


class Template(NamedTuple):
    """A memoized report skeleton for one (signature, scope masks) key.

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
    ``(lint, families, scope, trigger, mode)``, read from the lint's
    :class:`ScanSpec`.  An unscoped row (``scan=None``) carries neither
    families nor a scope, so the runner runs its ``check()`` on every
    certificate; result order is registration order either way.

    Two memos sit on top of the rows (see DESIGN.md, compiled dispatch):
    :meth:`live_rows` per family signature and :meth:`template` per
    signature and projected scope-mask tuple.  Both share the rows and
    one PASS result per lint name (``passed``) rather than copying them.
    """

    __slots__ = (
        "entries",
        "passed",
        "_live",
        "_templates",
        "compiled_names",
    )

    def __init__(self, lints):
        rows = []
        compiled = []
        for lint in lints:
            spec = lint.scan
            if spec is None:
                rows.append((lint, None, None, 0, APPLIES_EXACT))
            else:
                rows.append((lint, spec.families, spec.scope, spec.trigger, spec.mode))
                compiled.append(lint.metadata.name)
        self.entries = tuple(rows)
        self.passed = {
            lint.metadata.name: LintResult(lint.metadata, LintStatus.PASS)
            for lint in lints
        }
        self.compiled_names = frozenset(compiled)
        self._live = ProcessMemo(_TEMPLATE_MEMO_MAX)
        self._templates = ProcessMemo(_TEMPLATE_MEMO_MAX)

    def live_rows(self, signature: frozenset) -> LiveRows:
        """The rows whose families intersect ``signature`` (memoized).

        A row whose families are all absent has ``applies()`` False —
        the NA result a report drops — so leaving it out is exact.
        """
        live = self._live.get(signature)
        if live is not None:
            return live
        rows = []
        bits: dict = {}
        for row in self.entries:
            _lint, families, scope, trigger, mode = row
            if families is not None and families.isdisjoint(signature):
                continue
            rows.append(row)
            if scope is not None:
                read = trigger | SCOPE_NONEMPTY if mode == APPLIES_NONEMPTY else trigger
                bits[scope] = bits.get(scope, 0) | read
        live = LiveRows(signature, tuple(rows), tuple(bits.items()))
        self._live[signature] = live
        return live

    def template(self, live: LiveRows, masks: tuple) -> Template:
        """The report skeleton for ``live`` under projected scope ``masks``.

        ``masks`` pairs with ``live.scope_bits``: each scope's mask ANDed
        with its read bits.  The masks alone settle applicability: a live
        ``APPLIES_EXACT`` row applies, and an ``APPLIES_NONEMPTY`` row
        applies iff its scope's ``SCOPE_NONEMPTY`` bit is set, else it is
        the dropped NA whether or not its trigger fired.  An applicable
        row with a clear trigger is PASS; a fired trigger or a missing
        scope runs the lint's ``check()``.
        """
        key = (live.signature, masks)
        template = self._templates.get(key)
        if template is not None:
            return template
        scope_masks = {scope: mask for (scope, _), mask in zip(live.scope_bits, masks)}
        pass_results = self.passed
        static = []
        dynamic = []
        for lint, _families, scope, trigger, mode in live.rows:
            passed = pass_results[lint.metadata.name]
            if scope is not None:
                mask = scope_masks[scope]
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

