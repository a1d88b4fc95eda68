"""The string-keyed field walk the compiled field pass replaced (test oracle).

``repro.lint.compiled.CompiledPlan.scan`` fills an integer family
signature and a flat list of slot masks in one pass.  Before it, a
``walk_fields`` built a ``frozenset`` of tuple family keys while filling
a string-keyed ``masks`` dict, and each scope's mask was resolved by a
closure of a ``SCOPES`` table (``resolve_scope``).  This module keeps
that derivation, with no content memos, so the differential tests can
compare per-row applicability and trigger bits against code the
rewrite did not touch.  It reads only the per-string masks of
:mod:`repro.lint.compiled` (``scan_mask`` and the email/URI/A-label
masks); the DNS shape bits and the two mailbox kernel bits, which the
pass computes from its own memo entries, are derived here from scratch.
"""

from repro.asn1.der import node_child, node_content, parse_node
from repro.asn1.oid import OID_COMMON_NAME, OID_ON_SMTP_UTF8_MAILBOX
from repro.lint.compiled import (
    APPLIES_NONEMPTY,
    DECODE_BAD,
    PSEUDO_BITS,
    SCOPE_NONEMPTY,
    _email_shape_mask,
    _uri_shape_mask,
    _xn_label_mask,
    scan_mask,
)
from repro.uni.dns import is_xn_label
from repro.x509.general_name import GeneralNameKind

_CN_DOTTED = OID_COMMON_NAME.dotted
_DNS_KIND = GeneralNameKind.DNS_NAME
_EMAIL_KIND = GeneralNameKind.RFC822_NAME
_URI_KIND = GeneralNameKind.URI
_OTHER_NAME = int(GeneralNameKind.OTHER_NAME)

_SPEC_NAMES = (
    "PrintableString",
    "UTF8String",
    "IA5String",
    "TeletexString",
    "BMPString",
    "UniversalString",
)
_SPEC_BITS = {name: PSEUDO_BITS["SPEC_" + name] for name in _SPEC_NAMES}


def _bit(name: str) -> int:
    return PSEUDO_BITS[name]


def dns_shape_mask(name: str) -> int:
    """Scan mask of one DNS name plus the four DNS shape bits."""
    mask = scan_mask(name)
    stripped = name.rstrip(".")
    if len(stripped) > 253:
        mask |= _bit("DNS_NAME_GT_253")
    candidate = name[:-1] if name.endswith(".") else name
    labels = candidate.split(".")
    if not candidate or "" in labels:
        mask |= _bit("DNS_EMPTY_LABEL")
    for label in labels:
        if len(label) > 63:
            mask |= _bit("DNS_LABEL_GT_63")
    for label in stripped.split("."):
        if label.startswith("-") or label.endswith("-"):
            mask |= _bit("DNS_HYPHEN_EDGE")
    return mask


def _dns_names(san_dns, common_names) -> list:
    names = list(san_dns)
    for cn in common_names:
        if "." in cn and " " not in cn and "@" not in cn:
            names.append(cn)
    return list(dict.fromkeys(names))


def _alabels(dns_names) -> list:
    return [
        label
        for dns_name in dns_names
        for label in dns_name.split(".")
        if is_xn_label(label)
    ]


def _walk_name(name_obj, masks: dict, side: str, families: set) -> None:
    mask = 0
    ps = 0
    u8 = 0
    common_names = []
    if name_obj.rdns:
        families.add("s*" if side == "s" else "i*")
    for attr in name_obj.attributes():
        spec_name = attr.spec.name
        value = attr.value
        am = scan_mask(value) | _SPEC_BITS.get(spec_name, _bit("SPEC_OTHER"))
        if not attr.decode_ok:
            am |= DECODE_BAD
        elif spec_name == "UTF8String":
            u8 |= SCOPE_NONEMPTY
        if not value and not attr.raw:
            am |= _bit("EMPTY_NORAW")
        dotted = attr.oid.dotted
        oid_key = (side, dotted)
        families.add(oid_key)
        families.add(("spec", spec_name))
        prev = masks.get(oid_key)
        if prev is None:
            masks[oid_key] = am
        else:
            masks[oid_key] = prev | am
            mask |= _bit("DUP_OID")
        if spec_name == "PrintableString":
            ps |= am
        elif spec_name == "UTF8String":
            u8 |= am
        if dotted == _CN_DOTTED:
            common_names.append(value)
        mask |= am
    if side == "s":
        if len(common_names) > 1:
            masks[(side, _CN_DOTTED)] |= _bit("EXTRA_CN")
        masks["_cns"] = common_names
    masks["subject" if side == "s" else "issuer"] = mask
    masks["_ps_" + side] = ps
    masks["_u8_" + side] = u8


def _access_mask(ia) -> int:
    mask = 0
    if ia is not None:
        for description in ia.descriptions:
            gn = description.location
            if gn.kind is _URI_KIND:
                mask |= scan_mask(gn.value) | SCOPE_NONEMPTY
                if not gn.decode_ok:
                    mask |= DECODE_BAD
    return mask


def _gn_mask(general_names, value_fn) -> int:
    if not general_names:
        return 0
    mask = SCOPE_NONEMPTY
    for gn in general_names:
        mask |= value_fn(gn.value)
        if not gn.decode_ok:
            mask |= DECODE_BAD
    return mask


def _payload_masks(cert, masks: dict, families: set) -> None:
    aia = cert.aia
    masks["aia_uris"] = _access_mask(aia)
    sia = cert.sia
    masks["sia_uris"] = _access_mask(sia)
    dps = cert.crl_distribution_points
    crldp = uris = 0
    if dps is not None:
        for point in dps.points:
            crldp |= _gn_mask(point.full_names, scan_mask)
            for gn in point.full_names:
                if gn.kind is _URI_KIND:
                    uris |= _uri_shape_mask(gn.value) | SCOPE_NONEMPTY
    masks["crldp"] = crldp
    masks["_uris_crldp"] = uris
    policies = cert.policies
    text_mask = uri_mask = 0
    if policies is not None:
        texts = policies.explicit_texts
        if texts:
            text_mask = SCOPE_NONEMPTY
        for tag, text, ok in texts:
            text_mask |= scan_mask(text)
            if not ok:
                text_mask |= DECODE_BAD
            if tag == 22:
                text_mask |= _bit("CP_TAG_IA5")
            elif tag != 12:
                text_mask |= _bit("CP_TAG_OTHER")
        if policies.cps_uris:
            uri_mask = SCOPE_NONEMPTY
        for uri in policies.cps_uris:
            uri_mask |= scan_mask(uri)
    masks["cp_text"] = text_mask
    masks["cps_uris"] = uri_mask
    for family, view in (("e:aia", aia), ("e:sia", sia), ("e:crldp", dps), ("e:cp", policies)):
        if view is not None:
            families.add(family)


def walk_fields(cert, masks: dict) -> frozenset:
    """The certificate's family signature; fills ``masks`` on the way."""
    present: set = set()
    _walk_name(cert.subject, masks, "s", present)
    _walk_name(cert.issuer, masks, "i", present)
    _payload_masks(cert, masks, present)
    for source, family, general_names in (
        ("san", "san!", cert.san),
        ("ian", "ian!", cert.ian),
    ):
        by_kind: dict = {}
        if general_names is not None:
            present.add(family)
            names = general_names.names
            for gn in names:
                by_kind.setdefault(gn.kind, []).append(gn)
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
        present.add("dns")
        if labels:
            present.add("xn")
    return frozenset(present)


def _filled(key):
    return lambda cert, masks: masks[key]


def _scope_dns(cert, masks):
    mask = 0
    for dns_name in masks["_dns_names"]:
        mask |= dns_shape_mask(dns_name)
    return mask


def _scope_xn(cert, masks):
    mask = 0
    for label in masks["_xn_labels"]:
        mask |= _xn_label_mask(label)
    return mask


def _kind_scope(source, kind, value_fn):
    def fn(cert, masks):
        return _gn_mask(masks["_" + source].get(kind), value_fn)

    return fn, {(source, int(kind))}


def _union(*parts):
    def fn(cert, masks):
        mask = 0
        for part in parts:
            mask |= resolve_scope(part, cert, masks)
        return mask

    return fn


def _scope_san_entries(cert, masks):
    names = masks["_san_names"]
    mask = 0
    if names is not None:
        if not names:
            mask |= _bit("SAN_NO_NAMES")
        for gn in names:
            if gn.kind is _URI_KIND:
                mask |= _bit("SAN_HAS_URI")
            if gn.kind in (_DNS_KIND, _EMAIL_KIND, _URI_KIND) and gn.value == "":
                mask |= _bit("SAN_EMPTY_ENTRY")
    return mask


def _scope_cn_san(cert, masks):
    names = masks["_san_names"]
    values = [gn.value for gn in names] if names is not None else []
    for cn in masks["_cns"]:
        if cn not in values:
            return _bit("CN_NOT_IN_SAN")
    return 0


def _mailbox_not_utf8(raw) -> bool:
    """The mailbox lint's check body as it stood before its kernel."""
    try:
        inner = node_child(parse_node(raw, strict=False), 0)
        if inner[0].number != 12:
            return True
        node_content(raw, inner).decode("utf-8")
    except Exception:
        return True
    return False


def _scope_smtp(cert, masks):
    mask = 0
    for by_kind in (masks["_san"], masks["_ian"]):
        for gn in by_kind.get(GeneralNameKind.OTHER_NAME, ()):
            if gn.other_name_oid == OID_ON_SMTP_UTF8_MAILBOX:
                mask |= scan_mask(gn.value) | SCOPE_NONEMPTY
                if _mailbox_not_utf8(gn.raw):
                    mask |= _bit("SMTP_NOT_UTF8")
                local = gn.value.rsplit("@", 1)[0] if "@" in gn.value else gn.value
                if local and all(ord(ch) < 0x80 for ch in local):
                    mask |= _bit("SMTP_ASCII_LOCAL")
    return mask


_SAN_EMAIL, _IAN_EMAIL = ("san", int(_EMAIL_KIND)), ("ian", int(_EMAIL_KIND))
_SAN_URI, _IAN_URI = ("san", int(_URI_KIND)), ("ian", int(_URI_KIND))

#: Every named scope: ``(walker, family keys)`` (``None``: every cert).
SCOPES = {
    "subject": (_filled("subject"), {"s*"}),
    "issuer": (_filled("issuer"), {"i*"}),
    "dn": (_union("subject", "issuer"), None),
    "ps": (_union("_ps_s", "_ps_i"), {("spec", "PrintableString")}),
    "utf8": (_union("_u8_s", "_u8_i"), {("spec", "UTF8String")}),
    "dns": (_scope_dns, {"dns"}),
    "xn": (_scope_xn, {"xn"}),
    "san_dns": _kind_scope("san", _DNS_KIND, scan_mask),
    "san_email": _kind_scope("san", _EMAIL_KIND, _email_shape_mask),
    "san_uri": _kind_scope("san", _URI_KIND, _uri_shape_mask),
    "ian_dns": _kind_scope("ian", _DNS_KIND, scan_mask),
    "ian_email": _kind_scope("ian", _EMAIL_KIND, _email_shape_mask),
    "ian_uri": _kind_scope("ian", _URI_KIND, _uri_shape_mask),
    "email_all": (_union("san_email", "ian_email"), {_SAN_EMAIL, _IAN_EMAIL}),
    "uri_all": (_union("san_uri", "ian_uri"), {_SAN_URI, _IAN_URI}),
    "uris_scheme": (
        _union("uri_all", "_uris_crldp"),
        {"e:crldp", _SAN_URI, _IAN_URI},
    ),
    "crldp": (_filled("crldp"), {"e:crldp"}),
    "aia_uris": (_filled("aia_uris"), {"e:aia"}),
    "sia_uris": (_filled("sia_uris"), {"e:sia"}),
    "cp_text": (_filled("cp_text"), {"e:cp"}),
    "cps_uris": (_filled("cps_uris"), {"e:cp"}),
    "san_entries": (_scope_san_entries, {"san!"}),
    "cn_san": (_scope_cn_san, {("s", _CN_DOTTED)}),
    "smtp": (_scope_smtp, {("san", _OTHER_NAME), ("ian", _OTHER_NAME)}),
}


def scope_families(scope):
    """The family keys of ``scope`` (``None``: live on every cert)."""
    entry = SCOPES.get(scope)
    if entry is not None:
        return entry[1]
    return {scope}


def resolve_scope(scope, cert, masks: dict) -> int:
    """One scope's mask; ``masks`` must have passed :func:`walk_fields`."""
    entry = SCOPES.get(scope)
    if entry is not None:
        return entry[0](cert, masks)
    return masks.get(scope, 0)


def row_outcomes(lints, cert) -> list:
    """``(live, applicable, projected trigger bits)`` per lint, derived
    the old way; an unscoped lint is ``(True, True, None)``."""
    masks: dict = {}
    signature = walk_fields(cert, masks)
    outcomes = []
    for lint in lints:
        spec = lint.scan
        if spec is None:
            outcomes.append((True, True, None))
            continue
        families = scope_families(spec.scope)
        live = families is None or not signature.isdisjoint(families)
        mask = resolve_scope(spec.scope, cert, masks)
        if not live:
            outcomes.append((False, False, 0))
            continue
        applicable = spec.mode != APPLIES_NONEMPTY or bool(mask & SCOPE_NONEMPTY)
        outcomes.append((True, applicable, mask & spec.trigger))
    return outcomes
