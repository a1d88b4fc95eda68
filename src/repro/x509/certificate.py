"""The Certificate model: TBSCertificate codec plus field accessors."""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass, field

from ..asn1.der import (
    Element,
    encode_bit_string,
    encode_integer,
    encode_sequence,
    encode_time,
    explicit,
    node_bit_string,
    node_child,
    node_integer,
    node_time,
    parse_node,
)
from ..asn1.errors import ASN1Error, DERDecodeError
from ..asn1.oid import (
    ObjectIdentifier,
    OID_AD_CA_ISSUERS,
    OID_EXT_AIA,
    OID_EXT_BASIC_CONSTRAINTS,
    OID_EXT_CERTIFICATE_POLICIES,
    OID_EXT_CRL_DISTRIBUTION_POINTS,
    OID_EXT_CT_POISON,
    OID_EXT_IAN,
    OID_EXT_SAN,
    OID_EXT_SIA,
    OID_COMMON_NAME,
)
from ..asn1.tags import TagClass
from ..memo import ProcessMemo
from .extensions import (
    CRLDistributionPoints,
    Extension,
    GeneralNames,
    InfoAccess,
    ParsedPolicies,
    parse_basic_constraints,
)
from .cache import caching_enabled
from .general_name import GeneralNameKind
from .keys import SimPublicKey, signature_algorithm_element
from .name import Name


#: The decoded extension views: slot -> (extension OID, payload parser).
VIEWS = {
    "san": (OID_EXT_SAN, GeneralNames.parse),
    "ian": (OID_EXT_IAN, GeneralNames.parse),
    "aia": (OID_EXT_AIA, InfoAccess.parse),
    "sia": (OID_EXT_SIA, InfoAccess.parse),
    "crldp": (OID_EXT_CRL_DISTRIBUTION_POINTS, CRLDistributionPoints.parse),
    "cp": (OID_EXT_CERTIFICATE_POLICIES, ParsedPolicies.parse),
}

#: The exceptions a failed view parse records instead of raising.
VIEW_ERRORS = (ASN1Error, ValueError)

#: Entry cap of :data:`_DECODED_ISSUERS`; a full memo flushes.
_ISSUER_MEMO_MAX = 1 << 14
#: Issuer DNs, as received, that :meth:`Name.from_node` has decoded
#: without error.  A parsed certificate whose issuer bytes are here
#: defers its issuer decode to the first read of :attr:`issuer`; any
#: other issuer decodes in :meth:`Certificate.from_der`, so a malformed
#: one raises there, with its message and offset.
_DECODED_ISSUERS = ProcessMemo(_ISSUER_MEMO_MAX)


@dataclass
class Certificate:
    """A parsed (or built) X.509 v3 certificate."""

    serial: int
    issuer: Name
    subject: Name
    not_before: _dt.datetime
    not_after: _dt.datetime
    extensions: list[Extension] = field(default_factory=list)
    public_key: SimPublicKey | None = None
    version: int = 2  # v3
    tbs_der: bytes = b""
    signature: bytes = b""
    raw: bytes = b""
    #: The SubjectPublicKeyInfo as received, until :attr:`public_key`
    #: first decodes it.
    _spki_der: bytes | None = field(default=None, init=False, repr=False, compare=False)
    #: The issuer DN as received (parsed certificates only): the key of
    #: the content-keyed issuer facts, and the source of a deferred
    #: :attr:`issuer` decode.  Assigning :attr:`issuer` clears it.
    _issuer_der: bytes | None = field(default=None, init=False, repr=False, compare=False)
    #: Memoized extension views, keyed by slot name.  Each entry stores
    #: ``(ext, ext.value_der, view, error)`` and is only served while
    #: both identities still match, so swapping an Extension object (or
    #: its DER payload) invalidates the slot automatically.
    _view_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------

    @classmethod
    def from_der(cls, data: bytes, strict: bool = False) -> "Certificate":
        """Parse a DER certificate.

        ``strict=False`` (the default) mirrors tolerant real-world
        parsers: malformed string contents are preserved rather than
        rejected, so the linter can inspect them.  The subject public
        key is kept as received and decoded on first read of
        :attr:`public_key`; so is an issuer DN whose bytes an earlier
        certificate's issuer decoded (see :data:`_DECODED_ISSUERS`).
        """
        raw = bytes(data)
        root = parse_node(raw, strict=strict)
        top = root[4]
        if len(top) != 3:
            raise DERDecodeError("Certificate needs tbs/alg/signature", root[1])
        tbs = top[0]
        fields = tbs[4]
        signature_bits, _unused = node_bit_string(raw, top[2])

        index = 0
        version = 0
        first = node_child(tbs, 0)
        if first[0].cls is TagClass.CONTEXT and first[0].number == 0:
            version = node_integer(raw, node_child(first, 0), strict=False)
            index = 1
        serial = node_integer(raw, node_child(tbs, index), strict=False)
        # child(index+1) is the inner signature AlgorithmIdentifier.
        issuer_node = node_child(tbs, index + 2)
        issuer_der = raw[issuer_node[1] : issuer_node[3]]
        if issuer_der in _DECODED_ISSUERS:
            issuer = None  # decoded on first read of ``issuer``
        else:
            issuer = Name.from_node(raw, issuer_node, strict=False)
            _DECODED_ISSUERS[issuer_der] = True
        validity = node_child(tbs, index + 3)
        not_before = node_time(raw, node_child(validity, 0))
        not_after = node_time(raw, node_child(validity, 1))
        subject = Name.from_node(raw, node_child(tbs, index + 4), strict=False)
        extensions: list[Extension] = []
        for child in fields[index + 6 :]:
            if child[0].cls is TagClass.CONTEXT and child[0].number == 3:
                for ext_node in node_child(child, 0)[4]:
                    extensions.append(Extension.from_node(raw, ext_node))
        cert = cls(
            serial=serial,
            issuer=issuer,
            subject=subject,
            not_before=not_before,
            not_after=not_after,
            extensions=extensions,
            version=version,
            # The TBS exactly as received: the octets the issuer signed.
            tbs_der=raw[tbs[1] : tbs[3]],
            signature=signature_bits,
            raw=raw,
        )
        cert._issuer_der = issuer_der
        if len(fields) > index + 5:
            spki = fields[index + 5]
            cert._spki_der = raw[spki[1] : spki[3]]
        return cert

    def build_tbs(self) -> Element:
        """Re-encode the TBSCertificate from the model fields."""
        children: list[Element] = [
            explicit(0, encode_integer(self.version)),
            encode_integer(self.serial),
            signature_algorithm_element(),
            self.issuer.encode(),
            encode_sequence(encode_time(self.not_before), encode_time(self.not_after)),
            self.subject.encode(),
        ]
        if self.public_key is not None:
            children.append(self.public_key.to_spki())
        else:
            children.append(SimPublicKey(n=3, e=3).to_spki())
        if self.extensions:
            children.append(
                explicit(3, encode_sequence(*[ext.encode() for ext in self.extensions]))
            )
        return encode_sequence(*children)

    def to_der(self) -> bytes:
        """Serialize; uses stored bytes when the cert came off the wire."""
        if self.raw:
            return self.raw
        tbs = self.build_tbs()
        return encode_sequence(
            tbs,
            signature_algorithm_element(),
            encode_bit_string(self.signature),
        ).encode()

    # ------------------------------------------------------------------
    # Extension accessors
    # ------------------------------------------------------------------

    # Extension lookups compare ``oid.dotted``, ObjectIdentifier's only
    # field: the same test as ``==`` without the dataclass ``__eq__`` call.

    def get_extension(self, oid: ObjectIdentifier) -> Extension | None:
        dotted = oid.dotted
        for ext in self.extensions:
            if ext.oid.dotted == dotted:
                return ext
        return None

    def get_extensions(self, oid: ObjectIdentifier) -> list[Extension]:
        dotted = oid.dotted
        return [ext for ext in self.extensions if ext.oid.dotted == dotted]

    def _view(self, slot: str):
        """Parse (or recall) the derived view in ``slot`` of :data:`VIEWS`.

        Returns ``(view, error)``: both ``None`` when the extension is
        absent, the error text when it is present but does not decode.
        The memo entry is valid only while the Extension object *and*
        its ``value_der`` bytes are the exact objects seen at parse
        time; any replacement misses the cache and re-parses.
        """
        oid, parser = VIEWS[slot]
        ext = self.get_extension(oid)
        if ext is None:
            return None, None
        use_cache = caching_enabled()
        if use_cache:
            cached = self._view_cache.get(slot)
            if cached is not None and cached[0] is ext and cached[1] is ext.value_der:
                return cached[2], cached[3]
        view = None
        error = None
        try:
            view = parser(ext.value_der, strict=False)
        except VIEW_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        if use_cache:
            self._view_cache[slot] = (ext, ext.value_der, view, error)
        return view, error

    @property
    def san(self) -> GeneralNames | None:
        return self._view("san")[0]

    @property
    def san_parse_error(self) -> str | None:
        """Why the present SAN extension failed to decode (else ``None``).

        Distinguishes a *malformed* SAN from an *absent* one so structure
        lints can flag undecodable extensions instead of treating them as
        missing.
        """
        return self._view("san")[1]

    @property
    def ian(self) -> GeneralNames | None:
        return self._view("ian")[0]

    @property
    def ian_parse_error(self) -> str | None:
        """Why the present IAN extension failed to decode (else ``None``)."""
        return self._view("ian")[1]

    @property
    def aia(self) -> InfoAccess | None:
        return self._view("aia")[0]

    @property
    def sia(self) -> InfoAccess | None:
        return self._view("sia")[0]

    @property
    def crl_distribution_points(self) -> CRLDistributionPoints | None:
        return self._view("crldp")[0]

    @property
    def policies(self) -> ParsedPolicies | None:
        return self._view("cp")[0]

    # ------------------------------------------------------------------
    # Field shortcuts
    # ------------------------------------------------------------------

    @property
    def subject_common_names(self) -> list[str]:
        return self.subject.get(OID_COMMON_NAME)

    @property
    def dns_names(self) -> list[str]:
        """All DNSName values: SAN first, CN fallback if SAN absent."""
        san = self.san
        if san is not None:
            return san.dns_names()
        return list(self.subject_common_names)

    @property
    def san_dns_names(self) -> list[str]:
        san = self.san
        return san.dns_names() if san is not None else []

    @property
    def is_precertificate(self) -> bool:
        return self.get_extension(OID_EXT_CT_POISON) is not None

    @property
    def is_ca(self) -> bool:
        ext = self.get_extension(OID_EXT_BASIC_CONSTRAINTS)
        if ext is None:
            return False
        try:
            ca, _ = parse_basic_constraints(ext.value_der)
            return ca
        except ASN1Error:
            return False

    @property
    def is_self_issued(self) -> bool:
        return self.issuer == self.subject

    @property
    def validity_days(self) -> float:
        return (self.not_after - self.not_before).total_seconds() / 86400

    def is_valid_at(self, when: _dt.datetime) -> bool:
        return self.not_before <= when <= self.not_after

    @property
    def ca_issuer_urls(self) -> list[str]:
        aia = self.aia
        if aia is None:
            return []
        return aia.locations_for(OID_AD_CA_ISSUERS)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_der()).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cn = self.subject_common_names
        return f"<Certificate serial={self.serial} cn={cn[0] if cn else '?'}>"


def _get_issuer(cert: Certificate) -> Name:
    issuer = cert._issuer
    if issuer is None and cert._issuer_der is not None:
        # Deferred only after these very bytes decoded without error.
        der = cert._issuer_der
        issuer = cert._issuer = Name.from_node(
            der, parse_node(der, strict=False), strict=False
        )
    return issuer


def _set_issuer(cert: Certificate, issuer: Name) -> None:
    cert._issuer = issuer
    cert._issuer_der = None


def _get_public_key(cert: Certificate) -> SimPublicKey | None:
    spki = cert._spki_der
    if spki is not None:
        cert._spki_der = None
        try:
            cert._public_key = SimPublicKey.from_spki_der(spki)
        except ASN1Error:
            cert._public_key = None  # Foreign/unsupported key types stay opaque.
    return cert._public_key


def _set_public_key(cert: Certificate, key: SimPublicKey | None) -> None:
    cert._public_key = key
    cert._spki_der = None


# ``issuer`` and ``public_key`` stay dataclass fields, so the
# constructor keyword, equality and ``dataclasses.replace`` keep
# working; installed after the decorator ran, each property decodes a
# parsed certificate's deferred bytes on first read.  Nothing on the
# lint path reads the key, and the compiled issuer walk reads the
# issuer's bytes instead of the ``Name`` (DESIGN.md §15).
Certificate.issuer = property(
    _get_issuer, _set_issuer, doc="The issuer DN (decoded on first read if deferred)."
)
Certificate.public_key = property(
    _get_public_key, _set_public_key, doc="The subject public key, or ``None``."
)
