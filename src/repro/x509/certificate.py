"""The Certificate model: TBSCertificate codec plus field accessors."""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass, field

from ..asn1 import (
    ASN1Error,
    DERDecodeError,
    Element,
    ObjectIdentifier,
    Tag,
    TagClass,
    decode_bit_string,
    decode_integer,
    decode_time,
    encode_bit_string,
    encode_integer,
    encode_sequence,
    encode_time,
    explicit,
    parse as parse_der,
)
from ..asn1.oid import (
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
        rejected, so the linter can inspect them.
        """
        raw = bytes(data)
        root = parse_der(raw, strict=strict)
        if len(root.children) != 3:
            raise DERDecodeError("Certificate needs tbs/alg/signature", root.offset)
        tbs = root.child(0)
        signature_bits, _unused = decode_bit_string(root.child(2))

        index = 0
        version = 0
        first = tbs.child(0)
        if first.tag.cls is TagClass.CONTEXT and first.tag.number == 0:
            version = decode_integer(first.child(0), strict=False)
            index = 1
        serial = decode_integer(tbs.child(index), strict=False)
        # child(index+1) is the inner signature AlgorithmIdentifier.
        issuer = Name.parse(tbs.child(index + 2), strict=False)
        validity = tbs.child(index + 3)
        not_before = decode_time(validity.child(0))
        not_after = decode_time(validity.child(1))
        subject = Name.parse(tbs.child(index + 4), strict=False)
        public_key = None
        try:
            public_key = SimPublicKey.from_spki(tbs.child(index + 5))
        except Exception:
            pass  # Foreign/unsupported key types stay opaque.
        extensions: list[Extension] = []
        for child in tbs.children[index + 6 :]:
            if child.tag.cls is TagClass.CONTEXT and child.tag.number == 3:
                for ext_el in child.child(0).children:
                    extensions.append(Extension.parse(ext_el))
        return cls(
            serial=serial,
            issuer=issuer,
            subject=subject,
            not_before=not_before,
            not_after=not_after,
            extensions=extensions,
            public_key=public_key,
            version=version,
            # The TBS exactly as received: the octets the issuer signed.
            tbs_der=raw[tbs.offset : tbs.end],
            signature=signature_bits,
            raw=raw,
        )

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

    def get_extension(self, oid: ObjectIdentifier) -> Extension | None:
        for ext in self.extensions:
            if ext.oid == oid:
                return ext
        return None

    def get_extensions(self, oid: ObjectIdentifier) -> list[Extension]:
        return [ext for ext in self.extensions if ext.oid == oid]

    def _extension_view(self, slot, oid, parser, errors=Exception):
        """Parse (or recall) the derived view of the extension ``oid``.

        Returns ``(view, error)``.  The memo entry is valid only while
        the Extension object *and* its ``value_der`` bytes are the exact
        objects seen at parse time; any replacement misses the cache and
        re-parses.
        """
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
        except errors as exc:
            error = f"{type(exc).__name__}: {exc}"
        if use_cache:
            self._view_cache[slot] = (ext, ext.value_der, view, error)
        return view, error

    @property
    def san(self) -> GeneralNames | None:
        view, _error = self._extension_view(
            "san", OID_EXT_SAN, GeneralNames.parse, (ASN1Error, ValueError)
        )
        return view

    @property
    def san_parse_error(self) -> str | None:
        """Why the present SAN extension failed to decode (else ``None``).

        Distinguishes a *malformed* SAN from an *absent* one so structure
        lints can flag undecodable extensions instead of treating them as
        missing.
        """
        _view, error = self._extension_view(
            "san", OID_EXT_SAN, GeneralNames.parse, (ASN1Error, ValueError)
        )
        return error

    @property
    def ian(self) -> GeneralNames | None:
        view, _error = self._extension_view(
            "ian", OID_EXT_IAN, GeneralNames.parse, (ASN1Error, ValueError)
        )
        return view

    @property
    def ian_parse_error(self) -> str | None:
        """Why the present IAN extension failed to decode (else ``None``)."""
        _view, error = self._extension_view(
            "ian", OID_EXT_IAN, GeneralNames.parse, (ASN1Error, ValueError)
        )
        return error

    @property
    def aia(self) -> InfoAccess | None:
        view, _error = self._extension_view("aia", OID_EXT_AIA, InfoAccess.parse)
        return view

    @property
    def sia(self) -> InfoAccess | None:
        view, _error = self._extension_view("sia", OID_EXT_SIA, InfoAccess.parse)
        return view

    @property
    def crl_distribution_points(self) -> CRLDistributionPoints | None:
        view, _error = self._extension_view(
            "crldp", OID_EXT_CRL_DISTRIBUTION_POINTS, CRLDistributionPoints.parse
        )
        return view

    @property
    def policies(self) -> ParsedPolicies | None:
        view, _error = self._extension_view(
            "cp", OID_EXT_CERTIFICATE_POLICIES, ParsedPolicies.parse
        )
        return view

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
        except Exception:
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
