"""OBJECT IDENTIFIER codec and the registry of X.509-relevant OIDs."""

from __future__ import annotations

from dataclasses import dataclass

from ..memo import ProcessMemo
from .errors import DERDecodeError, DEREncodeError

#: Dotted OID -> its content octets.  An encoder names a few dozen OIDs
#: thousands of times each; the cap bounds a process that encodes OIDs
#: taken from its input.
_ENCODED_MAX = 4096
_ENCODED = ProcessMemo(_ENCODED_MAX)


@dataclass(frozen=True)
class ObjectIdentifier:
    """An ASN.1 OBJECT IDENTIFIER, stored in dotted-decimal form."""

    dotted: str

    def __post_init__(self):
        arcs = self.arcs
        if len(arcs) < 2:
            raise DEREncodeError(f"OID needs at least two arcs: {self.dotted!r}")
        if arcs[0] > 2 or (arcs[0] < 2 and arcs[1] > 39):
            raise DEREncodeError(f"invalid OID root arcs: {self.dotted!r}")

    @property
    def arcs(self) -> tuple[int, ...]:
        try:
            parts = tuple(int(part) for part in self.dotted.split("."))
        except ValueError as exc:
            raise DEREncodeError(f"malformed OID: {self.dotted!r}") from exc
        if any(part < 0 for part in parts):
            raise DEREncodeError(f"negative OID arc: {self.dotted!r}")
        return parts

    @property
    def name(self) -> str:
        """Human-readable short name, or the dotted form when unknown."""
        return OID_NAMES.get(self.dotted, self.dotted)

    def encode_value(self) -> bytes:
        """Encode to content octets (without tag/length)."""
        encoded = _ENCODED.get(self.dotted)
        if encoded is None:
            encoded = _ENCODED[self.dotted] = self._encode_arcs()
        return encoded

    def _encode_arcs(self) -> bytes:
        arcs = self.arcs
        out = bytearray()
        first = arcs[0] * 40 + arcs[1]
        for arc in (first, *arcs[2:]):
            chunk = [arc & 0x7F]
            arc >>= 7
            while arc:
                chunk.append((arc & 0x7F) | 0x80)
                arc >>= 7
            out.extend(reversed(chunk))
        return bytes(out)

    @classmethod
    def decode_value(cls, data: bytes) -> "ObjectIdentifier":
        """Decode content octets into an OID."""
        if not data:
            raise DERDecodeError("empty OID value")
        arcs: list[int] = []
        value = 0
        started = False
        for i, octet in enumerate(data):
            if not started and octet == 0x80:
                raise DERDecodeError("non-minimal OID subidentifier", i)
            started = True
            value = (value << 7) | (octet & 0x7F)
            if not octet & 0x80:
                arcs.append(value)
                value = 0
                started = False
        if started:
            raise DERDecodeError("truncated OID subidentifier")
        first = arcs[0]
        if first < 40:
            root, second = 0, first
        elif first < 80:
            root, second = 1, first - 40
        else:
            root, second = 2, first - 80
        dotted = ".".join(str(arc) for arc in (root, second, *arcs[1:]))
        return cls(dotted)

    def __str__(self) -> str:
        return self.dotted


def oid(dotted: str) -> ObjectIdentifier:
    """Shorthand constructor used throughout the package."""
    return ObjectIdentifier(dotted)


# --- Directory attribute types (X.520 / RFC 4519) -------------------------

OID_COMMON_NAME = oid("2.5.4.3")
OID_SURNAME = oid("2.5.4.4")
OID_SERIAL_NUMBER = oid("2.5.4.5")
OID_COUNTRY_NAME = oid("2.5.4.6")
OID_LOCALITY_NAME = oid("2.5.4.7")
OID_STATE_OR_PROVINCE = oid("2.5.4.8")
OID_STREET_ADDRESS = oid("2.5.4.9")
OID_ORGANIZATION_NAME = oid("2.5.4.10")
OID_ORGANIZATIONAL_UNIT = oid("2.5.4.11")
OID_TITLE = oid("2.5.4.12")
OID_BUSINESS_CATEGORY = oid("2.5.4.15")
OID_POSTAL_CODE = oid("2.5.4.17")
OID_GIVEN_NAME = oid("2.5.4.42")
OID_DN_QUALIFIER = oid("2.5.4.46")
OID_PSEUDONYM = oid("2.5.4.65")
OID_DOMAIN_COMPONENT = oid("0.9.2342.19200300.100.1.25")
OID_USER_ID = oid("0.9.2342.19200300.100.1.1")
OID_EMAIL_ADDRESS = oid("1.2.840.113549.1.9.1")
OID_UNSTRUCTURED_NAME = oid("1.2.840.113549.1.9.2")
# EV jurisdiction attributes (CA/B EV Guidelines).
OID_JURISDICTION_LOCALITY = oid("1.3.6.1.4.1.311.60.2.1.1")
OID_JURISDICTION_STATE = oid("1.3.6.1.4.1.311.60.2.1.2")
OID_JURISDICTION_COUNTRY = oid("1.3.6.1.4.1.311.60.2.1.3")
OID_ORGANIZATION_IDENTIFIER = oid("2.5.4.97")

# --- Extensions (RFC 5280) -------------------------------------------------

OID_EXT_SUBJECT_KEY_ID = oid("2.5.29.14")
OID_EXT_KEY_USAGE = oid("2.5.29.15")
OID_EXT_SAN = oid("2.5.29.17")
OID_EXT_IAN = oid("2.5.29.18")
OID_EXT_BASIC_CONSTRAINTS = oid("2.5.29.19")
OID_EXT_NAME_CONSTRAINTS = oid("2.5.29.30")
OID_EXT_CRL_DISTRIBUTION_POINTS = oid("2.5.29.31")
OID_EXT_CERTIFICATE_POLICIES = oid("2.5.29.32")
OID_EXT_AUTHORITY_KEY_ID = oid("2.5.29.35")
OID_EXT_EXTENDED_KEY_USAGE = oid("2.5.29.37")
OID_EXT_AIA = oid("1.3.6.1.5.5.7.1.1")
OID_EXT_SIA = oid("1.3.6.1.5.5.7.1.11")
OID_EXT_CT_POISON = oid("1.3.6.1.4.1.11129.2.4.3")
OID_EXT_CT_SCT_LIST = oid("1.3.6.1.4.1.11129.2.4.2")

# --- AccessDescription methods ---------------------------------------------

OID_AD_OCSP = oid("1.3.6.1.5.5.7.48.1")
OID_AD_CA_ISSUERS = oid("1.3.6.1.5.5.7.48.2")
OID_AD_CA_REPOSITORY = oid("1.3.6.1.5.5.7.48.5")

# --- otherName forms ---------------------------------------------------------

OID_ON_SMTP_UTF8_MAILBOX = oid("1.3.6.1.5.5.7.8.9")
OID_ON_UPN = oid("1.3.6.1.4.1.311.20.2.3")

# --- Certificate policies ----------------------------------------------------

OID_CP_ANY_POLICY = oid("2.5.29.32.0")
OID_CP_DOMAIN_VALIDATED = oid("2.23.140.1.2.1")
OID_CP_ORGANIZATION_VALIDATED = oid("2.23.140.1.2.2")
OID_CP_EXTENDED_VALIDATION = oid("2.23.140.1.1")
OID_QT_CPS = oid("1.3.6.1.5.5.7.2.1")
OID_QT_UNOTICE = oid("1.3.6.1.5.5.7.2.2")

# --- Signature / key algorithms (simulation-grade) ---------------------------

OID_RSA_ENCRYPTION = oid("1.2.840.113549.1.1.1")
OID_SHA256_WITH_RSA = oid("1.2.840.113549.1.1.11")
OID_EKU_SERVER_AUTH = oid("1.3.6.1.5.5.7.3.1")
OID_EKU_CLIENT_AUTH = oid("1.3.6.1.5.5.7.3.2")

#: Short names used by the RFC 4514 presentation layer and the linter.
OID_NAMES: dict[str, str] = {
    "2.5.4.3": "CN",
    "2.5.4.4": "SN",
    "2.5.4.5": "serialNumber",
    "2.5.4.6": "C",
    "2.5.4.7": "L",
    "2.5.4.8": "ST",
    "2.5.4.9": "street",
    "2.5.4.10": "O",
    "2.5.4.11": "OU",
    "2.5.4.12": "title",
    "2.5.4.15": "businessCategory",
    "2.5.4.17": "postalCode",
    "2.5.4.42": "givenName",
    "2.5.4.46": "dnQualifier",
    "2.5.4.65": "pseudonym",
    "2.5.4.97": "organizationIdentifier",
    "0.9.2342.19200300.100.1.25": "DC",
    "0.9.2342.19200300.100.1.1": "UID",
    "1.2.840.113549.1.9.1": "emailAddress",
    "1.2.840.113549.1.9.2": "unstructuredName",
    "1.3.6.1.4.1.311.60.2.1.1": "jurisdictionLocality",
    "1.3.6.1.4.1.311.60.2.1.2": "jurisdictionStateOrProvince",
    "1.3.6.1.4.1.311.60.2.1.3": "jurisdictionCountry",
    "2.5.29.14": "subjectKeyIdentifier",
    "2.5.29.15": "keyUsage",
    "2.5.29.17": "subjectAltName",
    "2.5.29.18": "issuerAltName",
    "2.5.29.19": "basicConstraints",
    "2.5.29.30": "nameConstraints",
    "2.5.29.31": "cRLDistributionPoints",
    "2.5.29.32": "certificatePolicies",
    "2.5.29.35": "authorityKeyIdentifier",
    "2.5.29.37": "extendedKeyUsage",
    "1.3.6.1.5.5.7.1.1": "authorityInfoAccess",
    "1.3.6.1.5.5.7.1.11": "subjectInfoAccess",
    "1.3.6.1.4.1.11129.2.4.3": "ctPoison",
    "1.3.6.1.4.1.11129.2.4.2": "ctSCTList",
    "1.3.6.1.5.5.7.48.1": "ocsp",
    "1.3.6.1.5.5.7.48.2": "caIssuers",
    "1.3.6.1.5.5.7.48.5": "caRepository",
    "1.3.6.1.5.5.7.8.9": "smtpUTF8Mailbox",
    "1.2.840.113549.1.1.1": "rsaEncryption",
    "1.2.840.113549.1.1.11": "sha256WithRSAEncryption",
    "2.5.29.32.0": "anyPolicy",
    "2.23.140.1.2.1": "domainValidated",
    "2.23.140.1.2.2": "organizationValidated",
    "2.23.140.1.1": "extendedValidation",
    "1.3.6.1.5.5.7.2.1": "cps",
    "1.3.6.1.5.5.7.2.2": "userNotice",
    "1.3.6.1.5.5.7.3.1": "serverAuth",
    "1.3.6.1.5.5.7.3.2": "clientAuth",
}

#: Every registered OID keyed by its content octets, for
#: :func:`repro.asn1.der.decode_oid`.  Built once from :data:`OID_NAMES`,
#: so its size is fixed: input never adds keys.  Only the minimal
#: encoding is a key, so a non-minimal one misses and still raises in
#: :meth:`ObjectIdentifier.decode_value`.
OIDS_BY_VALUE: dict[bytes, ObjectIdentifier] = {
    known.encode_value(): known for known in map(ObjectIdentifier, OID_NAMES)
}
