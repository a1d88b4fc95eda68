"""Damaged extension payloads give the failure value, never an exception.

``Certificate.is_ca``, the UserNotice decodes of ``ParsedPolicies.parse``
and ``name_constraints.constraints_of`` catch only the decoder's error
type (:class:`repro.asn1.errors.ASN1Error`), and the certificate's extension
views record only ``VIEW_ERRORS`` as a parse error.  That is sound only
while the decoders raise nothing else, so these tests feed each
extension's payload truncated and with bytes overwritten.  A truncated
payload must give the failure value (``is_ca`` False, ``constraints_of``
None, ``ParsedPolicies.parse``, ``InfoAccess.parse`` and
``CRLDistributionPoints.parse`` an ASN1Error); an overwritten one may
still decode, and every explicitText it yields must come back as text
with its decode flag.  No other exception type may escape.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.asn1.errors import ASN1Error
from repro.asn1.strings import BMP_STRING, TELETEX_STRING, UTF8_STRING, VISIBLE_STRING
from repro.asn1.oid import (
    OID_AD_CA_ISSUERS,
    OID_AD_OCSP,
    OID_COMMON_NAME,
    OID_CP_DOMAIN_VALIDATED,
    OID_EXT_BASIC_CONSTRAINTS,
    OID_EXT_NAME_CONSTRAINTS,
    OID_QT_CPS,
    OID_QT_UNOTICE,
)
from repro.fuzz.mutators import byte_flip, truncate
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import (
    AccessDescription,
    CRLDistributionPoints,
    DistributionPoint,
    Extension,
    InfoAccess,
    ParsedPolicies,
    PolicyInformation,
    PolicyQualifier,
    UserNotice,
    basic_constraints,
    certificate_policies,
)
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.name import Name
from repro.x509.name_constraints import NameConstraints, constraints_of

from ..hypothesis_profiles import examples

KEY = generate_keypair(seed=24)

BASIC_CONSTRAINTS = basic_constraints(True, path_len=3).value_der
POLICIES = certificate_policies(
    PolicyInformation(
        OID_CP_DOMAIN_VALIDATED,
        [
            PolicyQualifier(OID_QT_CPS, cps_uri="https://cps.example/"),
            *(
                PolicyQualifier(OID_QT_UNOTICE, user_notice=UserNotice(text, spec))
                for text, spec in (
                    ("Notice", UTF8_STRING),
                    ("Nötice", BMP_STRING),
                    ("Notice", VISIBLE_STRING),
                    ("Nótice", TELETEX_STRING),
                )
            ),
        ],
    )
).value_der
INFO_ACCESS = InfoAccess(
    [
        AccessDescription(OID_AD_OCSP, GeneralName.uri("http://ocsp.example/")),
        AccessDescription(OID_AD_CA_ISSUERS, GeneralName.uri("http://ca.example/ca.crt")),
        AccessDescription(
            OID_AD_CA_ISSUERS,
            GeneralName.directory(Name.build([(OID_COMMON_NAME, "Ünicode CA")])),
        ),
    ]
).encode()
CRL_POINTS = CRLDistributionPoints(
    [
        DistributionPoint([GeneralName.uri("http://crl.example/a.crl")]),
        DistributionPoint(
            [
                GeneralName.dns("crl.example"),
                GeneralName.directory(Name.build([(OID_COMMON_NAME, "CRL Issuer")])),
            ]
        ),
    ]
).encode()
NAME_CONSTRAINTS = NameConstraints(
    permitted_dns=["example.com", "xn--bcher-kva.example"],
    excluded_dns=["bad.example.com"],
).encode()

#: A CA certificate carrying one payload of each extension under test.
BASE = (
    CertificateBuilder()
    .subject_cn("Damaged Payload CA")
    .add_extension(Extension(OID_EXT_BASIC_CONSTRAINTS, True, BASIC_CONSTRAINTS))
    .add_extension(Extension(OID_EXT_NAME_CONSTRAINTS, True, NAME_CONSTRAINTS))
    .sign(KEY)
)


def _flipped(payload: bytes, flips) -> bytes:
    for index, value in flips:
        payload = byte_flip(payload, index, value)
    return payload


def _with_extension(oid, payload: bytes):
    """``BASE`` with the ``oid`` extension's payload replaced."""
    extensions = [
        Extension(ext.oid, ext.critical, payload) if ext.oid == oid else ext
        for ext in BASE.extensions
    ]
    return dataclasses.replace(BASE, extensions=extensions)


def _is_ca(payload: bytes):
    return _with_extension(OID_EXT_BASIC_CONSTRAINTS, payload).is_ca


def _constraints(payload: bytes):
    return constraints_of(_with_extension(OID_EXT_NAME_CONSTRAINTS, payload))


def _policies(payload: bytes):
    """The parsed policies, or ``None`` when the decoder rejects them."""
    try:
        return ParsedPolicies.parse(payload)
    except ASN1Error:
        return None


def _decoded(parser, payload: bytes):
    """``parser``'s view of the payload, or ``None`` when it is rejected."""
    try:
        return parser(payload, strict=False)
    except ASN1Error:
        return None


def test_undamaged_payloads_decode():
    assert _is_ca(BASIC_CONSTRAINTS) is True
    assert _constraints(NAME_CONSTRAINTS).excluded_dns == ["bad.example.com"]
    parsed = _policies(POLICIES)
    assert [ok for _tag, _text, ok in parsed.explicit_texts] == [True] * 4
    assert len(_decoded(InfoAccess.parse, INFO_ACCESS).descriptions) == 3
    assert _decoded(CRLDistributionPoints.parse, CRL_POINTS).all_urls() == [
        "http://crl.example/a.crl",
        "crl.example",
        "",
    ]


#: Flips: ``(index, byte)`` overwrites, index taken modulo the length.
FLIPS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=4)


@settings(max_examples=examples(200), deadline=None)
@given(keep=st.integers(0, 1 << 16))
def test_truncated_payloads_give_the_failure_value(keep):
    # Each payload is one SEQUENCE, so any strict prefix misses octets
    # its length promises.
    assert _is_ca(truncate(BASIC_CONSTRAINTS, keep)) is False
    assert _constraints(truncate(NAME_CONSTRAINTS, keep)) is None
    assert _policies(truncate(POLICIES, keep)) is None
    assert _decoded(InfoAccess.parse, truncate(INFO_ACCESS, keep)) is None
    assert _decoded(CRLDistributionPoints.parse, truncate(CRL_POINTS, keep)) is None


def _damaged(payload: bytes, flips, cuts) -> bytes:
    payload = _flipped(payload, flips)
    for keep in cuts:
        payload = truncate(payload, keep)
    return payload


@settings(max_examples=examples(300), deadline=None)
@given(flips=FLIPS, cuts=st.lists(st.integers(0, 1 << 16), max_size=1))
def test_flipped_payloads_raise_nothing_else(flips, cuts):
    # An overwrite may leave a valid encoding, so either outcome is
    # allowed; an exception other than ASN1Error is not.
    assert _is_ca(_damaged(BASIC_CONSTRAINTS, flips, cuts)) in (True, False)
    constraints = _constraints(_damaged(NAME_CONSTRAINTS, flips, cuts))
    assert constraints is None or isinstance(constraints, NameConstraints)
    parsed = _policies(_damaged(POLICIES, flips, cuts))
    if parsed is not None:
        for tag, text, ok in parsed.explicit_texts:
            assert isinstance(tag, int) and isinstance(text, str) and ok in (True, False)
    access = _decoded(InfoAccess.parse, _damaged(INFO_ACCESS, flips, cuts))
    assert access is None or isinstance(access, InfoAccess)
    points = _decoded(CRLDistributionPoints.parse, _damaged(CRL_POINTS, flips, cuts))
    assert points is None or isinstance(points, CRLDistributionPoints)
