"""``Certificate.tbs_der`` is the TBSCertificate exactly as received.

The decoder takes the TBS octets as a slice of the input rather than
re-encoding the parsed tree.  For strict DER the two are identical; for
a leniently parsed certificate with a non-minimal length the slice keeps
the padding the issuer signed over.
"""

import datetime as dt

import pytest

from repro.asn1.der import encode_length, parse
from repro.asn1.errors import DERDecodeError
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.verify import verify_signature

KEY = generate_keypair(seed=512)


@pytest.fixture(scope="module")
def built():
    builder = (
        CertificateBuilder()
        .subject_cn("tbs.example.com")
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(GeneralName.dns("tbs.example.com")))
    )
    return builder.sign(KEY)


def with_padded_tbs_length(der: bytes) -> tuple[bytes, bytes]:
    """Re-frame the TBS with a zero-padded long-form length.

    Returns ``(certificate, tbs)``: the lenient certificate and its TBS
    octets as they now appear in it.
    """
    tbs = parse(der).children[0]
    original = der[tbs.offset : tbs.end]
    assert original[1] & 0x80, "test certificate TBS should use a long-form length"
    # One more length octet, a leading zero: 30 81 nn -> 30 82 00 nn.
    padded = original[:1] + bytes([original[1] + 1, 0]) + original[2:]
    content = padded + der[tbs.end :]
    return b"\x30" + encode_length(len(content)) + content, padded


class TestTbsBytes:
    def test_strict_der_slice_equals_the_re_encoding(self, built):
        der = built.to_der()
        cert = Certificate.from_der(der)
        assert cert.tbs_der == parse(der).children[0].encode()
        assert cert.tbs_der == built.tbs_der

    def test_builder_certificate_still_verifies(self, built):
        issuer = Certificate.from_der(built.to_der())
        assert verify_signature(Certificate.from_der(built.to_der()), issuer)

    def test_lenient_non_minimal_length_keeps_the_received_octets(self, built):
        der, padded = with_padded_tbs_length(built.to_der())
        with pytest.raises(DERDecodeError, match="non-minimal length"):
            Certificate.from_der(der, strict=True)
        cert = Certificate.from_der(der)
        assert cert.tbs_der == padded
        assert cert.tbs_der != built.tbs_der
        assert cert.raw == der
        assert cert.subject == built.subject

    def test_signature_binds_the_received_octets(self, built):
        # The issuer signed the minimal encoding; the padded TBS is a
        # different byte string, so its signature no longer holds.
        der, _padded = with_padded_tbs_length(built.to_der())
        assert not verify_signature(Certificate.from_der(der), built)
