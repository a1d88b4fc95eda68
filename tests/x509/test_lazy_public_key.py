"""``Certificate.public_key``: the SPKI decoded on first read.

A parsed certificate keeps its SubjectPublicKeyInfo as received and
decodes it the first time ``public_key`` is read; a key that does not
decode reads as ``None``.  The constructor keyword, assignment,
equality, ``repr`` and chain verification behave as with an eagerly
decoded key.
"""

import dataclasses
import datetime as dt

import pytest

from repro.asn1.der import (
    encode_bit_string,
    encode_integer,
    encode_null,
    encode_oid,
    encode_sequence,
    parse,
)
from repro.asn1.oid import OID_ORGANIZATION_NAME, OID_RSA_ENCRYPTION
from repro.lint.runner import run_lints
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import basic_constraints
from repro.x509.keys import generate_keypair
from repro.x509.name import Name
from repro.x509.verify import CertificatePool, build_chain, is_trusted, verify_signature

from .reference_decode import reference_from_der

KEY = generate_keypair(seed=42)
OTHER = generate_keypair(seed=43).public_key

_ALGORITHM = encode_sequence(encode_oid(OID_RSA_ENCRYPTION), encode_null())

#: SubjectPublicKeyInfo values that do not decode to a key.
BAD_SPKIS = {
    "primitive": encode_null(),
    "no key bits": encode_sequence(_ALGORITHM),
    "empty bit string": encode_sequence(_ALGORITHM, encode_bit_string(b"")),
    "key bits not DER": encode_sequence(_ALGORITHM, encode_bit_string(b"\x01\x02")),
    "one integer": encode_sequence(
        _ALGORITHM, encode_bit_string(encode_sequence(encode_integer(5)).encode())
    ),
    "empty modulus": encode_sequence(
        _ALGORITHM, encode_bit_string(b"\x30\x05\x02\x00\x02\x01\x03")
    ),
}


def build(**kwargs):
    builder = CertificateBuilder().serial(5).subject_cn("key.example")
    if "subject_key" in kwargs:
        builder.public_key(kwargs["subject_key"])
    return builder.sign(KEY)


def with_spki(der: bytes, spki) -> bytes:
    """``der`` with its SubjectPublicKeyInfo element replaced by ``spki``."""
    root = parse(der)
    tbs = root.children[0]
    tbs.children[6] = spki  # after version, serial, algorithm, issuer, validity, subject
    return root.encode()


def without_spki(der: bytes) -> bytes:
    root = parse(der)
    del root.children[0].children[6:]
    return root.encode()


class TestDecodedOnFirstRead:
    def test_builder_certificate_keeps_its_key(self):
        cert = build()
        assert cert._spki_der is not None
        assert cert.public_key == KEY.public_key
        assert cert._spki_der is None
        assert cert.public_key.verify(cert.tbs_der, cert.signature)

    def test_builder_subject_key(self):
        assert build(subject_key=OTHER).public_key == OTHER

    def test_lint_leaves_the_key_undecoded(self):
        cert = Certificate.from_der(build().to_der())
        run_lints(cert)
        assert cert._spki_der is not None


class TestMalformedKey:
    @pytest.mark.parametrize("name", sorted(BAD_SPKIS))
    def test_decodes_to_none_and_never_raises(self, name):
        der = with_spki(build().to_der(), BAD_SPKIS[name])
        cert = Certificate.from_der(der)
        report = run_lints(cert)
        assert report.results
        assert cert.public_key is None
        assert reference_from_der(der).public_key is None
        assert cert == reference_from_der(der)

    def test_missing_spki_reads_as_none(self):
        der = without_spki(build().to_der())
        cert = Certificate.from_der(der)
        run_lints(cert)
        assert cert.public_key is None
        assert cert._spki_der is None


class TestModel:
    def test_constructor_keyword(self):
        when = dt.datetime(2024, 1, 1)
        fields = dict(
            serial=1, issuer=Name(), subject=Name(), not_before=when, not_after=when
        )
        assert Certificate(**fields, public_key=OTHER).public_key is OTHER
        assert Certificate(**fields).public_key is None

    def test_assignment_replaces_the_received_key(self):
        cert = build()
        cert.public_key = OTHER
        assert cert.public_key is OTHER
        cert.public_key = None
        assert cert.public_key is None

    def test_equality_and_repr(self):
        der = build().to_der()
        first = Certificate.from_der(der)
        second = Certificate.from_der(der)
        assert first == second
        assert second._spki_der is None  # equality read the key
        replaced = dataclasses.replace(first, public_key=OTHER)
        assert replaced.public_key is OTHER
        assert replaced != first
        assert "key.example" in repr(first)

    def test_verify_chain(self):
        root_key = generate_keypair(seed=1)
        root_name = Name.build([(OID_ORGANIZATION_NAME, "Lazy Root")])
        root = (
            CertificateBuilder()
            .subject_name(root_name)
            .add_extension(basic_constraints(ca=True))
            .sign(root_key)
        )
        leaf = CertificateBuilder().subject_cn("leaf.example").issuer_name(root_name).sign(root_key)
        root = Certificate.from_der(root.to_der())
        leaf = Certificate.from_der(leaf.to_der())
        pool = CertificatePool()
        pool.add(root)
        assert verify_signature(leaf, root)
        assert build_chain(leaf, pool) == [leaf, root]
        assert is_trusted(leaf, pool, {root.fingerprint()})

    def test_malformed_issuer_key_fails_verification(self):
        root_key = generate_keypair(seed=1)
        root_name = Name.build([(OID_ORGANIZATION_NAME, "Broken Root")])
        root = CertificateBuilder().subject_name(root_name).sign(root_key)
        broken = Certificate.from_der(with_spki(root.to_der(), BAD_SPKIS["key bits not DER"]))
        leaf = CertificateBuilder().subject_cn("leaf.example").issuer_name(root_name).sign(root_key)
        assert not verify_signature(leaf, broken)
