"""Tests for the CT log simulator."""

import datetime as dt

from repro.ct.log import CTLog
from repro.x509.builder import CertificateBuilder
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=31)


def make_cert(cn: str, precert: bool = False):
    builder = CertificateBuilder().subject_cn(cn).not_before(dt.datetime(2024, 1, 1))
    if precert:
        builder.precertificate()
    return builder.sign(KEY)


class TestSubmission:
    def test_sct_verifies(self):
        log = CTLog(key=b"k1")
        cert = make_cert("a.example.com")
        sct = log.submit(cert)
        assert sct.verify(b"k1", cert.to_der())

    def test_sct_wrong_key_fails(self):
        log = CTLog(key=b"k1")
        cert = make_cert("a.example.com")
        sct = log.submit(cert)
        assert not sct.verify(b"other", cert.to_der())

    def test_size_grows(self):
        log = CTLog()
        for i in range(5):
            log.submit(make_cert(f"host{i}.example.com"))
        assert log.size == 5


class TestPrecertFiltering:
    def test_poison_detected(self):
        log = CTLog()
        log.submit(make_cert("pre.example.com", precert=True))
        log.submit(make_cert("final.example.com"))
        assert len(log.entries()) == 2
        regular = log.entries(include_precerts=False)
        assert len(regular) == 1
        assert regular[0].certificate.subject_common_names == ["final.example.com"]


class TestProofs:
    def test_inclusion_checks(self):
        log = CTLog()
        for i in range(9):
            log.submit(make_cert(f"host{i}.example.com"))
        for index in range(9):
            assert log.check_inclusion(index, log.prove_inclusion(index))

    def test_consistency(self):
        from repro.ct.merkle import verify_consistency

        log = CTLog()
        for i in range(4):
            log.submit(make_cert(f"host{i}.example.com"))
        old_root = log.root()
        for i in range(4, 11):
            log.submit(make_cert(f"host{i}.example.com"))
        proof = log.prove_consistency(4)
        assert verify_consistency(4, 11, old_root, log.root(), proof)
