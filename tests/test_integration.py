"""End-to-end integration tests across all subsystems.

Each test wires several packages together the way the paper's pipeline
does: CA issuance → CT logging → monitor indexing → linting → analysis,
and crafted certificate → library parsing → threat outcome.
"""

import datetime as dt

import pytest

from repro.analysis.compliance import build_table1, lint_corpus
from repro.ct.corpus import CorpusGenerator
from repro.ct.log import CTLog
from repro.ct.monitors import ALL_MONITORS
from repro.lint.runner import run_lints
from repro.tlslibs.hostname import verify_hostname
from repro.tlslibs.profiles import ALL_PROFILES, PYOPENSSL
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.verify import build_chain


class TestIssuanceToMonitoringPipeline:
    """CA issues -> CT log accepts -> monitors index -> owner queries."""

    def test_full_flow(self):
        key = generate_keypair(seed=201)
        log = CTLog(name="pipeline-log")
        monitors = ALL_MONITORS()
        domains = [f"site{i}.example.com" for i in range(5)] + ["xn--mnchen-3ya.de"]
        certs = []
        for domain in domains:
            precert = (
                CertificateBuilder()
                .subject_cn(domain)
                .not_before(dt.datetime(2024, 3, 1))
                .validity_days(90)
                .add_extension(subject_alt_name(GeneralName.dns(domain)))
                .precertificate()
                .sign(key)
            )
            sct = log.submit(precert)
            assert sct.verify(b"sim-log-key", precert.to_der())
            final = (
                CertificateBuilder()
                .subject_cn(domain)
                .not_before(dt.datetime(2024, 3, 1))
                .validity_days(90)
                .add_extension(subject_alt_name(GeneralName.dns(domain)))
                .sign(key)
            )
            log.submit(final)
            certs.append(final)
        # Precert filtering matches the paper's 54.7%-precert filtering step.
        regular = log.entries(include_precerts=False)
        assert len(regular) == len(domains)
        # Monitors index the regular set; owner queries succeed.
        for monitor in monitors:
            for entry in regular:
                monitor.submit(entry.certificate)
            assert monitor.search("xn--mnchen-3ya.de").matches, monitor.name
        # Inclusion proofs hold for every entry.
        for index in range(log.size):
            assert log.check_inclusion(index, log.prove_inclusion(index))

    def test_logged_cert_der_survives_reparse(self):
        key = generate_keypair(seed=202)
        cert = (
            CertificateBuilder()
            .subject_cn("reparse.example.com")
            .not_before(dt.datetime(2024, 1, 1))
            .sign(key)
        )
        log = CTLog()
        log.submit(cert)
        reparsed = Certificate.from_der(log.entry(0).certificate.to_der())
        assert reparsed.fingerprint() == cert.fingerprint()


class TestCorpusToAnalysisPipeline:
    """Corpus generation -> real linting -> table computation."""

    def test_small_end_to_end(self):
        corpus = CorpusGenerator(seed=33, scale=1 / 50000).generate()
        reports = lint_corpus(corpus)
        table = build_table1(corpus, reports)
        assert table.total_certs == len(corpus.records)
        assert table.nc_certs >= 3  # the NFC trio at minimum
        # Chain verification works against the emitted CA pool.
        pool = corpus.ca_pool()
        record = corpus.records[0]
        chain = build_chain(record.certificate, pool)
        assert chain[-1].is_ca


class TestCraftedCertAcrossStack:
    """One crafted cert exercises linter, parsers, and hostname checks."""

    def test_bmp_cn_cert(self):
        key = generate_keypair(seed=203)
        from repro.asn1.strings import BMP_STRING

        crafted = (
            CertificateBuilder()
            .subject_cn("杩瑨畢攮据", spec=BMP_STRING)
            .not_before(dt.datetime(2024, 1, 1))
            .sign(key)
        )
        # The linter flags the encoding violation.
        report = run_lints(crafted)
        assert "e_subject_common_name_not_printable_or_utf8" in report.fired_lints()
        # Libraries disagree on the parsed CN.
        parsed = {p.name: p.common_name(crafted) for p in ALL_PROFILES}
        assert len(set(parsed.values())) > 1
        # And the disagreement is exactly the hostname-bypass surface.
        verdicts = {
            p.name: verify_hostname(p, crafted, "githube.cn").matched
            for p in ALL_PROFILES
        }
        assert any(verdicts.values()) and not all(verdicts.values())

    def test_subfield_forgery_cert(self):
        key = generate_keypair(seed=204)
        crafted = (
            CertificateBuilder()
            .subject_cn("a.com")
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(subject_alt_name(GeneralName.dns("a.com, DNS:b.com")))
            .sign(key)
        )
        # Linter: whitespace + bad label characters in the DNSName.
        fired = set(run_lints(crafted).fired_lints())
        assert "e_cab_dns_name_contains_whitespace" in fired
        # PyOpenSSL's text form is forgeable...
        assert PYOPENSSL.san_string(crafted) == "DNS:a.com, DNS:b.com"
        # ...but hostname verification over structured names is not.
        assert not verify_hostname(PYOPENSSL, crafted, "b.com").matched
