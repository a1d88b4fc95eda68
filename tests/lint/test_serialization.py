"""Tests for JSON serialization of lint reports."""

import datetime as dt
import json

from repro.lint.runner import run_lints, summarize
from repro.lint.serialization import (
    report_to_dict,
    report_to_json,
    summary_to_dict,
)
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=161)


def dirty_cert():
    return (
        CertificateBuilder()
        .subject_cn("bad\x00.example.com")
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(GeneralName.dns("bad\x00.example.com")))
        .sign(KEY)
    )


class TestReportSerialization:
    def test_round_trips_through_json(self):
        cert = dirty_cert()
        report = run_lints(cert)
        payload = json.loads(report_to_json(report, cert))
        assert payload["noncompliant"] is True
        assert payload["certificate"]["serial"] == 1
        names = [f["lint"] for f in payload["findings"]]
        assert "e_rfc_subject_dn_not_printable_characters" in names

    def test_finding_fields(self):
        report = run_lints(dirty_cert())
        finding = report_to_dict(report)["findings"][0]
        for key in ("lint", "status", "severity", "type", "new", "source",
                    "citation", "effective_date"):
            assert key in finding

    def test_unicode_survives(self):
        key = generate_keypair(seed=162)
        from repro.asn1.oid import OID_ORGANIZATION_NAME

        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .subject_attr(OID_ORGANIZATION_NAME, "Störi AG ")
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(subject_alt_name(GeneralName.dns("ok.example.com")))
            .sign(key)
        )
        text = report_to_json(run_lints(cert), cert)
        assert "Störi" in text  # ensure_ascii=False

    def test_include_passes(self):
        report = run_lints(dirty_cert())
        payload = report_to_dict(report, include_passes=True)
        assert "passes" in payload and payload["passes"]

    def test_suppressed_section(self):
        old = (
            CertificateBuilder()
            .subject_cn("old.example.com")
            .not_before(dt.datetime(2009, 1, 1))
            .sign(KEY)
        )
        payload = report_to_dict(run_lints(old))
        suppressed = [f["lint"] for f in payload["suppressed_by_effective_date"]]
        assert "w_cab_subject_common_name_not_in_san" in suppressed


class TestSummarySerialization:
    def test_summary_dict(self):
        summary = summarize([run_lints(dirty_cert())])
        payload = summary_to_dict(summary)
        assert payload["total"] == 1
        assert payload["noncompliant"] == 1
        assert json.dumps(payload)  # serializable


class TestRoundTripFidelity:
    """PR 2 satellite: report_to_json → parse → the same findings,
    severities, and citations as the in-memory report objects."""

    def _crafted_noncompliant(self):
        key = generate_keypair(seed=163)
        from repro.asn1.oid import OID_ORGANIZATION_NAME

        # NUL in the CN, trailing space in O, CN absent from the SAN:
        # several distinct lints with distinct severities fire at once.
        return (
            CertificateBuilder()
            .subject_cn("evil\x00.example.com")
            .subject_attr(OID_ORGANIZATION_NAME, "Tricky Corp ")
            .not_before(dt.datetime(2024, 6, 1))
            .add_extension(subject_alt_name(GeneralName.dns("other.example.net")))
            .sign(key)
        )

    def test_findings_severities_citations_survive(self):
        cert = self._crafted_noncompliant()
        report = run_lints(cert)
        assert report.findings, "crafted cert must be noncompliant"
        parsed = json.loads(report_to_json(report, cert))

        expected = [
            {
                "lint": r.lint.name,
                "status": r.status.value,
                "severity": r.lint.severity.value,
                "type": r.lint.nc_type.value,
                "citation": r.lint.citation,
            }
            for r in report.findings
        ]
        actual = [
            {k: f[k] for k in ("lint", "status", "severity", "type", "citation")}
            for f in parsed["findings"]
        ]
        assert actual == expected
        assert len({f["severity"] for f in parsed["findings"]}) >= 1
        assert all(f["citation"] for f in parsed["findings"])

    def test_parse_reserialize_is_stable(self):
        cert = self._crafted_noncompliant()
        report = run_lints(cert)
        text = report_to_json(report, cert)
        reserialized = json.dumps(
            json.loads(text), indent=2, ensure_ascii=False, sort_keys=True
        )
        assert reserialized == text

    def test_certificate_block_matches_cert(self):
        cert = self._crafted_noncompliant()
        parsed = json.loads(report_to_json(run_lints(cert), cert))
        block = parsed["certificate"]
        assert block["fingerprint_sha256"] == cert.fingerprint()
        assert block["serial"] == cert.serial
        assert block["subject"] == cert.subject.rfc4514_string()
        assert block["not_before"] == cert.not_before.isoformat()

    def test_suppressed_findings_round_trip_too(self):
        key = generate_keypair(seed=164)
        old = (
            CertificateBuilder()
            .subject_cn("vintage.example.com")
            .not_before(dt.datetime(2009, 1, 1))
            .sign(key)
        )
        report = run_lints(old)
        parsed = json.loads(report_to_json(report, old))
        assert [f["lint"] for f in parsed["suppressed_by_effective_date"]] == [
            r.lint.name for r in report.suppressed_by_effective_date
        ]
        assert parsed["noncompliant_ignoring_effective_dates"] is bool(
            report.noncompliant_ignoring_dates
        )
