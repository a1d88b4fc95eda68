"""Quickstart: build a Unicert, lint it, inspect the findings.

Run with:  python examples/quickstart.py
"""

import datetime as dt

from repro.asn1.strings import BMP_STRING
from repro.asn1.oid import OID_ORGANIZATION_NAME
from repro.lint.runner import run_lints
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair


def main() -> None:
    key = generate_keypair(seed=42)

    # A compliant internationalized certificate: IDN in A-label form,
    # CN mirrored in the SAN, UTF8String subject attributes.
    good = (
        CertificateBuilder()
        .subject_cn("xn--mnchen-3ya.example.de")
        .subject_attr(OID_ORGANIZATION_NAME, "Münchener Beispiel GmbH")
        .not_before(dt.datetime(2024, 6, 1))
        .validity_days(90)
        .add_extension(subject_alt_name(GeneralName.dns("xn--mnchen-3ya.example.de")))
        .sign(key)
    )
    report = run_lints(good)
    print(f"compliant cert -> findings: {len(report.findings)}")

    # A noncompliant Unicert: BMPString organization, control character
    # in the CN, deceptive IDN label, CN missing from the SAN.
    bad = (
        CertificateBuilder()
        .subject_cn("xn--www-hn0a.example.com")
        .subject_attr(OID_ORGANIZATION_NAME, "Evil\x00 Entity", BMP_STRING)
        .not_before(dt.datetime(2024, 6, 1))
        .validity_days(1095)
        .add_extension(subject_alt_name(GeneralName.dns("other.example.com")))
        .sign(key)
    )
    report = run_lints(bad)
    print(f"noncompliant cert -> findings: {len(report.findings)}")
    for result in report.findings:
        marker = "ERROR" if result.status.value == "error" else "WARN "
        print(f"  [{marker}] {result.lint.name}: {result.details}")
        print(f"          source: {result.lint.citation}")


if __name__ == "__main__":
    main()
