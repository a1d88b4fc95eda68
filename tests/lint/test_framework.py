"""Tests for the lint framework, registry shape, and effective dates."""

import datetime as dt

from repro.lint.framework import (
    CABF_BR_DATE,
    LintStatus,
    NoncomplianceType,
    REGISTRY,
    RFC5280_DATE,
    Severity,
)
from repro.lint.runner import run_lints
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=99)


def clean_cert():
    return (
        CertificateBuilder()
        .subject_cn("clean.example.com")
        .add_extension(subject_alt_name(GeneralName.dns("clean.example.com")))
        .not_before(dt.datetime(2024, 2, 1))
        .validity_days(90)
        .sign(KEY)
    )


class TestRegistryShape:
    """The registry must match the paper's Table 1 exactly."""

    def test_total_95(self):
        assert len(REGISTRY) == 95

    def test_new_50(self):
        assert len(REGISTRY.new_lints()) == 50

    def test_invalid_character_22_10(self):
        lints = REGISTRY.by_type(NoncomplianceType.INVALID_CHARACTER)
        assert len(lints) == 22
        assert sum(1 for l in lints if l.metadata.new) == 10

    def test_bad_normalization_4_3(self):
        lints = REGISTRY.by_type(NoncomplianceType.BAD_NORMALIZATION)
        assert len(lints) == 4
        assert sum(1 for l in lints if l.metadata.new) == 3

    def test_illegal_format_17_0(self):
        lints = REGISTRY.by_type(NoncomplianceType.ILLEGAL_FORMAT)
        assert len(lints) == 17
        assert sum(1 for l in lints if l.metadata.new) == 0

    def test_invalid_encoding_48_37(self):
        lints = REGISTRY.by_type(NoncomplianceType.INVALID_ENCODING)
        assert len(lints) == 48
        assert sum(1 for l in lints if l.metadata.new) == 37

    def test_invalid_structure_2_0(self):
        lints = REGISTRY.by_type(NoncomplianceType.INVALID_STRUCTURE)
        assert len(lints) == 2
        assert sum(1 for l in lints if l.metadata.new) == 0

    def test_discouraged_field_2_0(self):
        lints = REGISTRY.by_type(NoncomplianceType.DISCOURAGED_FIELD)
        assert len(lints) == 2
        assert sum(1 for l in lints if l.metadata.new) == 0

    def test_severity_prefix_mostly_consistent(self):
        # e_* lints are ERROR; w_* are WARN, with the paper's one known
        # exception (w_cab_subject_common_name_not_in_san is a MUST).
        exceptions = {"w_cab_subject_common_name_not_in_san"}
        for lint in REGISTRY.all():
            name, severity = lint.metadata.name, lint.metadata.severity
            if name in exceptions:
                assert severity is Severity.ERROR
            elif name.startswith("e_"):
                assert severity is Severity.ERROR, name
            elif name.startswith("w_"):
                assert severity is Severity.WARN, name

    def test_all_have_effective_dates(self):
        for lint in REGISTRY.all():
            assert lint.metadata.effective_date is not None

    def test_all_have_citations(self):
        for lint in REGISTRY.all():
            assert lint.metadata.citation


class TestTable11Lints:
    """Every lint named in the paper's Table 11 must exist with the right type."""

    TABLE11 = {
        "w_rfc_ext_cp_explicit_text_not_utf8": NoncomplianceType.INVALID_ENCODING,
        "w_cab_subject_common_name_not_in_san": NoncomplianceType.INVALID_STRUCTURE,
        "e_rfc_dns_idn_a2u_unpermitted_unichar": NoncomplianceType.INVALID_CHARACTER,
        "e_subject_organization_not_printable_or_utf8": NoncomplianceType.INVALID_ENCODING,
        "e_subject_common_name_not_printable_or_utf8": NoncomplianceType.INVALID_ENCODING,
        "e_subject_locality_not_printable_or_utf8": NoncomplianceType.INVALID_ENCODING,
        "e_rfc_subject_dn_not_printable_characters": NoncomplianceType.INVALID_CHARACTER,
        "e_subject_ou_not_printable_or_utf8": NoncomplianceType.INVALID_ENCODING,
        "e_subject_jurisdiction_locality_not_printable_or_utf8": NoncomplianceType.INVALID_ENCODING,
        "e_rfc_ext_cp_explicit_text_too_long": NoncomplianceType.ILLEGAL_FORMAT,
        "e_subject_jurisdiction_state_not_printable_or_utf8": NoncomplianceType.INVALID_ENCODING,
        "e_rfc_ext_cp_explicit_text_ia5": NoncomplianceType.INVALID_ENCODING,
        "e_subject_jurisdiction_country_not_printable": NoncomplianceType.INVALID_ENCODING,
        "e_subject_state_not_printable_or_utf8": NoncomplianceType.INVALID_ENCODING,
        "e_rfc_subject_printable_string_badalpha": NoncomplianceType.INVALID_CHARACTER,
        "w_community_subject_dn_trailing_whitespace": NoncomplianceType.INVALID_CHARACTER,
        "e_subject_postal_code_not_printable_or_utf8": NoncomplianceType.INVALID_ENCODING,
        "e_subject_street_not_printable_or_utf8": NoncomplianceType.INVALID_ENCODING,
        "w_cab_subject_contain_extra_common_name": NoncomplianceType.DISCOURAGED_FIELD,
        "e_subject_dn_serial_number_not_printable": NoncomplianceType.INVALID_ENCODING,
        "w_community_subject_dn_leading_whitespace": NoncomplianceType.INVALID_CHARACTER,
        "e_rfc_subject_country_not_printable": NoncomplianceType.INVALID_ENCODING,
        "e_rfc_dns_idn_malformed_unicode": NoncomplianceType.INVALID_CHARACTER,
        "e_cab_dns_bad_character_in_label": NoncomplianceType.INVALID_CHARACTER,
        "e_ext_san_dns_contain_unpermitted_unichar": NoncomplianceType.INVALID_CHARACTER,
    }

    def test_all_present_with_correct_type(self):
        for name, nc_type in self.TABLE11.items():
            assert name in REGISTRY, name
            assert REGISTRY.get(name).metadata.nc_type is nc_type, name

    def test_new_flags_match_table11(self):
        new_names = {
            "e_rfc_dns_idn_a2u_unpermitted_unichar",
            "e_subject_organization_not_printable_or_utf8",
            "e_subject_common_name_not_printable_or_utf8",
            "e_subject_locality_not_printable_or_utf8",
            "e_subject_ou_not_printable_or_utf8",
            "e_subject_jurisdiction_locality_not_printable_or_utf8",
            "e_subject_jurisdiction_state_not_printable_or_utf8",
            "e_subject_jurisdiction_country_not_printable",
            "e_subject_state_not_printable_or_utf8",
            "e_subject_postal_code_not_printable_or_utf8",
            "e_subject_street_not_printable_or_utf8",
            "e_ext_san_dns_contain_unpermitted_unichar",
        }
        for name in self.TABLE11:
            assert REGISTRY.get(name).metadata.new is (name in new_names), name


class TestRunner:
    def test_clean_cert_compliant(self):
        report = run_lints(clean_cert())
        assert not report.noncompliant, report.fired_lints()

    def test_effective_date_suppression(self):
        # A pre-BR cert with a CN not in SAN is suppressed, not flagged.
        cert = (
            CertificateBuilder()
            .subject_cn("old.example.com")
            .not_before(dt.datetime(2009, 1, 1))
            .validity_days(365)
            .sign(KEY)
        )
        report = run_lints(cert)
        fired = report.fired_lints()
        assert "w_cab_subject_common_name_not_in_san" not in fired
        suppressed = [r.lint.name for r in report.suppressed_by_effective_date]
        assert "w_cab_subject_common_name_not_in_san" in suppressed
        assert report.noncompliant_ignoring_dates

    def test_effective_dates_can_be_ignored(self):
        cert = (
            CertificateBuilder()
            .subject_cn("old.example.com")
            .not_before(dt.datetime(2009, 1, 1))
            .sign(KEY)
        )
        report = run_lints(cert, respect_effective_dates=False)
        assert "w_cab_subject_common_name_not_in_san" in report.fired_lints()

    def test_explicit_issue_date_overrides_not_before(self):
        cert = (
            CertificateBuilder()
            .subject_cn("x.example.com")
            .not_before(dt.datetime(2009, 1, 1))
            .sign(KEY)
        )
        report = run_lints(cert, issued_at=dt.datetime(2020, 1, 1))
        assert "w_cab_subject_common_name_not_in_san" in report.fired_lints()

    def test_na_results_dropped(self):
        report = run_lints(clean_cert())
        names = {r.lint.name for r in report.results}
        # No CRLDP on the clean cert, so its lints must not appear.
        assert "e_crldp_uri_contains_control_characters" not in names


class TestEffectiveDateTimezones:
    """Mixed naive/aware ``issued_at`` values must not raise; aware
    values are projected onto UTC-naive at the boundary."""

    def _nosan_cert(self, when):
        return (
            CertificateBuilder()
            .subject_cn("tz.example.com")
            .not_before(when)
            .validity_days(365)
            .sign(KEY)
        )

    def test_aware_issued_at_does_not_raise(self):
        cert = self._nosan_cert(dt.datetime(2020, 1, 1))
        aware = dt.datetime(2020, 1, 1, tzinfo=dt.timezone.utc)
        report = run_lints(cert, issued_at=aware)
        assert "w_cab_subject_common_name_not_in_san" in report.fired_lints()

    def test_aware_and_naive_agree(self):
        cert = self._nosan_cert(dt.datetime(2009, 6, 1))
        naive = dt.datetime(2009, 6, 1)
        aware = dt.datetime(2009, 6, 1, tzinfo=dt.timezone.utc)
        naive_report = run_lints(cert, issued_at=naive)
        aware_report = run_lints(cert, issued_at=aware)
        assert [(r.lint.name, r.status) for r in naive_report.results] == [
            (r.lint.name, r.status) for r in aware_report.results
        ]

    def test_aware_suppression_before_effective_date(self):
        cert = self._nosan_cert(dt.datetime(2009, 1, 1))
        aware = dt.datetime(2009, 1, 1, tzinfo=dt.timezone.utc)
        report = run_lints(cert, issued_at=aware)
        suppressed = [r.lint.name for r in report.suppressed_by_effective_date]
        assert "w_cab_subject_common_name_not_in_san" in suppressed

    def test_offset_projection_crosses_effective_date(self):
        # 2012-07-01 03:00 at +07:00 is 2012-06-30 20:00 UTC — still
        # *before* the CABF BR effective date once projected.
        cert = self._nosan_cert(dt.datetime(2012, 6, 1))
        east = dt.timezone(dt.timedelta(hours=7))
        aware = dt.datetime(2012, 7, 1, 3, 0, tzinfo=east)
        report = run_lints(cert, issued_at=aware)
        suppressed = [r.lint.name for r in report.suppressed_by_effective_date]
        assert "w_cab_subject_common_name_not_in_san" in suppressed

    def test_to_utc_naive_helper(self):
        from repro.lint.framework import to_utc_naive

        naive = dt.datetime(2024, 5, 1, 12, 0)
        assert to_utc_naive(naive) is naive
        east = dt.timezone(dt.timedelta(hours=2))
        aware = dt.datetime(2024, 5, 1, 12, 0, tzinfo=east)
        assert to_utc_naive(aware) == dt.datetime(2024, 5, 1, 10, 0)
        assert to_utc_naive(aware).tzinfo is None
