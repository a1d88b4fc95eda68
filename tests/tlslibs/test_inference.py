"""Tests for the Section 3.2 inference engine and differential harness."""

from repro.asn1.tags import UniversalTag
from repro.tlslibs.base import CharHandling, DecodePractice, DecodingMethod
from repro.tlslibs.differential import (
    TABLE4_SCENARIOS,
    Violation,
    derive_charcheck_report,
    derive_decoding_matrix,
)
from repro.tlslibs.inference import classify, infer_decoding
from repro.tlslibs.profiles import (
    ALL_PROFILES,
    CRYPTOGRAPHY,
    FORGE,
    GNUTLS,
    GO_CRYPTO,
    JAVA_SECURITY_CERT,
    NODEJS_CRYPTO,
    OPENSSL,
    PYOPENSSL,
)


class TestInference:
    def test_gnutls_printable_inferred_utf8(self):
        result = infer_decoding(GNUTLS, UniversalTag.PRINTABLE_STRING, "dn")
        assert result.method is DecodingMethod.UTF_8
        assert result.practice is DecodePractice.OVER_TOLERANT

    def test_forge_utf8_inferred_latin1(self):
        result = infer_decoding(FORGE, UniversalTag.UTF8_STRING, "dn")
        assert result.method is DecodingMethod.ISO_8859_1
        assert result.practice is DecodePractice.INCOMPATIBLE

    def test_openssl_modified(self):
        result = infer_decoding(OPENSSL, UniversalTag.PRINTABLE_STRING, "dn")
        assert result.handling is CharHandling.ESCAPING
        assert result.practice is DecodePractice.MODIFIED

    def test_java_replacement(self):
        result = infer_decoding(JAVA_SECURITY_CERT, UniversalTag.PRINTABLE_STRING, "dn")
        assert result.handling is CharHandling.REPLACEMENT
        assert result.practice is DecodePractice.MODIFIED

    def test_go_compliant(self):
        result = infer_decoding(GO_CRYPTO, UniversalTag.PRINTABLE_STRING, "dn")
        assert result.method is DecodingMethod.ASCII
        assert result.practice is DecodePractice.COMPLIANT

    def test_node_gn_compliant(self):
        result = infer_decoding(NODEJS_CRYPTO, UniversalTag.IA5_STRING, "gn")
        assert result.method is DecodingMethod.ASCII
        assert result.practice is DecodePractice.COMPLIANT

    def test_gnutls_ia5_dn_unsupported(self):
        result = infer_decoding(GNUTLS, UniversalTag.IA5_STRING, "dn")
        assert result.practice is DecodePractice.UNSUPPORTED

    def test_bmp_over_tolerant_utf16(self):
        result = infer_decoding(CRYPTOGRAPHY, UniversalTag.BMP_STRING, "dn")
        assert result.method is DecodingMethod.UTF_16
        assert result.practice is DecodePractice.OVER_TOLERANT


class TestClassify:
    def test_standard_is_compliant(self):
        assert (
            classify(UniversalTag.UTF8_STRING, DecodingMethod.UTF_8, CharHandling.NONE)
            is DecodePractice.COMPLIANT
        )

    def test_ascii_widening_is_over_tolerant(self):
        assert (
            classify(UniversalTag.IA5_STRING, DecodingMethod.ISO_8859_1, CharHandling.NONE)
            is DecodePractice.OVER_TOLERANT
        )

    def test_utf8_narrowing_is_incompatible(self):
        assert (
            classify(UniversalTag.UTF8_STRING, DecodingMethod.ISO_8859_1, CharHandling.NONE)
            is DecodePractice.INCOMPATIBLE
        )

    def test_bmp_as_ascii_is_incompatible(self):
        assert (
            classify(UniversalTag.BMP_STRING, DecodingMethod.ASCII, CharHandling.NONE)
            is DecodePractice.INCOMPATIBLE
        )

    def test_handling_forces_modified(self):
        assert (
            classify(UniversalTag.IA5_STRING, DecodingMethod.ASCII, CharHandling.ESCAPING)
            is DecodePractice.MODIFIED
        )


class TestTable4Matrix:
    def test_full_matrix_derivable(self):
        matrix = derive_decoding_matrix(ALL_PROFILES)
        assert len(matrix.cells) == len(TABLE4_SCENARIOS) * len(ALL_PROFILES)

    def test_headline_cells(self):
        matrix = derive_decoding_matrix(ALL_PROFILES)
        assert (
            matrix.cell("UTF8String in Name", "Forge").practice
            is DecodePractice.INCOMPATIBLE
        )
        assert (
            matrix.cell("PrintableString in Name", "GnuTLS").practice
            is DecodePractice.OVER_TOLERANT
        )
        assert (
            matrix.cell("PrintableString in Name", "OpenSSL").practice
            is DecodePractice.MODIFIED
        )
        assert (
            matrix.cell("IA5String in GN", "OpenSSL").practice
            is DecodePractice.UNSUPPORTED
        )

    def test_every_library_has_some_deviation(self):
        # Paper: anomalies were uncovered in all 9 tested libraries.
        matrix = derive_decoding_matrix(ALL_PROFILES)
        report = derive_charcheck_report(ALL_PROFILES)
        for profile in ALL_PROFILES:
            deviations = [
                cell
                for (scenario, lib), cell in matrix.cells.items()
                if lib == profile.name
                and cell.practice
                in (
                    DecodePractice.OVER_TOLERANT,
                    DecodePractice.INCOMPATIBLE,
                    DecodePractice.MODIFIED,
                )
            ]
            violations = [
                value
                for (row, lib), value in report.cells.items()
                if lib == profile.name
                and value in (Violation.UNEXPLOITED, Violation.EXPLOITED)
            ]
            assert deviations or violations, profile.name

    def test_rows_rendering(self):
        matrix = derive_decoding_matrix(ALL_PROFILES)
        rows = matrix.rows([p.name for p in ALL_PROFILES])
        assert len(rows) == 5
        assert all(len(cells) == 9 for _label, cells in rows)


class TestTable5Report:
    def test_character_violations_everywhere(self):
        # Paper: each library exhibited at least one violation in
        # handling special characters.
        report = derive_charcheck_report(ALL_PROFILES)
        for profile in ALL_PROFILES:
            violations = [
                value
                for (row, lib), value in report.cells.items()
                if lib == profile.name
                and value in (Violation.UNEXPLOITED, Violation.EXPLOITED)
            ]
            assert violations, profile.name

    def test_openssl_dn_escaping_exploited(self):
        report = derive_charcheck_report(ALL_PROFILES)
        assert report.cell("DN RFC4514 Violations", "OpenSSL") == Violation.EXPLOITED

    def test_pyopenssl_gn_escaping_exploited(self):
        report = derive_charcheck_report(ALL_PROFILES)
        assert report.cell("GN RFC4514 Violations", "PyOpenSSL") == Violation.EXPLOITED

    def test_node_gn_escaping_unexploited(self):
        report = derive_charcheck_report(ALL_PROFILES)
        assert report.cell("GN RFC4514 Violations", "Node.js Crypto") == Violation.UNEXPLOITED

    def test_go_printable_properly_rejected(self):
        report = derive_charcheck_report(ALL_PROFILES)
        assert report.cell("PrintableString Violations", "Golang Crypto") == Violation.NONE

    def test_incompatible_bmp_excluded(self):
        # Appendix E (iv): OpenSSL/Java BMP cells are '-'.
        report = derive_charcheck_report(ALL_PROFILES)
        assert report.cell("BMPString Violations", "OpenSSL") == Violation.NOT_TESTED
        assert report.cell("BMPString Violations", "Java.security.cert") == Violation.NOT_TESTED

    def test_structured_dn_libraries_excluded_from_escaping(self):
        report = derive_charcheck_report(ALL_PROFILES)
        assert report.cell("DN RFC2253 Violations", "Golang Crypto") == Violation.NOT_TESTED

    def test_rfc4514_documented_libraries_only_checked_against_4514(self):
        report = derive_charcheck_report(ALL_PROFILES)
        assert report.cell("DN RFC4514 Violations", "Cryptography") == Violation.NONE
        assert report.cell("DN RFC2253 Violations", "Cryptography") == Violation.NOT_TESTED
