"""Behavioural tests for Illegal Format, Invalid Structure, Discouraged Field,
and Bad Normalization lints."""

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.asn1.strings import IA5_STRING, UTF8_STRING
from repro.asn1.oid import (
    OID_COUNTRY_NAME,
    OID_CP_DOMAIN_VALIDATED,
    OID_ORGANIZATION_NAME,
    OID_QT_UNOTICE,
)
from repro.lint import structure
from repro.lint.runner import run_lints
from repro.uni.idna import domain_to_ascii
from repro.uni.normalization import case_fold_equal
from repro.uni.errors import IDNAError, PunycodeError
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import (
    PolicyInformation,
    PolicyQualifier,
    UserNotice,
    certificate_policies,
    subject_alt_name,
)
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

KEY = generate_keypair(seed=13)
WHEN = dt.datetime(2024, 6, 1)


def builder(cn="ok.example.com", san=True):
    b = CertificateBuilder().subject_cn(cn).not_before(WHEN)
    if san:
        b.add_extension(subject_alt_name(GeneralName.dns(cn)))
    return b


def fired(cert):
    return set(run_lints(cert).fired_lints())


class TestLengthLints:
    def test_cn_too_long(self):
        long_cn = "a" * 70 + ".example.com"
        cert = builder(cn=long_cn).sign(KEY)
        assert "e_subject_common_name_max_length" in fired(cert)

    def test_o_too_long(self):
        cert = builder().subject_attr(OID_ORGANIZATION_NAME, "x" * 65).sign(KEY)
        assert "e_subject_organization_name_max_length" in fired(cert)

    def test_within_bounds_passes(self):
        cert = builder().subject_attr(OID_ORGANIZATION_NAME, "x" * 64).sign(KEY)
        assert "e_subject_organization_name_max_length" not in fired(cert)


class TestCountryShape:
    def test_full_country_name(self):
        cert = builder().subject_attr(OID_COUNTRY_NAME, "Germany").sign(KEY)
        assert "e_subject_country_not_two_letter" in fired(cert)

    def test_lowercase(self):
        cert = builder().subject_attr(OID_COUNTRY_NAME, "de").sign(KEY)
        assert "e_subject_country_not_uppercase" in fired(cert)

    def test_comma_variant(self):
        # Paper F5: "DE,de" style values.
        cert = builder().subject_attr(OID_COUNTRY_NAME, "DE,de").sign(KEY)
        assert "e_subject_country_not_two_letter" in fired(cert)

    def test_clean(self):
        cert = builder().subject_attr(OID_COUNTRY_NAME, "DE").sign(KEY)
        found = fired(cert)
        assert "e_subject_country_not_two_letter" not in found
        assert "e_subject_country_not_uppercase" not in found


class TestDNSShape:
    def test_label_too_long(self):
        name = "b" * 64 + ".example.com"
        cert = builder(cn=name).sign(KEY)
        assert "e_dns_label_too_long" in fired(cert)

    def test_name_too_long(self):
        name = ".".join(["a" * 60] * 5) + ".com"
        cert = builder(cn=name).sign(KEY)
        assert "e_dns_name_too_long" in fired(cert)

    def test_empty_label(self):
        cert = builder(cn="a..example.com").sign(KEY)
        assert "e_dns_label_empty" in fired(cert)

    def test_hyphen_edge(self):
        cert = builder(cn="-bad.example.com").sign(KEY)
        assert "e_dns_label_hyphen_at_edge" in fired(cert)

    def test_port_in_san(self):
        cert = builder(cn="host.example.com:8443").sign(KEY)
        assert "e_san_dns_name_includes_port_or_path" in fired(cert)


class TestEmailURIShape:
    def test_email_no_at(self):
        cert = (
            builder()
            .add_extension(
                subject_alt_name(
                    GeneralName.dns("ok.example.com"), GeneralName.email("not-an-email")
                )
            )
            .sign(KEY)
        )
        # This builder produced two SANs; rebuild with a single one.
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(
                subject_alt_name(
                    GeneralName.dns("ok.example.com"), GeneralName.email("not-an-email")
                )
            )
            .sign(KEY)
        )
        assert "e_rfc822_invalid_syntax" in fired(cert)

    def test_uri_without_scheme(self):
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(
                subject_alt_name(
                    GeneralName.dns("ok.example.com"), GeneralName.uri("no-scheme-here")
                )
            )
            .sign(KEY)
        )
        assert "e_uri_invalid_scheme" in fired(cert)


class TestEmptyValues:
    def test_empty_subject_attr(self):
        cert = builder().subject_attr(OID_ORGANIZATION_NAME, "").sign(KEY)
        assert "e_subject_empty_attribute_value" in fired(cert)

    def test_empty_san(self):
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(subject_alt_name())
            .sign(KEY)
        )
        assert "e_ext_san_empty_name" in fired(cert)


class TestExplicitTextLength:
    def test_too_long(self):
        policy = PolicyInformation(
            OID_CP_DOMAIN_VALIDATED,
            qualifiers=[
                PolicyQualifier(
                    OID_QT_UNOTICE, user_notice=UserNotice("x" * 201, UTF8_STRING)
                )
            ],
        )
        cert = builder().add_extension(certificate_policies(policy)).sign(KEY)
        assert "e_rfc_ext_cp_explicit_text_too_long" in fired(cert)


class TestStructure:
    def test_cn_not_in_san(self):
        cert = builder(cn="cn.example.com", san=False).add_extension(
            subject_alt_name(GeneralName.dns("other.example.com"))
        ).sign(KEY)
        assert "w_cab_subject_common_name_not_in_san" in fired(cert)

    def test_cn_matches_case_insensitively(self):
        cert = builder(cn="HOST.Example.COM", san=False).add_extension(
            subject_alt_name(GeneralName.dns("host.example.com"))
        ).sign(KEY)
        assert "w_cab_subject_common_name_not_in_san" not in fired(cert)

    def test_unicode_cn_matches_alabel_san(self):
        cert = builder(cn="münchen.de", san=False).add_extension(
            subject_alt_name(GeneralName.dns("xn--mnchen-3ya.de"))
        ).sign(KEY)
        assert "w_cab_subject_common_name_not_in_san" not in fired(cert)

    def test_duplicate_attribute(self):
        cert = builder().subject_cn("ok.example.com").sign(KEY)
        # builder() already added one CN, so this cert has two.
        found = fired(cert)
        assert "e_subject_dn_duplicate_attribute" in found
        assert "w_cab_subject_contain_extra_common_name" in found


def parent_cn_matches_san(cn, san_values):
    """``_cn_matches_san`` before the verbatim shortcut: the oracle."""
    candidates = {cn}
    try:
        candidates.add(domain_to_ascii(cn, validate=False))
    except (IDNAError, PunycodeError):
        pass
    return any(
        case_fold_equal(candidate, value)
        for candidate in candidates
        for value in san_values
    )


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - both bodies must fail alike
        return ("error", type(exc).__name__, str(exc))


RAISING_LABELS = ["\ud800", "a\udcff", "é" * 64]

#: Host-ish text: labels drawn from ASCII, Latin-1 and a few scripts,
#: plus the characters IDNA rejects (empty labels, hyphens, "xn--").
_LABEL = st.one_of(
    st.text(alphabet="abcXYZ-09", max_size=8),
    st.text(alphabet="äöüßÄ\u0131\u0130ﬁＡ\u200d\u0301", max_size=6),
    st.text(max_size=6),
    st.sampled_from(["xn--", "xn--mnchen-3ya", "xn--zz-", "xn--a", "-", ""]),
    # domain_to_ascii raises on these: a lone surrogate, a long U-label.
    st.sampled_from(RAISING_LABELS),
    st.text(alphabet="éü", min_size=56, max_size=70),
)
_HOST = st.lists(_LABEL, min_size=1, max_size=4).map(".".join)


class TestCnInSanShortcut:
    @settings(max_examples=400, deadline=None)
    @given(
        cn=_HOST,
        others=st.lists(st.one_of(_HOST, st.text(max_size=12)), max_size=3),
        verbatim=st.booleans(),
        position=st.integers(min_value=0, max_value=3),
    )
    def test_matches_the_parent_body(self, cn, others, verbatim, position):
        san_values = list(others)
        if verbatim:
            san_values.insert(position % (len(san_values) + 1), cn)
        assert _outcome(structure._cn_matches_san, cn, san_values) == _outcome(
            parent_cn_matches_san, cn, san_values
        )

    def test_strategy_reaches_idna_failures(self):
        # The property above covers the caught-exception branch.
        for label in RAISING_LABELS:
            with pytest.raises(IDNAError):
                domain_to_ascii(label + ".example", validate=False)

    def test_verbatim_cn_skips_idna(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("domain_to_ascii called for a verbatim CN")

        monkeypatch.setattr(structure, "domain_to_ascii", forbidden)
        assert structure._cn_matches_san("münchen.de", ["x.example", "münchen.de"])
        cert = builder(cn="bücher.example").sign(KEY)
        assert "w_cab_subject_common_name_not_in_san" not in fired(cert)


class TestDiscouraged:
    def test_san_uri_discouraged(self):
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(
                subject_alt_name(
                    GeneralName.dns("ok.example.com"),
                    GeneralName.uri("https://ok.example.com/"),
                )
            )
            .sign(KEY)
        )
        assert "w_ext_san_uri_discouraged" in fired(cert)


class TestNormalization:
    def test_nfd_utf8_attr(self):
        # "é" in NFD (e + combining acute).
        cert = builder().subject_attr(OID_ORGANIZATION_NAME, "Cafe\u0301").sign(KEY)
        assert "w_rfc_utf8_string_not_nfc" in fired(cert)

    def test_nfc_passes(self):
        cert = builder().subject_attr(OID_ORGANIZATION_NAME, "Café").sign(KEY)
        assert "w_rfc_utf8_string_not_nfc" not in fired(cert)

    def test_idn_ulabel_not_nfc(self):
        # Build an A-label whose decoded form is NFD (non-NFC).
        from repro.uni import punycode

        nfd_label = "cafe\u0301"  # NFD form of café
        alabel = "xn--" + punycode.encode(nfd_label)
        cert = builder(cn=f"{alabel}.com").sign(KEY)
        assert "e_rfc_dns_idn_u_label_not_nfc" in fired(cert)

    def test_alabel_roundtrip_mismatch(self):
        # Uppercase basic code points inside the Punycode payload decode
        # fine but re-encode differently (lowercased).
        cert = builder(cn="xn--MNCHEN-3ya.de").sign(KEY)
        report = run_lints(cert)
        # Either the roundtrip lint or the unpermitted-char lint fires
        # (uppercase decodes to an uppercase U-label -> DISALLOWED).
        assert {
            "e_rfc_dns_idn_alabel_roundtrip_mismatch",
            "e_rfc_dns_idn_a2u_unpermitted_unichar",
        } & set(report.fired_lints())

    def test_smtp_mailbox_nfc(self):
        cert = (
            CertificateBuilder()
            .subject_cn("ok.example.com")
            .not_before(WHEN)
            .add_extension(
                subject_alt_name(
                    GeneralName.dns("ok.example.com"),
                    GeneralName.smtp_utf8_mailbox("usér@example.com"),
                )
            )
            .sign(KEY)
        )
        assert "e_smtp_utf8_mailbox_not_nfc" in fired(cert)
