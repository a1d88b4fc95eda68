"""The one-decode A-label analysis against the old composition.

``compiled._xn_label_mask`` reads one decode and proves the canonical
round trip from it, encoding only labels that can fire; the
``e_rfc_dns_idn_a2u_unpermitted_unichar`` check reads
:func:`repro.uni.idna.unpermitted_violations` on one decode.
:mod:`tests.lint.reference_xn_mask` keeps the original decoder and the
``alabel_violations``/``is_nfc``/``ulabel_to_alabel`` composition they
replaced.  Mask bits, lint messages and ``ulabel_violations`` must all
match it, over named A-label classes and generated labels: mixed-case
payloads and prefixes, leading delimiters, U-labels whose lowercase
form changes length or leaves ASCII, RTL and combining-mark labels,
and labels over 63 octets.
"""

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.lint import compiled
from repro.lint.runner import run_lints
from repro.lint.reference import reference_run_lints
from repro.uni import punycode
from repro.uni.dns import is_ldh_label
from repro.uni.idna import ulabel_violations, unpermitted_violations
from repro.uni.errors import PunycodeError
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

from ..hypothesis_profiles import examples
from . import reference_xn_mask as reference

PERMITTED_LINT = "e_rfc_dns_idn_a2u_unpermitted_unichar"
KEY = generate_keypair(seed=99)
WHEN = dt.datetime(2024, 4, 1)


def _xn(ulabel: str) -> str:
    return "xn--" + punycode.encode(ulabel)


#: One or more A-labels of every class the analysis distinguishes.
LABELS = {
    "valid": _xn("bücher"),
    "valid_cjk": _xn("中国"),
    "upper_prefix": "XN--bcher-kva",
    "upper_payload": "xn--BCHER-KVA",
    "non_ldh_underscore": _xn("a_bü"),
    "non_ldh_disallowed": _xn("A_Bü"),
    "non_ldh_long": _xn("ü" + "a" * 70),
    "hyper_compressed": "xn--abc-",
    "hyper_compressed_upper": "XN--abc-",
    "empty_payload": "xn--",
    "rtl_mixed_ltr": _xn("שלוםabc"),
    "rtl_bad_start": _xn("1אב"),
    "rtl_numerals": _xn("ا١1"),
    "rtl_valid": _xn("שלום"),
    "contextj": _xn("a\u200db"),
    "disallowed_upper": _xn("Bücher"),
    "disallowed_symbol": _xn("a☃b"),
    "unassigned": _xn("a\u0378b"),
    "not_nfc": _xn("e\u0301cole"),
    "non_canonical_case": _xn("Über"),
    "canonical_too_long": _xn("".join(chr(0x4E00 + 37 * i) for i in range(30))),
    "bad_digit": "xn--ab-c!d",
    "truncated": "xn--abc-z",
    "overflow": "xn--99999999999999999999a",
    "decoded_surrogate": "xn--bb0c",
    "beyond_unicode": "xn--99999a",
    "leading_delimiter": "xn---" + punycode.encode("bücher"),
    "dotted_capital_i": _xn("İstanbul"),
    "ohm_sign": _xn("a\u2126"),
    "capital_sharp_s": _xn("stra\u1e9ee"),
    "kelvin_sign": _xn("\u212aelvin"),
    "latin1_upper": _xn("ÀÉÎõü"),
    "combining_start": _xn("\u0301abc"),
    "too_long_canonical": _xn("a" * 58 + "ü"),
}


def _fresh_mask(label: str) -> int:
    compiled._XN_MASKS.pop(label, None)
    return compiled._xn_label_mask(label)


def _permitted_problems(label: str) -> list[str] | None:
    """The new check's problems for one label; ``None`` if undecodable."""
    try:
        ulabel = punycode.decode(label[4:])
    except PunycodeError:
        return None
    return unpermitted_violations(ulabel) if is_ldh_label(label) else []


def _old_permitted_problems(label: str) -> list[str] | None:
    try:
        punycode.decode(label[4:])
    except PunycodeError:
        return None
    return reference.unpermitted_problems(label)


def _assert_same(label: str) -> None:
    assert _fresh_mask(label) == reference.xn_label_mask(label), label
    assert _permitted_problems(label) == _old_permitted_problems(label), label


@pytest.mark.parametrize("label", list(LABELS.values()), ids=list(LABELS))
def test_named_label_classes(label):
    _assert_same(label)


def test_named_classes_fire_every_bit():
    masks = [reference.xn_label_mask(label) for label in LABELS.values()]
    for bit in (
        reference.XN_DECODE_BAD,
        reference.XN_UNPERMITTED,
        reference.XN_NOT_NFC,
        reference.XN_ROUNDTRIP_BAD,
    ):
        assert any(mask & bit for mask in masks)
        assert not all(mask & bit for mask in masks)


def _cert(dns_name: str):
    builder = CertificateBuilder().subject_cn("probe.example.com").not_before(WHEN)
    builder.add_extension(subject_alt_name(GeneralName.dns(dns_name)))
    return builder.sign(KEY)


@pytest.mark.parametrize(
    "name",
    ["rtl_mixed_ltr", "disallowed_upper", "unassigned", "non_ldh_disallowed", "valid"],
)
def test_permitted_lint_message(name):
    # The lint's detail string is the old first problem, verbatim, and
    # the compiled and reference dispatch paths agree on it.
    label = LABELS[name]
    cert = _cert(f"{label}.example.com")
    results = {
        r.lint.name: (r.status, r.details)
        for r in run_lints(cert, issued_at=WHEN).results
    }
    reference_results = {
        r.lint.name: (r.status, r.details)
        for r in reference_run_lints(cert, issued_at=WHEN).results
    }
    assert results == reference_results
    problems = reference.unpermitted_problems(label)
    _status, details = results[PERMITTED_LINT]
    assert details == (f"A-label {label!r}: {problems[0]}" if problems else "")


LDH_ISH = st.sampled_from("abcxyz0129-_ABZ")
UNICODE = st.characters(min_codepoint=0x20, max_codepoint=0x2FFFF)


@settings(max_examples=examples(300), deadline=None)
@given(st.text(LDH_ISH, max_size=24))
def test_generated_payloads(payload):
    _assert_same("xn--" + payload)


@settings(max_examples=examples(300), deadline=None)
@given(st.text(UNICODE, min_size=1, max_size=12), st.booleans())
def test_generated_ulabels(ulabel, upper_prefix):
    try:
        payload = punycode.encode(ulabel)
    except PunycodeError:
        return
    _assert_same(("XN--" if upper_prefix else "xn--") + payload)


@settings(max_examples=examples(300), deadline=None)
@given(st.text(UNICODE, max_size=12))
def test_ulabel_violations_unchanged(label):
    assert ulabel_violations(label) == reference.ulabel_violations(label)


def _payload(ulabel: str) -> str | None:
    try:
        return punycode.encode(ulabel)
    except PunycodeError:
        return None


#: U-labels whose lowercase form is not an ASCII-only change: capitals
#: that lower to another length (İ), to ASCII (K, Kelvin sign) or to
#: another code point (Ω, ẞ, Latin-1 capitals), next to plain letters.
CASE_TRAPS = st.text(
    st.sampled_from("\u0130\u2126\u1e9e\u212aÀÉÎÑÖÜÝÞßàéñaZ0-"),
    min_size=1,
    max_size=10,
)
#: Hebrew, Arabic (with Arabic-Indic digits) and combining marks mixed
#: with LTR letters and European digits: labels the Bidi rule inspects.
RTL_MIXED = st.text(
    st.one_of(
        st.characters(min_codepoint=0x05D0, max_codepoint=0x05EA),
        st.characters(min_codepoint=0x0620, max_codepoint=0x066F),
        st.characters(min_codepoint=0x0300, max_codepoint=0x036F),
        st.sampled_from("ab1-\u200d"),
    ),
    min_size=1,
    max_size=10,
)


class TestGeneratedLabelClasses:
    @settings(max_examples=examples(200), deadline=None)
    @given(st.text(UNICODE, min_size=1, max_size=10), st.sampled_from(["XN--", "Xn--", "xN--", "xn--"]))
    def test_upper_cased_payload_and_prefix(self, ulabel, prefix):
        payload = _payload(ulabel)
        if payload is not None:
            _assert_same(prefix + payload.upper())
            _assert_same(prefix + payload.swapcase())

    @settings(max_examples=examples(200), deadline=None)
    @given(st.text(UNICODE, max_size=10))
    def test_leading_delimiter(self, ulabel):
        payload = _payload(ulabel)
        if payload is not None:
            _assert_same("xn---" + payload)
            _assert_same("XN---" + payload.upper())

    @settings(max_examples=examples(300), deadline=None)
    @given(CASE_TRAPS, st.booleans())
    def test_case_changing_ulabels(self, ulabel, upper_prefix):
        payload = _payload(ulabel)
        if payload is not None:
            _assert_same(("XN--" if upper_prefix else "xn--") + payload)

    @settings(max_examples=examples(300), deadline=None)
    @given(RTL_MIXED)
    def test_rtl_and_combining_ulabels(self, ulabel):
        payload = _payload(ulabel)
        if payload is not None:
            _assert_same("xn--" + payload)

    @settings(max_examples=examples(100), deadline=None)
    @given(st.text(UNICODE, min_size=1, max_size=6), st.integers(min_value=50, max_value=90))
    def test_over_63_octets(self, ulabel, padding):
        payload = _payload("a" * padding + ulabel)
        if payload is not None:
            _assert_same("xn--" + payload)
            _assert_same("xn--" + payload.upper())
