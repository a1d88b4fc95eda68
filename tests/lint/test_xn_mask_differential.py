"""The one-decode, one-encode A-label analysis against the old composition.

``compiled._xn_label_mask`` and the ``e_rfc_dns_idn_a2u_unpermitted_
unichar`` check now read :func:`repro.uni.idna.unpermitted_violations`
on one decode; :mod:`tests.lint.reference_xn_mask` keeps the
``alabel_violations``/``is_nfc``/``ulabel_to_alabel`` composition they
replaced.  Mask bits, lint messages and ``ulabel_violations`` must all
match it, over named A-label classes and generated labels.
"""

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.lint import compiled, run_lints
from repro.lint.reference import reference_run_lints
from repro.uni import is_ldh_label, punycode, ulabel_violations, unpermitted_violations
from repro.uni.errors import PunycodeError
from repro.x509 import CertificateBuilder, GeneralName, generate_keypair, subject_alt_name

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


@settings(max_examples=300, deadline=None)
@given(st.text(LDH_ISH, max_size=24))
def test_generated_payloads(payload):
    _assert_same("xn--" + payload)


@settings(max_examples=300, deadline=None)
@given(st.text(UNICODE, min_size=1, max_size=12), st.booleans())
def test_generated_ulabels(ulabel, upper_prefix):
    try:
        payload = punycode.encode(ulabel)
    except PunycodeError:
        return
    _assert_same(("XN--" if upper_prefix else "xn--") + payload)


@settings(max_examples=300, deadline=None)
@given(st.text(UNICODE, max_size=12))
def test_ulabel_violations_unchanged(label):
    assert ulabel_violations(label) == reference.ulabel_violations(label)
