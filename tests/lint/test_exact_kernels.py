"""Soundness of the exact kernels that settle clean certificates.

Five rows of the compiled plan read pseudo-atoms that are exact
restatements of their lint's predicate, so a clear bit proves PASS:

* ``LEAD_WS``/``TRAIL_WS`` (the two subject-DN whitespace lints) must
  equal ``_leading_ws``/``_trailing_ws``, checked over every code point
  up to U+FFFF as the first, last and a middle character;
* ``NOT_NFC`` (the UTF8String NFC lint) must equal ``not is_nfc``, over
  generated composed and decomposed text, Hangul and combining marks;
* ``CN_NOT_IN_SAN`` (the CN-in-SAN lint) must clear only when the check
  passes: compiled reports must equal the reference oracle's over
  case-variant, U-label and A-label CNs, several CNs, every SAN kind, an
  undecodable SAN and no SAN;
* ``NOT_NFC`` over the ``smtp`` scope (the SmtpUTF8Mailbox NFC lint):
  an NFC mailbox in the SAN or the IAN runs no row of that lint, and a
  non-NFC one fires with the oracle's details;
* ``SMTP_NOT_UTF8``/``SMTP_ASCII_LOCAL`` over the ``smtp`` scope (the
  other two mailbox lints): each lint's row runs iff its check fails,
  over every inner string tag, ASCII and non-ASCII local parts, in the
  SAN and the IAN;
* ``MIXED_CONFUSABLE`` (the mixed-script confusable lint) must equal
  :func:`repro.uni.confusables.mixed_script_confusable` over every DN
  value of the seed corpora and the fuzz witnesses, and over generated
  mixed-script strings.
"""

import base64
import functools
import json
import pathlib

import datetime as dt

from hypothesis import given, settings, strategies as st

from repro.asn1.strings import PRINTABLE_STRING, UTF8_STRING
from repro.asn1.oid import OID_EXT_SAN, OID_ORGANIZATION_NAME
from repro.lint import compiled
from repro.lint.runner import run_lints
from repro.lint.character import _leading_ws, _trailing_ws
from repro.ct.corpus import CorpusGenerator
from repro.lint.compiled import CompiledPlan
from repro.lint.framework import REGISTRY, index_for
from repro.lint.reference import reference_run_lints
from repro.uni.confusables import CONFUSABLE_MAP, mixed_script_confusable
from repro.uni.normalization import is_nfc
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import Extension, issuer_alt_name, subject_alt_name
from repro.x509.general_name import GeneralName, GeneralNameKind
from repro.asn1.der import Element, explicit
from repro.asn1.oid import OID_ON_SMTP_UTF8_MAILBOX
from repro.asn1.tags import Tag
from repro.x509.keys import generate_keypair

from ..hypothesis_profiles import examples

KEY = generate_keypair(seed=61)
WHEN = dt.datetime(2024, 5, 1)
LEAD_WS = compiled.PSEUDO_BITS["LEAD_WS"]
TRAIL_WS = compiled.PSEUDO_BITS["TRAIL_WS"]
NOT_NFC = compiled.PSEUDO_BITS["NOT_NFC"]
MIXED_CONFUSABLE = compiled.PSEUDO_BITS["MIXED_CONFUSABLE"]
WITNESS_DIR = pathlib.Path(__file__).resolve().parents[2] / "fuzz" / "witnesses"


def _fresh_mask(text: str) -> int:
    """``scan_mask`` computed now, leaving the string memo as it was."""
    held = compiled._STRING_MASKS.pop(text, None)
    mask = compiled.scan_mask(text)
    if held is None:
        del compiled._STRING_MASKS[text]
    else:
        compiled._STRING_MASKS[text] = held
    return mask


def _shape(report):
    return [(r.lint.name, r.status, r.details) for r in report.results]


def _assert_matches_oracle(der: bytes) -> None:
    # Fresh objects per path: no memoized view may carry over.
    reference = reference_run_lints(Certificate.from_der(der), issued_at=WHEN)
    fast = run_lints(Certificate.from_der(der), issued_at=WHEN)
    assert _shape(fast) == _shape(reference)


# ---------------------------------------------------------------------------
# Whitespace at either end
# ---------------------------------------------------------------------------


def test_whitespace_bits_equal_the_predicates_for_every_bmp_code_point():
    wrong = []
    for cp in range(0x10000):
        ch = chr(cp)
        for text in (ch + "ab", "ab" + ch, "a" + ch + "b", ch):
            mask = _fresh_mask(text)
            if bool(mask & LEAD_WS) != bool(_leading_ws(text)) or bool(
                mask & TRAIL_WS
            ) != bool(_trailing_ws(text)):
                wrong.append(f"U+{cp:04X} in {text!r}")
    assert wrong == []


def test_empty_string_has_neither_whitespace_bit():
    assert not _fresh_mask("") & (LEAD_WS | TRAIL_WS)


# ---------------------------------------------------------------------------
# NFC
# ---------------------------------------------------------------------------

#: Pieces that compose (or reorder) under NFC and pieces that are stable:
#: Latin-1 letters, decomposed sequences, combining marks of different
#: classes, Hangul jamo and syllables, singleton decompositions.
NFC_PIECES = st.sampled_from(
    [
        "a",
        "E",
        " ",
        "\u00e9",  # é, composed
        "\u00fc",
        "\u00df",
        "\u00c5",
        "e\u0301",  # é, decomposed
        "A\u030a",
        "u\u0308",
        "\u0301",
        "\u0308",
        "\u0323",
        "\u0323\u0301",  # marks in canonical order
        "\u0301\u0323",  # marks out of canonical order
        "\u1100",  # Hangul leading jamo
        "\u1161",  # vowel jamo
        "\u11a8",  # trailing jamo
        "\uac00",  # Hangul syllable
        "\u1100\u1161",  # the same syllable as jamo
        "\uac01",
        "\u2126",  # OHM SIGN: a singleton decomposition
        "\u212b",  # ANGSTROM SIGN
        "\u0958",  # composition-excluded
        "\u0915\u093c",
        "\u4e2d",
        "\u0627",
    ]
)

NFC_TEXT = st.lists(NFC_PIECES, max_size=8).map("".join) | st.text(
    alphabet=st.characters(max_codepoint=0x11FF, blacklist_categories=("Cs",)),
    max_size=12,
)


@settings(deadline=None, max_examples=examples(400))
@given(text=NFC_TEXT)
def test_not_nfc_bit_equals_is_nfc(text):
    assert bool(_fresh_mask(text) & NOT_NFC) == (not is_nfc(text))


def test_named_nfc_cases():
    for text, nfc in (
        ("ascii only", True),
        ("K\u00f6ln", True),
        ("Ko\u0308ln", False),
        ("K\u00f6ln e\u0301", False),
        ("\u1100\u1161", False),
        ("\uac00", True),
        ("\u2126", False),
        ("a\u0301\u0323", False),
        ("\u0958", False),
    ):
        assert bool(_fresh_mask(text) & NOT_NFC) == (not nfc), text
        assert is_nfc(text) == nfc, text


def _org_cert(value: str) -> bytes:
    builder = (
        CertificateBuilder()
        .subject_cn("kernel.example.com", PRINTABLE_STRING)
        .subject_attr(OID_ORGANIZATION_NAME, value, UTF8_STRING)
        .not_before(WHEN)
        .add_extension(subject_alt_name(GeneralName.dns("kernel.example.com")))
    )
    return builder.sign(KEY).to_der()


@settings(deadline=None, max_examples=examples(60))
@given(
    text=st.tuples(
        st.sampled_from(["", " ", "\t", "\u3000", "\xa0"]),
        NFC_TEXT,
        st.sampled_from(["", " ", "\n", "\u2003", "\x85"]),
    ).map("".join)
)
def test_utf8_attribute_reports_match_the_oracle(text):
    _assert_matches_oracle(_org_cert(text))


# ---------------------------------------------------------------------------
# CN in SAN
# ---------------------------------------------------------------------------

#: CNs around one IDN: verbatim, case variants, the A-label form, and
#: names that only match a non-DNS SAN value or nothing at all.
CNS = st.sampled_from(
    [
        "bücher.example",
        "BÜCHER.example",
        "Bücher.Example",
        "xn--bcher-kva.example",
        "XN--BCHER-KVA.EXAMPLE",
        "bücher.example.",
        "www.example.com",
        "WWW.Example.COM",
        "ops@example.com",
        "192.0.2.1",
        "https://example.com/",
        "Example Org",
        "",
        "faß.example",
        "xn--fa-hia.example",
    ]
)

SAN_NAMES = st.lists(
    st.sampled_from(
        [
            GeneralName.dns("bücher.example"),
            GeneralName.dns("xn--bcher-kva.example"),
            GeneralName.dns("www.example.com"),
            GeneralName.dns("faß.example"),
            GeneralName.dns(""),
            GeneralName.email("ops@example.com"),
            GeneralName.uri("https://example.com/"),
            GeneralName.ip("192.0.2.1"),
            GeneralName.smtp_utf8_mailbox("ops@bücher.example"),
        ]
    ),
    max_size=4,
)

#: A SAN extension whose payload does not decode.
BROKEN_SAN = Extension(OID_EXT_SAN, False, b"\x30\x05\x82\x03ab")

SANS = st.none() | st.just(BROKEN_SAN) | SAN_NAMES.map(
    lambda names: subject_alt_name(*names)
)


def _cn_cert(cns, san) -> bytes:
    builder = CertificateBuilder().not_before(WHEN)
    for cn in cns:
        builder.subject_cn(cn)
    if san is not None:
        builder.add_extension(san)
    return builder.sign(KEY).to_der()


@settings(deadline=None, max_examples=examples(200))
@given(cns=st.lists(CNS, min_size=1, max_size=3), san=SANS)
def test_cn_in_san_reports_match_the_oracle(cns, san):
    _assert_matches_oracle(_cn_cert(cns, san))


def test_cn_san_bit_is_verbatim_membership():
    cases = (
        (["bücher.example"], [GeneralName.dns("bücher.example")], False),
        (["BÜCHER.example"], [GeneralName.dns("bücher.example")], True),
        (["192.0.2.1"], [GeneralName.ip("192.0.2.1")], False),
        (["a.example", "b.example"], [GeneralName.dns("a.example")], True),
        (["www.example.com"], None, True),
    )
    for cns, names, fires in cases:
        san = None if names is None else subject_alt_name(*names)
        cert = Certificate.from_der(_cn_cert(cns, san))
        plan = index_for(REGISTRY.snapshot()).compiled_plan()
        _signature, slots = plan.scan(cert)
        assert bool(slots[plan.slot_of["cn_san"]]) == fires, cns


# ---------------------------------------------------------------------------
# SmtpUTF8Mailbox NFC
# ---------------------------------------------------------------------------

MAILBOX_NFC = "e_smtp_utf8_mailbox_not_nfc"
MAILBOX_NOT_UTF8 = "e_smtp_utf8_mailbox_not_utf8string"
MAILBOX_ASCII = "e_smtp_utf8_mailbox_ascii_only"
#: The other two mailbox lints: their exact kernels settle a mailbox
#: that is a UTF8String with a non-ASCII local part.
MAILBOX_EVERY = {MAILBOX_NOT_UTF8, MAILBOX_ASCII}


def _mailbox_cert(mailboxes, ian: bool = False) -> bytes:
    names = [GeneralName.smtp_utf8_mailbox(mailbox) for mailbox in mailboxes]
    builder = (
        CertificateBuilder()
        .subject_cn("mail.example.com", PRINTABLE_STRING)
        .not_before(WHEN)
    )
    dns = GeneralName.dns("mail.example.com")
    if ian:
        builder.add_extension(subject_alt_name(dns))
        builder.add_extension(issuer_alt_name(*names))
    else:
        builder.add_extension(subject_alt_name(dns, *names))
    return builder.sign(KEY).to_der()


def _dynamic_names(der: bytes, monkeypatch) -> set:
    """Names of the lints whose ``check()`` a run of ``der`` executes."""
    seen = []
    original = CompiledPlan.template

    def spy(self, signature, slots):
        template = original(self, signature, slots)
        seen.append(template)
        return template

    with monkeypatch.context() as patch:
        patch.setattr(CompiledPlan, "template", spy)
        run_lints(Certificate.from_der(der), issued_at=WHEN)
    (template,) = seen
    return {lint.metadata.name for _, lint, _ in template.dynamic}


def test_nfc_mailbox_runs_no_nfc_row(monkeypatch):
    for ian in (False, True):
        der = _mailbox_cert(["j\u00fcrgen@b\u00fccher.example"], ian)
        dynamic = _dynamic_names(der, monkeypatch)
        assert MAILBOX_NFC not in dynamic
        assert not MAILBOX_EVERY & dynamic
        _assert_matches_oracle(der)


def test_non_nfc_mailbox_fires_like_the_oracle(monkeypatch):
    for ian in (False, True):
        der = _mailbox_cert(["ju\u0308rgen@example.com"], ian)  # decomposed
        assert MAILBOX_NFC in _dynamic_names(der, monkeypatch)
        report = run_lints(Certificate.from_der(der), issued_at=WHEN)
        assert MAILBOX_NFC in report.fired_lints()
        _assert_matches_oracle(der)


@settings(deadline=None, max_examples=examples(100))
@given(
    local=st.lists(NFC_TEXT.filter(lambda text: "@" not in text), min_size=1, max_size=3),
    ian=st.booleans(),
)
def test_mailbox_reports_match_the_oracle(local, ian):
    _assert_matches_oracle(_mailbox_cert([part + "@example.com" for part in local], ian))


# ---------------------------------------------------------------------------
# SmtpUTF8Mailbox encoding and ASCII local part
# ---------------------------------------------------------------------------


def _tagged_mailbox(value: str, tag: int, payload: bytes | None = None) -> GeneralName:
    """A mailbox otherName whose inner string carries ``tag`` (and
    ``payload`` as its content octets, when given)."""
    content = value.encode("utf-8") if payload is None else payload
    return GeneralName(
        kind=GeneralNameKind.OTHER_NAME,
        value=value,
        raw=explicit(0, Element.primitive(Tag.universal(tag), content)).encode(),
        other_name_oid=OID_ON_SMTP_UTF8_MAILBOX,
    )


def _names_cert(names, ian: bool) -> bytes:
    builder = (
        CertificateBuilder()
        .subject_cn("mail.example.com", PRINTABLE_STRING)
        .not_before(WHEN)
    )
    dns = GeneralName.dns("mail.example.com")
    if ian:
        builder.add_extension(subject_alt_name(dns))
        builder.add_extension(issuer_alt_name(*names))
    else:
        builder.add_extension(subject_alt_name(dns, *names))
    return builder.sign(KEY).to_der()


def _runs(der: bytes) -> set:
    """The mailbox lints whose rows the default plan's template runs."""
    plan = index_for(REGISTRY.snapshot()).compiled_plan()
    _static, dynamic = plan.template(*plan.scan(Certificate.from_der(der)))
    return {lint.metadata.name for _, lint, _ in dynamic} & MAILBOX_EVERY


def _failing(der: bytes) -> set:
    cert = Certificate.from_der(der)
    return {
        name
        for name in MAILBOX_EVERY
        if not REGISTRY.get(name).check(cert)[0]
    }


MAILBOXES = st.tuples(
    st.sampled_from(["", "ops", "j\u00fcrgen", "\u4e2d", "a\u0301", "x y"]),
    st.sampled_from(["@example.org", "@b\u00fccher.example", "", "@"]),
    st.sampled_from([12, 22, 19, 30, 4]),
    st.sampled_from([None, b"\xff\xfe", b"ops@example.org"]),
)


@settings(deadline=None, max_examples=examples(150))
@given(mailboxes=st.lists(MAILBOXES, min_size=1, max_size=3), ian=st.booleans())
def test_mailbox_rows_run_iff_their_checks_fail(mailboxes, ian):
    names = [
        _tagged_mailbox(local + domain, tag, payload)
        for local, domain, tag, payload in mailboxes
    ]
    der = _names_cert(names, ian)
    assert _runs(der) == _failing(der)
    _assert_matches_oracle(der)


def test_named_mailbox_cases():
    for value, tag, payload, fails in (
        ("j\u00fcrgen@example.org", 12, None, set()),
        ("ops@example.org", 12, None, {MAILBOX_ASCII}),
        ("j\u00fcrgen@example.org", 22, None, {MAILBOX_NOT_UTF8}),
        ("j\u00fcrgen@example.org", 12, b"j\xfcrgen@example.org", {MAILBOX_NOT_UTF8}),
        ("@example.org", 12, None, set()),
    ):
        for ian in (False, True):
            der = _names_cert([_tagged_mailbox(value, tag, payload)], ian)
            assert _failing(der) == fails, value
            assert _runs(der) == fails, value
            _assert_matches_oracle(der)


# ---------------------------------------------------------------------------
# Mixed-script confusables
# ---------------------------------------------------------------------------


@functools.cache
def _dn_values() -> list[str]:
    """Every subject and issuer value of the seed corpora and witnesses."""
    ders = [
        record.certificate.to_der()
        for seed in (1, 7, 2025)
        for record in CorpusGenerator(seed=seed, scale=0.00002).generate().records
    ]
    ders += [
        base64.b64decode(json.loads(path.read_text())["der_b64"])
        for path in sorted(WITNESS_DIR.glob("cell-*.json"))
    ]
    values = set()
    for der in ders:
        try:
            cert = Certificate.from_der(der)
        except Exception:  # noqa: BLE001 - unparseable witnesses hold no DN
            continue
        for name in (cert.subject, cert.issuer):
            values.update(attr.value for attr in name.attributes())
    return sorted(values)


def test_mixed_confusable_bit_equals_the_predicate_on_corpus_values():
    values = _dn_values()
    wrong = [
        value
        for value in values
        if bool(_fresh_mask(value) & MIXED_CONFUSABLE) != mixed_script_confusable(value)
    ]
    assert wrong == []
    assert any(mixed_script_confusable(value) for value in values)


MIXED_TEXT = st.lists(
    st.sampled_from(sorted(CONFUSABLE_MAP))
    | st.sampled_from(list("aZéßİ ._-1\u0301"))
    | st.characters(max_codepoint=0x2FFF, blacklist_categories=("Cs",)),
    max_size=8,
).map("".join)


@settings(deadline=None, max_examples=examples(400))
@given(text=MIXED_TEXT)
def test_mixed_confusable_bit_equals_the_predicate(text):
    assert bool(_fresh_mask(text) & MIXED_CONFUSABLE) == mixed_script_confusable(text)
