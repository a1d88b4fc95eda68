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
  non-NFC one fires with the oracle's details.
"""

import datetime as dt

from hypothesis import given, settings, strategies as st

from repro.asn1.strings import PRINTABLE_STRING, UTF8_STRING
from repro.asn1.oid import OID_EXT_SAN, OID_ORGANIZATION_NAME
from repro.lint import compiled
from repro.lint.runner import run_lints
from repro.lint.character import _leading_ws, _trailing_ws
from repro.lint.compiled import CompiledPlan
from repro.lint.reference import reference_run_lints
from repro.uni.normalization import is_nfc
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import Extension, issuer_alt_name, subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair

from ..hypothesis_profiles import examples

KEY = generate_keypair(seed=61)
WHEN = dt.datetime(2024, 5, 1)
LEAD_WS = compiled.PSEUDO_BITS["LEAD_WS"]
TRAIL_WS = compiled.PSEUDO_BITS["TRAIL_WS"]
NOT_NFC = compiled.PSEUDO_BITS["NOT_NFC"]


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
        masks: dict = {}
        compiled.walk_fields(cert, masks)
        assert bool(compiled._scope_cn_san(cert, masks)) == fires, cns


# ---------------------------------------------------------------------------
# SmtpUTF8Mailbox NFC
# ---------------------------------------------------------------------------

MAILBOX_NFC = "e_smtp_utf8_mailbox_not_nfc"
#: The other two mailbox lints trigger on a nonempty scope: every
#: mailbox still runs their checks.
MAILBOX_EVERY = {"e_smtp_utf8_mailbox_not_utf8string", "e_smtp_utf8_mailbox_ascii_only"}


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

    def spy(self, live, masks):
        template = original(self, live, masks)
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
        assert MAILBOX_EVERY <= dynamic
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
