"""``punycode.encode`` and ``punycode.decode`` against the originals.

The table-driven encoder and decoder must give the oracle's output, or
raise a :class:`PunycodeError` with the same text, on every input:
surrogates, code points large enough to overflow the RFC 3492
arithmetic, all-basic input, the empty string, mixed-case digits,
invalid digits and non-ASCII Punycode included.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.uni import punycode
from repro.uni.errors import PunycodeError

from ..hypothesis_profiles import examples
from . import reference_punycode as reference

#: Every code point, surrogates (category Cs) included.
ANY_CHAR = st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=())
BASIC_CHAR = st.characters(min_codepoint=0, max_codepoint=0x7F)
HIGH_CHAR = st.characters(min_codepoint=0xF0000, max_codepoint=0x10FFFF)
#: Every code point except surrogates (the default exclusion).
NON_SURROGATE = st.characters(min_codepoint=0, max_codepoint=0x10FFFF)


def _outcome(encode, text):
    try:
        return ("ok", encode(text))
    except PunycodeError as exc:
        return ("error", str(exc))


def _same(text):
    assert _outcome(punycode.encode, text) == _outcome(reference.encode, text)


def _same_decode(text):
    assert _outcome(punycode.decode, text) == _outcome(reference.decode, text)


@settings(max_examples=examples(400), deadline=None)
@given(st.text(ANY_CHAR, max_size=40))
@example("")
@example("abc")
@example("\ud800")
@example("ab\udfffc\ud800")
@example("bücher")
def test_any_text(text):
    _same(text)


@settings(max_examples=examples(200), deadline=None)
@given(st.text(BASIC_CHAR, max_size=60))
def test_all_basic(text):
    _same(text)


@settings(max_examples=examples(60), deadline=None)
@given(
    st.integers(min_value=0, max_value=4000),
    st.text(HIGH_CHAR, min_size=1, max_size=6),
    st.text(ANY_CHAR, max_size=8),
)
def test_overflow_sized(padding, high, tail):
    # A long run of basic characters multiplies the first big code point
    # delta by the handled count, so large inputs overflow maxint.
    _same("a" * padding + high + tail)


@pytest.mark.parametrize(
    "text",
    [
        "a" * 3000 + "\U0010ffff",  # overflow in the pre-multiplication guard
        "é" * 2000 + "\U0010ffff" * 2000,  # overflow while counting
        "\U0010ffff" * 3,
    ],
)
def test_known_overflow_inputs(text):
    _same(text)
    outcome = _outcome(punycode.encode, text)
    if len(text) > 100:
        assert outcome == ("error", "overflow while encoding")


#: Punycode digits in both cases, delimiters, and characters that are
#: not digits (ASCII punctuation, a Latin-1 letter, a CJK ideograph).
PUNY_CHAR = st.sampled_from("abcdefghijklmnopqrstuvwxyzABCDEFXYZ0123456789--_!.é中")


@settings(max_examples=examples(400), deadline=None)
@given(st.text(ANY_CHAR, max_size=40))
@example("")
@example("-")
@example("--")
@example("-abc")
@example("abc-")
@example("münchen")
@example("abc-!!")
@example("ab\ud800c")
def test_decode_any_text(text):
    _same_decode(text)


@settings(max_examples=examples(400), deadline=None)
@given(st.text(PUNY_CHAR, max_size=30))
def test_decode_punycode_like(text):
    _same_decode(text)


@settings(max_examples=examples(300), deadline=None)
@given(st.text(NON_SURROGATE, min_size=1, max_size=16))
def test_decode_encodings_mixed_case(text):
    # Real encodings as encoded, upper-cased, case-swapped and cut short.
    try:
        encoded = punycode.encode(text)
    except PunycodeError:
        return
    for variant in (encoded, encoded.upper(), encoded.swapcase(), encoded[:-1]):
        _same_decode(variant)


@settings(max_examples=examples(200), deadline=None)
@given(st.text(st.sampled_from("9zZ8"), min_size=6, max_size=40), st.text(PUNY_CHAR, max_size=6))
def test_decode_overflow_sized(digits, tail):
    # Long runs of high digits drive i and w past maxint (RFC 3492 §6.4)
    # or n past U+10FFFF.
    _same_decode(digits + tail)
    _same_decode("a-" + digits + tail)


@pytest.mark.parametrize(
    "text",
    [
        "99999999999999999999a",  # overflow accumulating i
        "99999a",  # code point beyond U+10FFFF
        "bb0c",  # decoded surrogate
        "abc-z",  # truncated variable-length integer
        "abc-!!",  # invalid digit
        "a\x80",  # non-ASCII
    ],
)
def test_known_decode_errors(text):
    _same_decode(text)
    assert _outcome(punycode.decode, text)[0] == "error"
