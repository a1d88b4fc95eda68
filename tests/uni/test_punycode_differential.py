"""``punycode.encode`` against the original encoder.

The table-driven encoder must give the oracle's output, or raise a
:class:`PunycodeError` with the same text, on every input: surrogates,
code points large enough to overflow the RFC 3492 arithmetic, all-basic
input and the empty string included.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.uni import PunycodeError, punycode

from . import reference_punycode as reference

#: Every code point, surrogates (category Cs) included.
ANY_CHAR = st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=())
BASIC_CHAR = st.characters(min_codepoint=0, max_codepoint=0x7F)
HIGH_CHAR = st.characters(min_codepoint=0xF0000, max_codepoint=0x10FFFF)


def _outcome(encode, text):
    try:
        return ("ok", encode(text))
    except PunycodeError as exc:
        return ("error", str(exc))


def _same(text):
    assert _outcome(punycode.encode, text) == _outcome(reference.encode, text)


@settings(max_examples=400, deadline=None)
@given(st.text(ANY_CHAR, max_size=40))
@example("")
@example("abc")
@example("\ud800")
@example("ab\udfffc\ud800")
@example("bücher")
def test_any_text(text):
    _same(text)


@settings(max_examples=200, deadline=None)
@given(st.text(BASIC_CHAR, max_size=60))
def test_all_basic(text):
    _same(text)


@settings(max_examples=60, deadline=None)
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
