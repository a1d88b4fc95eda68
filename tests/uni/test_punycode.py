"""Tests for the from-scratch RFC 3492 Punycode implementation."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from repro.uni import punycode
from repro.uni.errors import PunycodeError

# RFC 3492 Section 7.1 sample strings (subset) plus IDN examples.
RFC_SAMPLES = [
    # (unicode, punycode)
    ("ünchen", "nchen-jva"),  # sanity: partial basic string
    ("münchen", "mnchen-3ya"),
    ("bücher", "bcher-kva"),
    ("中国", "fiqs8s"),
    ("中國", "fiqz9s"),
    ("日本語", "wgv71a119e"),
    ("한국", "3e0b707e"),
    ("ελληνικά", "hxargifdar"),
    ("россия", "h1alffa9f"),
    ("königsgäßchen", "knigsgchen-b4a3dun"),
    ("ليهمابتكلموشعربي؟", "egbpdaj6bu4bxfgehfvwxn"),
]


class TestEncode:
    @pytest.mark.parametrize("unicode_text,expected", RFC_SAMPLES)
    def test_known_vectors(self, unicode_text, expected):
        assert punycode.encode(unicode_text) == expected

    def test_pure_ascii(self):
        # Pure-ASCII input yields the text plus a trailing delimiter.
        assert punycode.encode("abc") == "abc-"

    def test_empty(self):
        assert punycode.encode("") == ""

    def test_surrogate_rejected(self):
        with pytest.raises(PunycodeError):
            punycode.encode("\ud800")

    def test_case_preserved_in_basic(self):
        encoded = punycode.encode("München")
        assert encoded.startswith("Mnchen-")


class TestDecode:
    @pytest.mark.parametrize("unicode_text,expected", RFC_SAMPLES)
    def test_known_vectors(self, unicode_text, expected):
        assert punycode.decode(expected) == unicode_text

    def test_non_ascii_input_rejected(self):
        with pytest.raises(PunycodeError):
            punycode.decode("münchen")

    def test_invalid_digit_rejected(self):
        with pytest.raises(PunycodeError):
            punycode.decode("abc-!!")

    def test_truncated_integer_rejected(self):
        # A trailing digit that starts but never ends an integer.
        with pytest.raises(PunycodeError):
            punycode.decode("abc-z")

    def test_overflow_rejected(self):
        with pytest.raises(PunycodeError):
            punycode.decode("99999999999999999999a")

    def test_malformed_examples_from_paper(self):
        # The paper's F1 finding: syntactically valid xn-- labels whose
        # payload cannot convert back to Unicode.
        for payload in ("zzzzzzzzzz9999999999", "ab-c-d-9z"):
            try:
                punycode.decode(payload)
            except PunycodeError:
                pass  # Either outcome is fine; it must never crash.

    def test_leading_delimiter(self):
        # "-" alone has an empty basic part and no extended part.
        assert punycode.decode("-") == ""


class TestRoundtrip:
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30))
    def test_roundtrip_property(self, text):
        assert punycode.decode(punycode.encode(text)) == text

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", max_size=24))
    def test_decode_never_crashes_unexpectedly(self, text):
        # Arbitrary LDH strings either decode or raise PunycodeError.
        try:
            decoded = punycode.decode(text)
        except PunycodeError:
            return
        assert isinstance(decoded, str)

    def test_insertion_order(self):
        # Multiple non-basic chars interleaved with basic ones.
        text = "aβcδe"
        assert punycode.decode(punycode.encode(text)) == text

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30))
    def test_differential_against_stdlib(self, text):
        # Python's built-in punycode codec is an independent oracle.
        assert punycode.encode(text) == text.encode("punycode").decode("ascii")


class TestCanonicalEncoding:
    """Decoding is injective on lowercase input (RFC 3492 §3.1, §6.2):
    a decodable lowercase string is the encoding of its decode unless a
    leading delimiter marks an empty basic string, which ``encode``
    never emits.  The A-label round-trip check relies on this."""

    def test_lowercase_ldh_up_to_three_characters(self):
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
        decodable = 0
        for length in range(4):
            for chars in product(alphabet, repeat=length):
                payload = "".join(chars)
                try:
                    decoded = punycode.decode(payload)
                except PunycodeError:
                    continue
                decodable += 1
                canonical = punycode.encode(decoded) == payload
                assert canonical == (payload.rfind("-") != 0), payload
        assert decodable > 10_000


class TestEdgeCases:
    """RFC 3492 corner cases: empty input, all-basic labels, delimiter
    placement, and the §6.4 overflow guards."""

    def test_empty_round_trip(self):
        assert punycode.encode("") == ""
        assert punycode.decode("") == ""

    def test_all_basic_trailing_delimiter(self):
        # §3.1: a nonempty basic string always gets a delimiter, even
        # with no extended part; the decoder must strip exactly one.
        assert punycode.encode("abc") == "abc-"
        assert punycode.decode("abc-") == "abc"

    def test_basic_string_ending_in_hyphen(self):
        # "abc-" encodes to "abc--"; only the *last* delimiter splits.
        assert punycode.encode("abc-") == "abc--"
        assert punycode.decode("abc--") == "abc-"

    def test_delimiter_only_strings(self):
        assert punycode.decode("-") == ""
        assert punycode.decode("--") == "-"

    def test_leading_delimiter_empty_basic(self):
        # "-fiqs8s": empty basic string, extended part "fiqs8s"? No —
        # rfind picks delimiter 0, so extended is everything after it.
        assert punycode.decode("-" + "fiqs8s") == punycode.decode("fiqs8s")

    def test_encode_overflow_guard(self):
        # Enough basic prefix makes delta exceed the 31-bit ceiling on
        # the first extended code point (§6.4).
        with pytest.raises(PunycodeError):
            punycode.encode("\x80" * 3000 + "\U0010FFFF")

    def test_decode_weight_overflow_guard(self):
        # '9' (digit 35) never terminates the varint, so w and i grow
        # geometrically and must trip a §6.4 pre-multiplication guard.
        with pytest.raises(PunycodeError, match="overflow"):
            punycode.decode("9" * 12)

    def test_decode_nonterminating_low_digits_truncate(self):
        # 'z' (digit 25) terminates once t saturates at TMAX=26, so an
        # all-z string exhausts input instead: truncated varint, no wrap.
        with pytest.raises(PunycodeError):
            punycode.decode("z" * 20)

    def test_decode_accumulator_overflow_guard(self):
        with pytest.raises(PunycodeError):
            punycode.decode("99999999999999999999999999999a")

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", max_size=12))
    def test_all_basic_round_trip_property(self, text):
        encoded = punycode.encode(text)
        if text:
            assert encoded == text + "-"
        assert punycode.decode(encoded) == text

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30))
    def test_decode_differential_against_stdlib(self, text):
        # Differential harness, decode direction: stdlib encodes, we
        # must decode back to the identical string.
        encoded = text.encode("punycode").decode("ascii")
        assert punycode.decode(encoded) == text
