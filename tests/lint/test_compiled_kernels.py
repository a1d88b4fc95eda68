"""Unit tests for the fused char-class scan kernels.

The compiled dispatch (:mod:`repro.lint.compiled`) reduces every lint
trigger to bitwise tests against masks produced by a handful of scan
kernels.  The equivalence suite proves the end-to-end contract; these
tests pin the kernels themselves — per-bit semantics, the ASCII fast
path against the generic interval walk, memoization, and the shape
masks for DNS names, mailboxes, URIs, and A-labels.
"""

import pytest

from repro.lint import compiled as C
from repro.lint.compiled import BIT_BY_NAME, PSEUDO_BITS, char_mask, scan_mask
from repro.uni.intervals import ATOM_BITS, ATOM_INTERVALS

#: OR of every interval-atom bit — masks scan results down to the
#: character-membership plane, dropping value-derived pseudo bits.
ATOM_PLANE = 0
for _bit in ATOM_BITS.values():
    ATOM_PLANE |= _bit


def bit(name: str) -> int:
    return BIT_BY_NAME[name]


class TestScanMask:
    @pytest.mark.parametrize(
        ("text", "atom"),
        [
            ("ab\x07c", "CONTROL"),
            ("a b", "WHITESPACE"),
            ("a\x7fb", "DEL"),
            ("a�b", "REPLACEMENT"),
            ("a‮b", "BIDI"),
            ("a​b", "INVISIBLE_NON_BIDI"),
            ("münchen", "NON_ASCII"),
            ("under_score", "NON_LDH"),
            ("under_score", "NON_PRINTABLESTRING"),
            ("http://x", "COLON_OR_SLASH"),
        ],
    )
    def test_atom_bit_fires(self, text, atom):
        assert scan_mask(text) & bit(atom)

    def test_clean_ldh_string_keeps_atom_plane_clear(self):
        # Pure LDH ASCII hits no character atom except the LDH-safe
        # plane; only value-derived pseudo bits may fire.
        assert scan_mask("example-1.com") & ATOM_PLANE & ~bit("NON_LDH") == 0

    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("a" * 64, ()),
            ("a" * 65, ("LEN_GT_64",)),
            ("a" * 129, ("LEN_GT_64", "LEN_GT_128")),
            ("a" * 201, ("LEN_GT_64", "LEN_GT_128", "LEN_GT_200")),
        ],
    )
    def test_length_thresholds(self, text, expected):
        mask = scan_mask(text)
        for name in ("LEN_GT_64", "LEN_GT_128", "LEN_GT_200"):
            assert bool(mask & bit(name)) == (name in expected)

    def test_country_shape_bits(self):
        assert not scan_mask("US") & bit("LEN_NE_2")
        assert not scan_mask("US") & bit("NOT_UPPER")
        assert scan_mask("USA") & bit("LEN_NE_2")
        assert scan_mask("us") & bit("NOT_UPPER")

    @pytest.mark.parametrize(
        "text", ["", "plain", "ümlaut‮", "mixed-ascii-\U0001f600", "\x00:\x7f"]
    )
    def test_fused_scan_matches_per_char_walk(self, text):
        reference = 0
        for ch in set(text):
            reference |= char_mask(ch)
        assert scan_mask(text) & ATOM_PLANE == reference

    def test_scan_mask_memoized_per_string(self):
        text = "memo-probe-é"
        first = scan_mask(text)
        assert C._STRING_MASKS[text] == first
        assert scan_mask(text) == first


class TestShapeMasks:
    def test_dns_shape_bits(self):
        assert C.dns_name_facts("a" * 64 + ".com")[0] & bit("DNS_LABEL_GT_63")
        assert C.dns_name_facts("a..b")[0] & bit("DNS_EMPTY_LABEL")
        assert C.dns_name_facts("-f.com")[0] & bit("DNS_HYPHEN_EDGE")
        assert C.dns_name_facts("f-.com")[0] & bit("DNS_HYPHEN_EDGE")
        long_name = ".".join(["a" * 63] * 5)
        assert C.dns_name_facts(long_name)[0] & bit("DNS_NAME_GT_253")
        # A single trailing dot is a root label, not an empty label.
        clean = C.dns_name_facts("example.com.")[0]
        for name in (
            "DNS_LABEL_GT_63",
            "DNS_NAME_GT_253",
            "DNS_EMPTY_LABEL",
            "DNS_HYPHEN_EDGE",
        ):
            assert not clean & bit(name)

    @pytest.mark.parametrize(
        ("value", "bad"),
        [
            ("user@example.com", False),
            ("no-at-sign", True),
            ("@example.com", True),
            ("user@", True),
            ("a@b@c", True),
        ],
    )
    def test_email_shape(self, value, bad):
        assert bool(C._email_shape_mask(value) & bit("SHAPE_BAD")) == bad

    @pytest.mark.parametrize(
        ("value", "bad"),
        [
            ("http://example.com", False),
            ("ldap://x/y", False),
            ("no-colon", True),
            ("1http://x", True),
            (":missing-scheme", True),
        ],
    )
    def test_uri_shape(self, value, bad):
        assert bool(C._uri_shape_mask(value) & bit("SHAPE_BAD")) == bad

    def test_xn_label_masks(self):
        clean = C._xn_label_mask("xn--mnchen-3ya")
        assert clean & bit("SCOPE_NONEMPTY")
        for name in (
            "XN_DECODE_BAD",
            "XN_UNPERMITTED",
            "XN_NOT_NFC",
            "XN_ROUNDTRIP_BAD",
        ):
            assert not clean & bit(name)
        assert C._xn_label_mask("xn--!!") & bit("XN_DECODE_BAD")
        # Emoji decode fine but are IDNA2008-unpermitted.
        assert C._xn_label_mask("xn--ls8h") & bit("XN_UNPERMITTED")


class TestBitLayout:
    def test_atoms_and_pseudo_bits_are_disjoint_powers_of_two(self):
        bits = list(ATOM_BITS.values()) + list(PSEUDO_BITS.values())
        assert len(bits) == len(set(bits))
        for value in bits:
            assert value and value & (value - 1) == 0

    def test_pseudo_bits_continue_the_interval_plane(self):
        assert min(PSEUDO_BITS.values()) == max(ATOM_BITS.values()) << 1

    def test_interval_tables_are_sorted_and_disjoint(self):
        for atom, intervals in ATOM_INTERVALS.items():
            previous_end = -1
            for start, end in intervals:
                assert start <= end, atom
                assert start > previous_end, atom
                previous_end = end


class TestScanSpec:
    def test_trigger_is_the_atoms_bits(self):
        spec = C.ScanSpec("dns", ("NON_LDH", "DNS_EMPTY_LABEL"))
        assert spec.trigger == bit("NON_LDH") | bit("DNS_EMPTY_LABEL")
        assert spec.mode == C.APPLIES_EXACT

    def test_unknown_atom_raises(self):
        with pytest.raises(ValueError, match="NON_LDHH"):
            C.ScanSpec("dns", ("NON_LDH", "NON_LDHH"))

    def test_unknown_scope_raises(self):
        with pytest.raises(ValueError, match="san_dnss"):
            C.ScanSpec("san_dnss", ("NON_ASCII",))
        with pytest.raises(ValueError, match="scope"):
            C.ScanSpec(("x", "2.5.4.3"), ("NON_ASCII",))

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            C.ScanSpec("dns", ("NON_LDH",), mode=3)

    def test_spec_trigger_refuses_types_without_a_bit(self):
        assert C.spec_trigger({"PrintableString", "UTF8String"}) == (
            "SPEC_IA5String",
            "SPEC_TeletexString",
            "SPEC_BMPString",
            "SPEC_UniversalString",
            "SPEC_OTHER",
        )
        # VisibleString would alias into SPEC_OTHER: no sound trigger.
        assert C.spec_trigger({"PrintableString", "VisibleString"}) is None
