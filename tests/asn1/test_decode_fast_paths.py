"""Differential tests for the time and OID fast paths of the DER decoder.

``decode_time`` reads the fixed-width ``Z`` forms field by field and
falls back to ``strptime``; ``decode_oid`` looks registered OIDs up by
their content octets and falls back to ``ObjectIdentifier.decode_value``.
Each must agree with the slow path it short-cuts: the same value, or the
same error text.
"""

import datetime as dt

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.asn1.der import Element, decode_oid, decode_time
from repro.asn1.errors import DERDecodeError
from repro.asn1.oid import OID_NAMES, ObjectIdentifier, OIDS_BY_VALUE
from repro.asn1.tags import Tag, UniversalTag

from .reference_der import reference_decode_time

UTC = Tag.universal(UniversalTag.UTC_TIME)
GENERALIZED = Tag.universal(UniversalTag.GENERALIZED_TIME)


def outcome(decode, element):
    try:
        return ("ok", decode(element))
    except DERDecodeError as exc:
        return ("error", str(exc))


def assert_time_agrees(tag, content: bytes):
    element = Element(tag, content, offset=7)
    assert outcome(decode_time, element) == outcome(reference_decode_time, element)


#: Field values reaching past every range: month 13, day 32, hour 24,
#: minute 60, seconds 60 and 61, and zeros where 1 is the minimum.
_FIELD = st.integers(min_value=0, max_value=99)
_TERMINATOR = st.sampled_from([b"Z", b"Z", b"Z", b"z", b"+", b"0", b" ", b"\xff"])


def _digits(*fields) -> bytes:
    return b"".join(b"%02d" % field for field in fields)


class TestTimeFastPath:
    @settings(max_examples=500, deadline=None)
    @given(fields=st.tuples(*[_FIELD] * 6), end=_TERMINATOR)
    @example(fields=(49, 12, 31, 23, 59, 59), end=b"Z")  # last UTCTime year, 2049
    @example(fields=(50, 1, 1, 0, 0, 0), end=b"Z")  # 1950
    @example(fields=(68, 2, 29, 0, 0, 0), end=b"Z")
    @example(fields=(69, 1, 1, 0, 0, 0), end=b"Z")
    @example(fields=(52, 2, 29, 12, 0, 0), end=b"Z")  # leap day, 19xx
    @example(fields=(0, 2, 29, 12, 0, 0), end=b"Z")  # 2000 is a leap year
    @example(fields=(1, 2, 29, 12, 0, 0), end=b"Z")
    @example(fields=(24, 6, 30, 23, 59, 60), end=b"Z")  # leap second
    @example(fields=(24, 6, 30, 23, 59, 61), end=b"Z")
    @example(fields=(24, 13, 1, 0, 0, 0), end=b"Z")
    @example(fields=(24, 0, 1, 0, 0, 0), end=b"Z")
    @example(fields=(24, 4, 31, 0, 0, 0), end=b"Z")
    @example(fields=(24, 1, 0, 24, 0, 0), end=b"Z")
    def test_utc_time(self, fields, end):
        assert_time_agrees(UTC, _digits(*fields) + end)

    @settings(max_examples=500, deadline=None)
    @given(
        century=st.integers(min_value=0, max_value=99),
        fields=st.tuples(*[_FIELD] * 6),
        end=_TERMINATOR,
    )
    @example(century=20, fields=(49, 12, 31, 23, 59, 59), end=b"Z")
    @example(century=20, fields=(50, 1, 1, 0, 0, 0), end=b"Z")
    @example(century=0, fields=(0, 1, 1, 0, 0, 0), end=b"Z")  # year 0
    @example(century=99, fields=(99, 12, 31, 23, 59, 59), end=b"Z")
    @example(century=21, fields=(0, 2, 29, 0, 0, 0), end=b"Z")  # 2100: no leap day
    @example(century=20, fields=(24, 6, 30, 23, 59, 60), end=b"Z")
    @example(century=20, fields=(24, 6, 30, 23, 59, 61), end=b"Z")
    def test_generalized_time(self, century, fields, end):
        assert_time_agrees(GENERALIZED, b"%02d" % century + _digits(*fields) + end)

    @settings(max_examples=500, deadline=None)
    @given(
        tag=st.sampled_from([UTC, GENERALIZED]),
        content=st.one_of(
            st.binary(min_size=13, max_size=13),
            st.binary(min_size=15, max_size=15),
            st.text(alphabet="0123456789Z+-. ", min_size=13, max_size=15).map(
                str.encode
            ),
            st.text(alphabet="0123456789Z٣", min_size=13, max_size=15).map(
                lambda text: text.encode("utf-8")
            ),
        ),
    )
    @example(tag=UTC, content=b"2401011200 0Z")
    @example(tag=UTC, content=b"24010112000\xd9\xa3Z"[:13])
    @example(tag=GENERALIZED, content=b"+0240101120000Z")
    @example(tag=UTC, content=b"240101120000Z\x00")
    def test_arbitrary_content(self, tag, content):
        assert_time_agrees(tag, content)

    def test_utc_boundaries(self):
        assert decode_time(Element(UTC, b"491231235959Z")) == dt.datetime(2049, 12, 31, 23, 59, 59)
        assert decode_time(Element(UTC, b"500101000000Z")) == dt.datetime(1950, 1, 1)

    def test_out_of_range_keeps_the_strptime_message(self):
        with pytest.raises(DERDecodeError) as caught:
            decode_time(Element(UTC, b"240230000000Z", offset=3))
        assert "malformed time '240230000000Z'" in str(caught.value)
        assert caught.value.offset == 3

    def test_non_time_tag_rejected(self):
        element = Element(Tag.universal(UniversalTag.INTEGER), b"240101000000Z")
        assert outcome(decode_time, element) == outcome(reference_decode_time, element)


def oid_element(content: bytes) -> Element:
    return Element(Tag.universal(UniversalTag.OBJECT_IDENTIFIER), content)


_ARCS = st.one_of(
    st.tuples(st.integers(0, 1), st.integers(0, 39)),
    st.tuples(st.just(2), st.integers(0, 1 << 70)),
).flatmap(
    lambda root: st.lists(st.integers(0, 1 << 70), max_size=8).map(
        lambda rest: (*root, *rest)
    )
)


class TestOidRegistry:
    def test_registry_covers_every_named_oid(self):
        assert len(OIDS_BY_VALUE) == len(OID_NAMES)
        for dotted in OID_NAMES:
            value = ObjectIdentifier(dotted).encode_value()
            decoded = decode_oid(oid_element(value))
            assert decoded is OIDS_BY_VALUE[value]
            assert decoded == ObjectIdentifier.decode_value(value)
            assert decoded.dotted == dotted

    @settings(max_examples=300, deadline=None)
    @given(arcs=_ARCS)
    def test_random_arcs_match_decode_value(self, arcs):
        value = ObjectIdentifier(".".join(map(str, arcs))).encode_value()
        decoded = decode_oid(oid_element(value))
        assert decoded == ObjectIdentifier.decode_value(value)
        assert decoded.arcs == arcs
        assert len(OIDS_BY_VALUE) == len(OID_NAMES)

    @settings(max_examples=300, deadline=None)
    @given(content=st.binary(max_size=12))
    def test_arbitrary_content_matches_decode_value(self, content):
        def run(decode):
            try:
                return ("ok", decode(content))
            except DERDecodeError as exc:
                return ("error", str(exc))

        assert run(lambda raw: decode_oid(oid_element(raw))) == run(
            ObjectIdentifier.decode_value
        )
        assert len(OIDS_BY_VALUE) == len(OID_NAMES)

    @pytest.mark.parametrize("dotted", sorted(OID_NAMES))
    def test_non_minimal_registered_oid_still_raises(self, dotted):
        value = ObjectIdentifier(dotted).encode_value()
        padded = value[:1] + b"\x80" + value[1:]
        with pytest.raises(DERDecodeError) as fast:
            decode_oid(oid_element(padded))
        with pytest.raises(DERDecodeError) as slow:
            ObjectIdentifier.decode_value(padded)
        assert str(fast.value) == str(slow.value)
