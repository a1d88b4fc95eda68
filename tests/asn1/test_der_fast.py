"""Differential tests: the table-driven DER walk against the recursive oracle.

``repro.asn1.der.parse_node`` walks the buffer in one loop into node
tuples, and ``repro.asn1.der.parse`` builds its :class:`Element` tree from
them; ``reference_der`` keeps the recursive parser they replaced.  On
every input both must build the same tree (tag, content, offset,
children) or raise the same :class:`DERDecodeError` — same message,
same offset — in both ``strict`` modes, and the node table must carry
exactly what the element tree does, ``end`` included.  Inputs are a
seeded certificate corpus, fuzz byte primitives applied to it at
hypothesis-chosen positions, and hand-made high-tag-number and
long-form-length cases.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.asn1.der import encode_length, node_content, parse, parse_all, parse_node
from repro.asn1.errors import DERDecodeError
from repro.ct.corpus import CorpusGenerator
from repro.fuzz.mutators import byte_delete, byte_flip, byte_insert, truncate

from .reference_der import reference_parse, reference_parse_all


def shape(element):
    return (
        element.tag,
        element.content,
        element.offset,
        [shape(child) for child in element.children],
    )


def outcome(parser, data, strict):
    """``("ok", tree)`` or ``("error", message, offset)``."""
    try:
        result = parser(data, strict=strict)
    except DERDecodeError as exc:
        return ("error", str(exc), exc.offset)
    if isinstance(result, list):
        return ("ok", [shape(element) for element in result])
    return ("ok", shape(result))


def full_shape(element):
    """:func:`shape` plus each element's ``end``."""
    return (
        element.tag,
        element.content,
        element.offset,
        element.end,
        [full_shape(child) for child in element.children],
    )


def node_shape(data, node):
    tag, start, _content_start, end, children = node
    return (
        tag,
        node_content(data, node),
        start,
        end,
        [node_shape(data, child) for child in children],
    )


def node_outcome(data, strict):
    """:func:`outcome` of the node walk, with ``parse``'s input check."""
    try:
        return ("ok", node_shape(data, parse_node(data, strict=strict)))
    except DERDecodeError as exc:
        return ("error", str(exc), exc.offset)


def element_outcome(data, strict):
    try:
        return ("ok", full_shape(parse(data, strict=strict)))
    except DERDecodeError as exc:
        return ("error", str(exc), exc.offset)


def assert_same(data):
    for strict in (True, False):
        assert outcome(parse, data, strict) == outcome(reference_parse, data, strict)
        assert outcome(parse_all, data, strict) == outcome(
            reference_parse_all, data, strict
        )
        assert node_outcome(data, strict) == element_outcome(data, strict)


def assert_ends(element, data):
    """Each element's ``end`` bounds exactly its received encoding."""
    assert data[element.offset : element.end] == element.encode()
    for child in element.children:
        assert_ends(child, data)


@pytest.fixture(scope="module")
def corpus_ders():
    corpus = CorpusGenerator(seed=3, scale=1 / 200_000).generate()
    return [record.certificate.to_der() for record in corpus.records]


@functools.cache
def small_corpus_ders():
    corpus = CorpusGenerator(seed=5, scale=1 / 1_000_000).generate()
    return [record.certificate.to_der() for record in corpus.records]


class TestCorpus:
    def test_every_certificate_matches_the_oracle(self, corpus_ders):
        assert len(corpus_ders) > 100
        for der in corpus_ders:
            assert_same(der)

    def test_end_offsets_slice_the_received_bytes(self, corpus_ders):
        for der in corpus_ders:
            root = parse(der)
            assert root.end == len(der)
            assert_ends(root, der)


_PRIMITIVES = {
    "byte_flip": lambda data, position, value: byte_flip(data, position, value),
    "byte_insert": lambda data, position, value: byte_insert(data, position, value),
    "byte_delete": lambda data, position, _value: byte_delete(data, position),
    "truncate": lambda data, position, _value: truncate(data, position),
}

_MUTATION = st.tuples(
    st.sampled_from(sorted(_PRIMITIVES)),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=255),
)


class TestFuzzPrimitives:
    @settings(max_examples=300, deadline=None)
    @given(
        which=st.integers(min_value=0),
        mutations=st.lists(_MUTATION, min_size=1, max_size=4),
    )
    def test_mutants_match_the_oracle(self, which, mutations):
        ders = small_corpus_ders()
        data = ders[which % len(ders)]
        for name, position, value in mutations:
            data = _PRIMITIVES[name](data, position, value)
        assert_same(data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_arbitrary_bytes_match_the_oracle(self, data):
        assert_same(data)


def tlv(identifier: bytes, length: bytes, content: bytes = b"") -> bytes:
    return identifier + length + content


class TestHandMadeCases:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x02",  # truncated length
            b"\x1f",  # high-tag form, truncated number
            b"\x9f\x81",  # truncated high tag number
            b"\x9f\x80\x01\x00",  # non-minimal high tag number
            b"\x9f\x1e\x00",  # high-tag form for a low number
            tlv(b"\x9f\x81\x49", b"\x01", b"\x07"),  # [PRIVATE 201] primitive
            tlv(b"\xbf\x83\xff\x7f", b"\x03", tlv(b"\x02", b"\x01", b"\x05")),
            tlv(b"\x5f\x20", b"\x00"),  # [APPLICATION 32]
            tlv(b"\x02", b"\x81\x01", b"\x05"),  # long form for a short value
            tlv(b"\x02", b"\x82\x00\x01", b"\x05"),  # leading zero
            tlv(b"\x04", b"\x81\x80", bytes(128)),  # minimal long form
            tlv(b"\x04", b"\x82\x01\x00", bytes(256)),
            tlv(b"\x04", b"\x81"),  # truncated long-form length
            tlv(b"\x04", b"\x84\xff\xff\xff\xff", b"\x00"),  # overrun
            tlv(b"\x04", b"\xff"),  # 127 length octets promised
            b"\x30\x80\x05\x00\x00\x00",  # indefinite length
            tlv(b"\x30", b"\x81\x03", tlv(b"\x05", b"\x00") + b"\x05"),
            tlv(b"\x30", b"\x03", tlv(b"\x02", b"\x02", b"\x01\x02")),  # child overruns parent
            tlv(b"\x30", b"\x04", tlv(b"\x30", b"\x03", tlv(b"\x05", b"\x00")) + b"\x00"),
            tlv(b"\x30", b"\x00") + b"\x00",  # trailing octet
            tlv(b"\x30", b"\x00") + tlv(b"\x31", b"\x00"),  # two top-level elements
            tlv(b"\xa3", b"\x81\x04", tlv(b"\x30", b"\x82\x00\x02", b"")),
        ],
    )
    def test_matches_the_oracle(self, data):
        assert_same(data)

    def test_deep_nesting_builds_without_recursion(self):
        data = b"\x05\x00"
        for _ in range(5000):
            data = b"\x30" + encode_length(len(data)) + data
        element = parse(data)
        depth = 0
        while element.children:
            element = element.children[0]
            depth += 1
        assert depth == 5000

    def test_high_tag_number_decodes(self):
        element = parse(tlv(b"\x9f\x81\x49", b"\x01", b"\x07"))
        assert element.tag.number == 201
        assert (element.offset, element.end) == (0, 5)

    def test_lenient_long_form_keeps_received_end(self):
        data = tlv(b"\x30", b"\x82\x00\x04", tlv(b"\x02", b"\x81\x01", b"\x05"))
        with pytest.raises(DERDecodeError, match="non-minimal length"):
            parse(data, strict=True)
        root = parse(data, strict=False)
        assert root.end == len(data)
        assert root.children[0].offset == 4
        assert root.children[0].end == len(data)
        assert root.encode() != data  # re-encoding would drop the padding
