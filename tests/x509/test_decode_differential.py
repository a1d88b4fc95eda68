"""Differential tests: the node-table X.509 decoders against the element oracle.

``Certificate.from_der`` and the extension views decode straight off
the DER node table, and the public key waits for its first read;
``reference_decode`` keeps the ``Element``-tree decoders they replaced.
On every input both must build the same model — every field, down to
each attribute's ``raw``, ``spec`` and ``decode_ok``, the key, and every
view's ``(value, error)`` pair — or raise the same exception type with
the same message.  Inputs are a seeded corpus, a built certificate
carrying every view, the committed fuzz witnesses, and mutants of them:
the fuzz byte primitives applied at hypothesis-chosen positions, after
structure-aware edits (re-tag a node, pad a node's length), both to
whole certificates and to single extension payloads.
"""

import base64
import dataclasses
import functools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.asn1.der import encode_length, parse
from repro.asn1.errors import DERDecodeError
from repro.asn1.strings import BMP_STRING, TELETEX_STRING
from repro.asn1.oid import (
    OID_AD_CA_ISSUERS,
    OID_AD_CA_REPOSITORY,
    OID_COMMON_NAME,
    OID_CP_DOMAIN_VALIDATED,
    OID_EXT_BASIC_CONSTRAINTS,
    OID_ORGANIZATION_NAME,
    OID_QT_CPS,
    OID_QT_UNOTICE,
)
from repro.ct.corpus import CorpusGenerator
from repro.fuzz.mutators import byte_delete, byte_flip, byte_insert, truncate
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate, VIEWS
from repro.x509.extensions import (
    AccessDescription,
    PolicyInformation,
    PolicyQualifier,
    UserNotice,
    authority_info_access,
    basic_constraints,
    certificate_policies,
    crl_distribution_points,
    issuer_alt_name,
    parse_basic_constraints,
    subject_alt_name,
    subject_info_access,
)
from repro.x509.general_name import GeneralName, GeneralNameKind
from repro.x509.keys import generate_keypair
from repro.x509.name import Name

from .reference_decode import (
    REFERENCE_VIEWS,
    reference_basic_constraints,
    reference_from_der,
    reference_view,
)

WITNESS_DIR = pathlib.Path(__file__).resolve().parents[2] / "fuzz" / "witnesses"


def shape(value):
    """Every compared field of a model, recursively, as plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, shape(getattr(value, f.name)))
                for f in dataclasses.fields(value)
                if f.compare
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(shape(item) for item in value)
    return value


def outcome(call, *args):
    """``("ok", result)`` or ``("error", type name, message)``."""
    try:
        return ("ok", call(*args))
    except Exception as exc:  # noqa: BLE001 - the oracle must match any failure
        return ("error", type(exc).__name__, str(exc))


def snapshot(cert, view_of, basic_constraints):
    """A decoded certificate, its views and its BasicConstraints, as data."""
    views = {}
    for slot in VIEWS:
        view, error = view_of(slot)
        views[slot] = (shape(view), error)
    ext = cert.get_extension(OID_EXT_BASIC_CONSTRAINTS)
    basic = None if ext is None else outcome(basic_constraints, ext.value_der)
    return shape(cert), views, basic


def production(der, strict):
    cert = Certificate.from_der(der, strict=strict)
    return snapshot(cert, cert._view, parse_basic_constraints)


def reference(der, strict):
    cert = reference_from_der(der, strict=strict)
    return snapshot(
        cert, lambda slot: reference_view(cert, slot), reference_basic_constraints
    )


def assert_same(der):
    for strict in (False, True):
        assert outcome(production, der, strict) == outcome(reference, der, strict)


def _witness_ders() -> list[bytes]:
    files = sorted(WITNESS_DIR.glob("cell-*.json"))
    assert len(files) >= 97
    return [base64.b64decode(json.loads(p.read_text())["der_b64"]) for p in files]


@functools.cache
def corpus_ders():
    corpus = CorpusGenerator(seed=3, scale=1 / 200_000).generate()
    return [record.certificate.to_der() for record in corpus.records]


@functools.cache
def built_ders():
    """Certificates carrying every view and every GeneralName alternative."""
    names = [
        GeneralName.dns("bücher.example"),
        GeneralName.email("user@example.org"),
        GeneralName.uri("https://example.org/ä"),
        GeneralName.ip("192.0.2.1"),
        GeneralName.ip("2001:db8::1"),
        GeneralName.directory(Name.build([(OID_ORGANIZATION_NAME, "Störi AG")], TELETEX_STRING)),
        GeneralName.smtp_utf8_mailbox("ü@example.org"),
        GeneralName(kind=GeneralNameKind.REGISTERED_ID, value="1.2.3.4"),
    ]
    policy = PolicyInformation(
        OID_CP_DOMAIN_VALIDATED,
        [
            PolicyQualifier(OID_QT_CPS, cps_uri="https://cps.example/ö"),
            PolicyQualifier(OID_QT_UNOTICE, user_notice=UserNotice("Ünïcode", BMP_STRING)),
        ],
    )
    builder = (
        CertificateBuilder()
        .serial(11)
        .subject_attr(OID_COMMON_NAME, "bücher.example", BMP_STRING)
        .add_extension(basic_constraints(True, 1))
        .add_extension(subject_alt_name(*names))
        .add_extension(issuer_alt_name(*names))
        .add_extension(
            authority_info_access(
                AccessDescription(OID_AD_CA_ISSUERS, GeneralName.uri("http://ca.example/ca"))
            )
        )
        .add_extension(
            subject_info_access(AccessDescription(OID_AD_CA_REPOSITORY, names[5]))
        )
        .add_extension(crl_distribution_points("http://crl.example/1", "http://crl.example/ü"))
        .add_extension(certificate_policies(policy))
    )
    return [builder.sign(generate_keypair(seed=17)).to_der()]


@functools.cache
def sources():
    return built_ders() + corpus_ders() + _witness_ders()


def test_views_table_matches_the_oracle():
    assert set(VIEWS) == set(REFERENCE_VIEWS)
    assert {slot: spec[0] for slot, spec in VIEWS.items()} == {
        slot: spec[0] for slot, spec in REFERENCE_VIEWS.items()
    }


class TestWholeInputs:
    def test_corpus_matches_the_oracle(self):
        ders = corpus_ders()
        assert len(ders) > 100
        for der in ders:
            assert_same(der)

    def test_built_certificates_match_the_oracle(self):
        for der in built_ders():
            assert_same(der)

    def test_witnesses_match_the_oracle(self):
        for der in _witness_ders():
            assert_same(der)

    def test_warm_pass_matches_the_oracle(self):
        """With every issuer primed, deferred issuer decodes match too."""
        ders = sources()
        for der in ders:
            outcome(Certificate.from_der, der)
        deferred = 0
        for der in ders:
            result = outcome(Certificate.from_der, der)
            deferred += result[0] == "ok" and result[1]._issuer is None
            assert_same(der)
        assert deferred == len(ders)

    def test_inputs_carry_every_view(self):
        # The oracle is only as good as what it sees: the inputs carry
        # every view.
        seen = set()
        for der in sources():
            cert = Certificate.from_der(der)
            seen |= {slot for slot in VIEWS if cert._view(slot) != (None, None)}
        assert seen == set(VIEWS)


_PRIMITIVES = {
    "byte_flip": lambda data, position, value: byte_flip(data, position, value),
    "byte_insert": lambda data, position, value: byte_insert(data, position, value),
    "byte_delete": lambda data, position, _value: byte_delete(data, position),
    "truncate": lambda data, position, _value: truncate(data, position),
}

_MUTATION = st.tuples(
    st.sampled_from(sorted(_PRIMITIVES)),
    st.integers(min_value=0, max_value=1 << 12),
    st.integers(min_value=0, max_value=255),
)

#: Identifier octets a node is re-tagged to: every universal type the
#: decoders read, their constructed forms, and the context tags.
_IDENTIFIERS = sorted(
    {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x0C, 0x13, 0x14, 0x16, 0x17, 0x18, 0x1C, 0x1E}
    | {0x23, 0x24, 0x26, 0x2C, 0x30, 0x31, 0x36, 0x37}
    | set(range(0x80, 0x89))
    | set(range(0xA0, 0xA9))
)

#: A structure-aware edit of one node, picked by its pre-order index:
#: re-tag it (a ``byte_flip`` of its identifier octet), or re-encode the
#: input with that node's length in a non-minimal long form.
_NODE_EDIT = st.tuples(
    st.sampled_from(["retag", "pad_length"]),
    st.integers(min_value=0, max_value=1 << 10),
    st.sampled_from(_IDENTIFIERS),
)


def _preorder(element, out):
    out.append(element)
    for child in element.children:
        _preorder(child, out)
    return out


def _encode_padded(element, padded):
    content = (
        b"".join(_encode_padded(child, padded) for child in element.children)
        if element.tag.constructed
        else element.content
    )
    if element is padded:
        length = b"\x82" + len(content).to_bytes(2, "big")
    else:
        length = encode_length(len(content))
    return element.tag.encode() + length + content


def edit_nodes(data, edits):
    for kind, index, identifier in edits:
        try:
            nodes = _preorder(parse(data, strict=False), [])
        except DERDecodeError:
            return data
        node = nodes[index % len(nodes)]
        if kind == "retag":
            data = byte_flip(data, node.offset, identifier)
        else:
            data = _encode_padded(nodes[0], node)
    return data


def mutate(data, edits, mutations):
    data = edit_nodes(data, edits)
    for name, position, value in mutations:
        data = _PRIMITIVES[name](data, position, value)
    return data


class TestMutants:
    @settings(max_examples=400, deadline=None)
    @given(
        which=st.integers(min_value=0),
        edits=st.lists(_NODE_EDIT, max_size=2),
        mutations=st.lists(_MUTATION, max_size=3),
    )
    def test_certificate_mutants_match_the_oracle(self, which, edits, mutations):
        ders = sources()
        assert_same(mutate(ders[which % len(ders)], edits, mutations))

    @settings(max_examples=400, deadline=None)
    @given(
        which=st.integers(min_value=0),
        slot=st.sampled_from(sorted(VIEWS)),
        edits=st.lists(_NODE_EDIT, max_size=2),
        mutations=st.lists(_MUTATION, max_size=3),
    )
    def test_view_payload_mutants_match_the_oracle(self, which, slot, edits, mutations):
        """Mutate one extension payload, so the views' own errors show."""
        ders = sources()
        oid = VIEWS[slot][0]
        for offset in range(len(ders)):
            ext = Certificate.from_der(ders[(which + offset) % len(ders)]).get_extension(oid)
            if ext is not None:
                break
        else:  # pragma: no cover - the built certificate carries every view
            pytest.fail(f"no certificate carries {slot}")
        assert_same_view(slot, mutate(ext.value_der, edits, mutations))


def assert_same_view(slot, payload):
    parser = VIEWS[slot][1]
    reference_parser = REFERENCE_VIEWS[slot][1]
    for strict in (False, True):
        produced = outcome(lambda: shape(parser(payload, strict=strict)))
        expected = outcome(lambda: shape(reference_parser(payload, strict=strict)))
        assert produced == expected
    assert outcome(parse_basic_constraints, payload) == outcome(
        reference_basic_constraints, payload
    )


class TestEveryNodeEdit:
    """Every structure-aware edit of every node of the built certificate."""

    @staticmethod
    def edits(der):
        count = len(_preorder(parse(der), []))
        for index in range(count):
            yield [("pad_length", index, 0)]
            for identifier in _IDENTIFIERS:
                yield [("retag", index, identifier)]

    def test_certificate(self):
        der = built_ders()[0]
        for edits in self.edits(der):
            assert_same(edit_nodes(der, edits))

    @pytest.mark.parametrize("slot", sorted(VIEWS))
    def test_view_payload(self, slot):
        ext = Certificate.from_der(built_ders()[0]).get_extension(VIEWS[slot][0])
        for edits in self.edits(ext.value_der):
            assert_same_view(slot, edit_nodes(ext.value_der, edits))
