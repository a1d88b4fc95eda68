"""``Name`` accessors scan ``rdns`` live, with or without the cache switch.

``Name`` keeps no memo: ``attributes``, ``get``, ``get_attrs`` and
``has_duplicates`` read the RDN list on every call.  These tests pin
what callers rely on — a fresh list per call, results identical under
:func:`repro.x509.cache.caching_disabled`, order preserved across
multi-valued RDNs and repeated OIDs — and that edits show at once.
"""

from hypothesis import given, settings, strategies as st

from repro.asn1.strings import PRINTABLE_STRING
from repro.asn1.oid import (
    OID_COMMON_NAME,
    OID_COUNTRY_NAME,
    OID_ORGANIZATION_NAME,
    OID_ORGANIZATIONAL_UNIT,
)
from repro.x509.cache import caching_disabled
from repro.x509.name import AttributeTypeAndValue, Name, RelativeDistinguishedName

OIDS = (
    OID_COMMON_NAME,
    OID_COUNTRY_NAME,
    OID_ORGANIZATION_NAME,
    OID_ORGANIZATIONAL_UNIT,
)


def _name(rdns: list[list[tuple[int, str]]]) -> Name:
    return Name(
        rdns=[
            RelativeDistinguishedName(
                [AttributeTypeAndValue(oid=OIDS[i], value=value) for i, value in rdn]
            )
            for rdn in rdns
        ]
    )


def _answers(name: Name) -> list:
    answers: list = [[(a.oid.dotted, a.value) for a in name.attributes()]]
    for oid in OIDS:
        answers.append(name.get(oid))
        answers.append([id(a) for a in name.get_attrs(oid)])
        answers.append(name.has_duplicates(oid))
    return answers


MULTI = _name(
    [
        [(0, "a.example"), (2, "Org One")],  # multi-valued RDN
        [(3, "Unit")],
        [(2, "Org Two"), (2, "Org Three"), (0, "b.example")],
        [(1, "DE")],
    ]
)


def test_attributes_fresh_list_each_call():
    first = MULTI.attributes()
    second = MULTI.attributes()
    assert first == second and first is not second
    first.clear()
    assert len(MULTI.attributes()) == 7


def test_get_and_get_attrs_fresh_lists():
    assert MULTI.get(OID_ORGANIZATION_NAME) is not MULTI.get(OID_ORGANIZATION_NAME)
    attrs = MULTI.get_attrs(OID_ORGANIZATION_NAME)
    attrs.pop()
    assert len(MULTI.get_attrs(OID_ORGANIZATION_NAME)) == 3


def test_order_across_multivalued_rdns_and_repeats():
    assert MULTI.get(OID_ORGANIZATION_NAME) == ["Org One", "Org Two", "Org Three"]
    assert MULTI.get(OID_COMMON_NAME) == ["a.example", "b.example"]
    assert MULTI.has_duplicates(OID_ORGANIZATION_NAME)
    assert MULTI.has_duplicates(OID_COMMON_NAME)
    assert not MULTI.has_duplicates(OID_COUNTRY_NAME)
    assert MULTI.get(OID_ORGANIZATIONAL_UNIT) == ["Unit"]


def test_same_answers_with_caching_disabled():
    cached = _answers(MULTI)
    with caching_disabled():
        assert _answers(MULTI) == cached


def test_edits_visible_immediately():
    name = _name([[(0, "a.example")]])
    assert name.get(OID_ORGANIZATION_NAME) == []
    name.rdns.append(
        RelativeDistinguishedName(
            [AttributeTypeAndValue(oid=OID_ORGANIZATION_NAME, value="Org", spec=PRINTABLE_STRING)]
        )
    )
    assert name.get(OID_ORGANIZATION_NAME) == ["Org"]
    name.rdns[0].attributes[0].oid = OID_ORGANIZATION_NAME
    assert name.get(OID_ORGANIZATION_NAME) == ["a.example", "Org"]
    assert name.get(OID_COMMON_NAME) == []


RDN = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(OIDS) - 1), st.text(max_size=4)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(RDN, max_size=6))
def test_generated_names_same_with_caching_disabled(rdns):
    name = _name(rdns)
    cached = _answers(name)
    with caching_disabled():
        assert _answers(name) == cached
    flat = [(OIDS[i].dotted, value) for rdn in rdns for i, value in rdn]
    assert cached[0] == flat
    for oid in OIDS:
        values = [value for dotted, value in flat if dotted == oid.dotted]
        assert name.get(oid) == values
        assert name.has_duplicates(oid) == (len(values) > 1)
