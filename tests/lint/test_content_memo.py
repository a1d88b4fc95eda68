"""Content-keyed CA facts: the issuer DN and AIA/SIA/CRLDP/CP memos.

``Certificate.from_der`` defers the issuer decode when the same issuer
bytes already decoded once, and the compiled walk reads the issuer's
masks and family keys, and each payload slot's facts, from memos keyed
by the received bytes.  Whatever the memos hold, every report must equal
the reference oracle's and a cold-memo run's; a malformed issuer must
fail in ``from_der`` every time; a byte change must miss; and a
reassigned ``issuer`` must be what lint reads.
"""

import dataclasses
import datetime as dt
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.asn1.der import encode_oid, parse
from repro.asn1.strings import PRINTABLE_STRING
from repro.asn1.oid import (
    OID_AD_CA_ISSUERS,
    OID_COMMON_NAME,
    OID_COUNTRY_NAME,
    OID_ORGANIZATION_NAME,
)
from repro.lint import compiled
from repro.lint.framework import REGISTRY, RegistryIndex, index_for
from repro.lint.runner import run_lints
from repro.lint.reference import reference_run_lints
from repro.memo import ProcessMemo
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import AccessDescription, authority_info_access, subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.name import Name
from repro.x509 import certificate as certificate_module

from ..x509 import test_decode_differential as differential
from ..x509.test_decode_differential import (
    _MUTATION,
    _NODE_EDIT,
    built_ders,
    edit_nodes,
    mutate,
    sources,
)

KEY = generate_keypair(seed=29)
WHEN = dt.datetime(2024, 6, 1)


def plan():
    """The default schedule's compiled plan, which holds the issuer and
    payload memos of its field pass."""
    return index_for(REGISTRY.snapshot()).compiled_plan()


def clear_content_memos():
    certificate_module._DECODED_ISSUERS.clear()
    plan()._issuers.clear()
    plan()._payloads.clear()


def shape(report):
    return [(r.lint.name, r.status, r.details) for r in report.results]


def decoded(der):
    """``("ok", cert)`` or ``("error", type, message, offset)``."""
    try:
        return ("ok", Certificate.from_der(der))
    except Exception as exc:  # noqa: BLE001 - every failure must match
        return ("error", type(exc).__name__, str(exc), getattr(exc, "offset", None))


def lint_outcome(der, index=None):
    """Decode then lint ``der`` with whatever the memos hold now."""
    result = decoded(der)
    if result[0] == "error":
        return result
    return ("ok", shape(run_lints(result[1], issued_at=WHEN, index=index)))


def oracle_outcome(der):
    result = decoded(der)
    if result[0] == "error":
        return result
    return ("ok", shape(reference_run_lints(result[1], issued_at=WHEN)))


def assert_warm_equals_oracle_and_cold(parent, der):
    """Prime the memos with ``parent``, then lint ``der`` warm and cold."""
    lint_outcome(parent)
    warm = lint_outcome(der)
    assert warm == oracle_outcome(der)
    clear_content_memos()
    assert warm == lint_outcome(der)


def issuer_span(der):
    """``(start, end)`` of the issuer DN inside ``der``."""
    tbs = parse(der).children[0]
    issuer = tbs.children[3]  # version, serial, algorithm, issuer
    return issuer.offset, issuer.offset + len(issuer.encode())


def ca_cert(org="Memo CA", uri="http://ca.example/issuer.crt", cn="leaf.example"):
    issuer = Name.build(
        [(OID_COUNTRY_NAME, "DE"), (OID_ORGANIZATION_NAME, org)], PRINTABLE_STRING
    )
    builder = (
        CertificateBuilder()
        .serial(7)
        .subject_cn(cn)
        .issuer_name(issuer)
        .not_before(WHEN)
        .add_extension(subject_alt_name(GeneralName.dns(cn)))
        .add_extension(
            authority_info_access(
                AccessDescription(OID_AD_CA_ISSUERS, GeneralName.uri(uri))
            )
        )
    )
    return builder.sign(KEY).to_der()


class TestWarmMutants:
    @settings(max_examples=150, deadline=None)
    @given(
        which=st.integers(min_value=0),
        edits=st.lists(_NODE_EDIT, max_size=2),
        mutations=st.lists(_MUTATION, max_size=3),
    )
    def test_certificate_mutants(self, which, edits, mutations):
        ders = sources()
        parent = ders[which % len(ders)]
        assert_warm_equals_oracle_and_cold(parent, mutate(parent, edits, mutations))

    def test_every_node_edit_of_the_built_certificate(self):
        parent = built_ders()[0]
        for edits in differential.TestEveryNodeEdit.edits(parent):
            assert_warm_equals_oracle_and_cold(parent, edit_nodes(parent, edits))

    def test_unmutated_sources(self):
        for der in sources():
            assert_warm_equals_oracle_and_cold(der, der)


def malformed_issuer_ders():
    """A certificate whose issuer DN decodes no ``Name``, two ways."""
    der = ca_cert()
    extra_child = parse(der)
    atv = extra_child.children[0].children[3].children[0].children[0]
    atv.children.append(encode_oid(OID_COMMON_NAME))  # three children
    bad_oid = parse(der)
    oid = bad_oid.children[0].children[3].children[0].children[0].children[0]
    oid.content = b""  # an empty OBJECT IDENTIFIER
    return [extra_child.encode(), bad_oid.encode()]


class TestMalformedIssuer:
    @pytest.mark.parametrize(
        "der", malformed_issuer_ders(), ids=["three-child attribute", "empty OID"]
    )
    def test_raises_from_from_der_every_time(self, der):
        first = decoded(der)
        assert first[0] == "error" and first[1] == "DERDecodeError"
        for _ in range(3):
            assert decoded(der) == first
        start, end = issuer_span(der)
        assert der[start:end] not in certificate_module._DECODED_ISSUERS


class TestMisses:
    def test_issuer_only_mutant_misses_the_memo(self):
        parent = ca_cert(org="Memo CA")
        start, end = issuer_span(parent)
        at = parent.index(b"Memo CA", start, end)
        child = parent[:at] + b"Memo CB" + parent[at + 7 :]  # only issuer bytes move
        lint_outcome(parent)
        cert = Certificate.from_der(child)
        assert cert._issuer is not None  # decoded eagerly: a miss
        assert cert._issuer_der not in plan()._issuers
        assert shape(run_lints(cert, issued_at=WHEN)) == oracle_outcome(child)[1]
        assert cert._issuer_der in plan()._issuers
        assert cert.issuer.get(OID_ORGANIZATION_NAME) == ["Memo CB"]

    def test_repeated_issuer_defers_the_decode(self):
        der = ca_cert(org="Deferred CA")
        lint_outcome(der)
        cert = Certificate.from_der(der)
        assert cert._issuer is None
        run_lints(cert, issued_at=WHEN)
        assert cert._issuer is None  # lint read the memo, not the Name
        assert cert.issuer.get(OID_ORGANIZATION_NAME) == ["Deferred CA"]

    def test_aia_only_mutant_misses_the_payload_memo(self):
        parent = ca_cert(uri="http://ca.example/a.crt")
        child = ca_cert(uri="http://ca.example/ä.crt")
        lint_outcome(parent)
        before = set(plan()._payloads)
        assert lint_outcome(child) == oracle_outcome(child)
        added = set(plan()._payloads) - before
        assert [slot for slot, _payload in added] == ["aia"]


class TestReassignedIssuer:
    def test_lint_reads_the_new_name(self):
        der = ca_cert(org="Clean CA")
        lint_outcome(der)
        cert = Certificate.from_der(der)
        clean = shape(run_lints(cert, issued_at=WHEN))
        cert.issuer = Name.build([(OID_ORGANIZATION_NAME, "Bad\x00CA")])
        assert cert._issuer_der is None
        fresh = Certificate.from_der(der)
        fresh.issuer = Name.build([(OID_ORGANIZATION_NAME, "Bad\x00CA")])
        expected = shape(reference_run_lints(fresh, issued_at=WHEN))
        assert shape(run_lints(cert, issued_at=WHEN)) == expected
        assert expected != clean


class TestModelSemantics:
    def pair(self):
        der = ca_cert(org="Semantics CA")
        eager = Certificate.from_der(der)
        deferred = Certificate.from_der(der)
        assert deferred._issuer is None
        return eager, deferred

    def test_equality(self):
        eager, deferred = self.pair()
        assert deferred == eager
        other = Certificate.from_der(ca_cert(org="Semantics CB"))
        assert other != eager

    def test_replace(self):
        eager, deferred = self.pair()
        copy = dataclasses.replace(deferred, serial=99)
        assert copy.issuer == eager.issuer
        assert copy._issuer_der is None
        assert dataclasses.replace(copy, serial=eager.serial) == eager

    def test_pickle_round_trip_in_a_cold_process(self):
        eager, deferred = self.pair()
        payload = pickle.dumps(deferred)
        clear_content_memos()  # as in a freshly spawned worker
        loaded = pickle.loads(payload)
        assert loaded == eager
        assert shape(run_lints(loaded, issued_at=WHEN)) == shape(
            reference_run_lints(eager, issued_at=WHEN)
        )
        assert pickle.loads(pickle.dumps(eager)) == eager


class TestBoundedMemos:
    CAP = 4

    def test_distinct_issuers_and_payloads_stay_bounded_and_exact(self, monkeypatch):
        monkeypatch.setattr(certificate_module, "_DECODED_ISSUERS", ProcessMemo(self.CAP))
        monkeypatch.setattr(compiled, "_CONTENT_MEMO_MAX", self.CAP)
        index = RegistryIndex(REGISTRY.snapshot())
        capped = index.compiled_plan()
        ders = [
            ca_cert(org=f"Flood CA {i}", uri=f"http://ca{i}.example/ü.crt")
            for i in range(4 * self.CAP)
        ]
        for _round in range(2):
            for der in ders:
                assert lint_outcome(der, index) == oracle_outcome(der)
                assert len(certificate_module._DECODED_ISSUERS) <= self.CAP
                assert len(capped._issuers) <= self.CAP
                assert len(capped._payloads) <= self.CAP
