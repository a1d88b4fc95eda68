"""The compiled field pass against the string-keyed walk it replaced.

:meth:`repro.lint.compiled.CompiledPlan.scan` derives, in one pass, the
integer family signature and the slot masks the plan's rows read.
:mod:`tests.lint.reference_field_walk` keeps the derivation it
replaced: a ``frozenset`` signature, a string-keyed ``masks`` dict and
one closure per scope.  For every row of the default plan both must
agree on whether the row is live, whether it applies, and which of its
trigger bits fire — per row, not only in the final verdict — and the
verdict template must settle exactly the rows the old derivation
settles.  The inputs are the seeded corpora of seeds 1, 7 and 2025, the
committed fuzz witnesses, byte-level mutants of both, and generated
certificates around the kernels the pass fills itself (mixed-script
DN values, DNS names with A-labels, mailboxes with every inner tag).
"""

import datetime as dt
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.asn1.der import Element, explicit
from repro.asn1.oid import (
    OID_COMMON_NAME,
    OID_LOCALITY_NAME,
    OID_ON_SMTP_UTF8_MAILBOX,
    OID_ORGANIZATION_NAME,
    OID_ORGANIZATIONAL_UNIT,
)
from repro.asn1.strings import BMP_STRING, PRINTABLE_STRING, UTF8_STRING
from repro.asn1.tags import Tag
from repro.ct.corpus import CorpusGenerator
from repro.lint.compiled import APPLIES_NONEMPTY, SCOPE_NONEMPTY
from repro.lint.framework import REGISTRY, index_for
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import issuer_alt_name, subject_alt_name
from repro.x509.general_name import GeneralName, GeneralNameKind
from repro.x509.keys import generate_keypair

from ..hypothesis_profiles import examples
from ..x509.test_decode_differential import _MUTATION, _NODE_EDIT, mutate, sources
from . import reference_field_walk
from .test_verdict_templates import _witness_ders

KEY = generate_keypair(seed=73)
WHEN = dt.datetime(2024, 7, 1)


def _plan():
    return index_for(REGISTRY.snapshot()).compiled_plan()


def production_outcomes(plan, cert) -> list:
    """``(live, applicable, trigger bits)`` per row, read off one
    :meth:`~repro.lint.compiled.CompiledPlan.scan` of ``cert``."""
    signature, slots = plan.scan(cert)
    outcomes = []
    for _lint, families, row_slots, trigger, mode in plan.entries:
        if not row_slots:
            outcomes.append((True, True, None))
            continue
        if families is not None and not families & signature:
            outcomes.append((False, False, 0))
            continue
        mask = 0
        for slot in row_slots:
            mask |= slots[slot]
        applicable = mode != APPLIES_NONEMPTY or bool(mask & SCOPE_NONEMPTY)
        outcomes.append((True, applicable, mask & trigger))
    return outcomes


def assert_rows_agree(der: bytes) -> None:
    try:
        cert = Certificate.from_der(der)
    except Exception:  # noqa: BLE001 - an unparseable input has no rows
        return
    plan = _plan()
    lints = [row[0] for row in plan.entries]
    expected = reference_field_walk.row_outcomes(lints, cert)
    actual = production_outcomes(plan, Certificate.from_der(der))
    mismatches = [
        (lint.metadata.name, want, got)
        for lint, want, got in zip(lints, expected, actual)
        if want != got
    ]
    assert mismatches == []
    # The template settles exactly the rows the old derivation settles:
    # PASS for an applicable row with a clear trigger, a run otherwise.
    static, dynamic = plan.template(*plan.scan(Certificate.from_der(der)))
    settled = [
        lint.metadata.name
        for lint, (_live, applicable, fired) in zip(lints, expected)
        if applicable and fired == 0
    ]
    run = [
        lint.metadata.name
        for lint, (_live, applicable, fired) in zip(lints, expected)
        if applicable and fired != 0
    ]
    assert [result.lint.name for result in static] == settled
    assert [lint.metadata.name for _, lint, _ in dynamic] == run


@functools.cache
def _corpus_ders(seed: int) -> list[bytes]:
    corpus = CorpusGenerator(seed=seed, scale=0.00002).generate()
    return [record.certificate.to_der() for record in corpus.records]


@pytest.mark.parametrize("seed", [1, 7, 2025])
def test_seed_corpora(seed):
    for der in _corpus_ders(seed):
        assert_rows_agree(der)


def test_fuzz_witnesses():
    for der in _witness_ders():
        assert_rows_agree(der)


@settings(deadline=None, max_examples=examples(150))
@given(
    which=st.integers(min_value=0),
    edits=st.lists(_NODE_EDIT, max_size=2),
    mutations=st.lists(_MUTATION, max_size=3),
)
def test_mutants(which, edits, mutations):
    ders = sources()
    assert_rows_agree(mutate(ders[which % len(ders)], edits, mutations))


#: Text pieces around the pass's own kernels: Latin and confusable
#: Cyrillic/Greek letters, whitespace, a decomposed accent, dots.
PIECES = st.sampled_from(
    ["a", "Z", "é", "é", "а", "о", "Ρ", "ß", " ", ".", "-", "xn--", "1", "@", "​"]
)
TEXT = st.lists(PIECES, max_size=6).map("".join)
OIDS = st.sampled_from(
    [OID_COMMON_NAME, OID_ORGANIZATION_NAME, OID_ORGANIZATIONAL_UNIT, OID_LOCALITY_NAME]
)
SPECS = st.sampled_from([UTF8_STRING, PRINTABLE_STRING, BMP_STRING])


def _mailbox(value: str, tag: int) -> GeneralName:
    """A SmtpUTF8Mailbox otherName whose inner string carries ``tag``."""
    inner = explicit(0, Element.primitive(Tag.universal(tag), value.encode("utf-8")))
    return GeneralName(
        kind=GeneralNameKind.OTHER_NAME,
        value=value,
        raw=inner.encode(),
        other_name_oid=OID_ON_SMTP_UTF8_MAILBOX,
    )


NAMES = st.one_of(
    TEXT.map(GeneralName.dns),
    TEXT.map(lambda text: GeneralName.dns("xn--" + text.lstrip("."))),
    TEXT.map(GeneralName.email),
    TEXT.map(lambda text: GeneralName.uri("https://" + text)),
    st.tuples(TEXT, st.sampled_from([12, 22, 19, 4])).map(
        lambda pair: _mailbox(pair[0] + "@example.org", pair[1])
    ),
    st.just(GeneralName.ip("192.0.2.7")),
)


@settings(deadline=None, max_examples=examples(200))
@given(
    attrs=st.lists(st.tuples(OIDS, TEXT, SPECS), max_size=4),
    san=st.none() | st.lists(NAMES, max_size=4),
    ian=st.none() | st.lists(NAMES, max_size=2),
)
def test_generated_certificates(attrs, san, ian):
    builder = CertificateBuilder().not_before(WHEN)
    for oid, value, spec in attrs:
        if spec is PRINTABLE_STRING or spec is BMP_STRING:
            try:
                spec.encode(value, strict=True)
            except Exception:  # noqa: BLE001 - not encodable: keep UTF8String
                spec = UTF8_STRING
        builder.subject_attr(oid, value, spec)
    if san is not None:
        builder.add_extension(subject_alt_name(*san))
    if ian is not None:
        builder.add_extension(issuer_alt_name(*ian))
    assert_rows_agree(builder.sign(KEY).to_der())
