"""Equivalence proof for the memoized/indexed lint fast path.

The production runner (per-run LintContext + RegistryIndex family
skipping + effective-date bisect + derived-view caches) must be
*invisible*: every per-certificate report and every corpus summary must
be byte-identical to the reference oracle
(:func:`repro.lint.reference.reference_run_lints`: the per-lint loop
with caching disabled).  These tests pin that invariant over a seeded
corpus at ``jobs=1`` and ``jobs=4``, plus cache-correctness tests
proving mutated or rebuilt certificates never serve stale memoized
views.
"""

import datetime as dt

import pytest

from repro.asn1 import PRINTABLE_STRING
from repro.asn1.oid import OID_COMMON_NAME, OID_EXT_SAN, OID_ORGANIZATION_NAME
from repro.ct import CorpusGenerator
from repro.engine import run_corpus
from repro.lint import REGISTRY, run_lints, summarize, summary_to_json
from repro.lint.compiled import APPLIES_CALL
from repro.lint.framework import RegistryIndex
from repro.lint.reference import reference_run_lints
from repro.x509 import (
    AttributeTypeAndValue,
    CertificateBuilder,
    GeneralName,
    RelativeDistinguishedName,
    generate_keypair,
    subject_alt_name,
)

KEY = generate_keypair(seed=99)
WHEN = dt.datetime(2024, 4, 1)


@pytest.fixture(scope="module")
def corpus():
    # ~170 records spanning the generator's issuer/IDN/noncompliance mix.
    return CorpusGenerator(seed=11, scale=1 / 200000).generate()


def _report_shape(report):
    return [(r.lint.name, r.status, r.details) for r in report.results]


def _no_skip_index(lints):
    """An index whose plan skips nothing: every lint's ``applies()``
    and ``check()`` run, with no family or trigger-mask shortcut."""
    index = RegistryIndex(lints)
    index.compiled_plan().entries = tuple(
        (lint, None, None, 0, APPLIES_CALL) for lint in lints
    )
    return index


def _build(cn="test.example.com", san=None):
    builder = CertificateBuilder().subject_cn(cn).not_before(WHEN)
    builder.add_extension(subject_alt_name(GeneralName.dns(san or cn)))
    return builder.sign(KEY)


class TestReportEquivalence:
    def test_every_report_identical_to_oracle(self, corpus):
        for record in corpus.records:
            reference = reference_run_lints(
                record.certificate, issued_at=record.issued_at
            )
            optimized = run_lints(record.certificate, issued_at=record.issued_at)
            assert _report_shape(optimized) == _report_shape(reference)

    def test_summary_identical_across_jobs(self, corpus):
        reference = summarize(
            reference_run_lints(r.certificate, issued_at=r.issued_at)
            for r in corpus.records
        )
        baseline = summary_to_json(reference)
        inline = run_corpus(corpus, jobs=1)
        fanout = run_corpus(corpus, jobs=4)
        assert summary_to_json(inline.summary) == baseline
        assert summary_to_json(fanout.summary) == baseline

    def test_subset_run_matches_oracle(self, corpus):
        subset = REGISTRY.snapshot()[:7]
        record = corpus.records[0]
        reference = reference_run_lints(
            record.certificate, issued_at=record.issued_at, lints=subset
        )
        optimized = run_lints(
            record.certificate, issued_at=record.issued_at, lints=subset
        )
        assert _report_shape(optimized) == _report_shape(reference)

    def test_ignoring_effective_dates_matches(self, corpus):
        for record in corpus.records[:25]:
            reference = reference_run_lints(
                record.certificate,
                issued_at=record.issued_at,
                respect_effective_dates=False,
            )
            optimized = run_lints(
                record.certificate,
                issued_at=record.issued_at,
                respect_effective_dates=False,
            )
            assert _report_shape(optimized) == _report_shape(reference)

    def test_no_context_left_behind(self):
        cert = _build()
        run_lints(cert)
        assert not hasattr(cert, "_lint_ctx")
        reference_run_lints(cert)
        assert not hasattr(cert, "_lint_ctx")


class TestFamilySkipEquivalence:
    """Family skipping must be invisible (the staticcheck hazard).

    A mis-declared ``families`` frozenset would make ``RegistryIndex``
    skip a lint whose ``applies()`` would have returned True, silently
    turning findings into NAs.  ``repro.staticcheck``'s family-soundness
    checker proves the declarations statically; this test pins the same
    contract dynamically: a jobs-1 run with skipping enabled must yield
    a summary identical to a full no-skip run over the seeded corpus.
    """

    def test_jobs1_summary_identical_to_no_skip_run(self, corpus):
        lints = REGISTRY.snapshot()
        skipping = RegistryIndex(lints)
        no_skip = _no_skip_index(lints)
        with_skip = summarize(
            run_lints(r.certificate, issued_at=r.issued_at, index=skipping)
            for r in corpus.records
        )
        without_skip = summarize(
            run_lints(r.certificate, issued_at=r.issued_at, index=no_skip)
            for r in corpus.records
        )
        assert summary_to_json(with_skip) == summary_to_json(without_skip)

    def test_per_report_skip_equivalence(self, corpus):
        no_skip = _no_skip_index(REGISTRY.snapshot())
        for record in corpus.records[:40]:
            skipped = run_lints(record.certificate, issued_at=record.issued_at)
            full = run_lints(
                record.certificate, issued_at=record.issued_at, index=no_skip
            )
            assert _report_shape(skipped) == _report_shape(full)


class TestViewCacheCorrectness:
    def test_san_view_memoized_per_payload(self):
        cert = _build(san="a.example.com")
        assert cert.san is cert.san  # identical object while payload unchanged

    def test_value_der_swap_invalidates_san(self):
        donor = _build(san="b.example.com")
        cert = _build(san="a.example.com")
        assert cert.san.dns_names() == ["a.example.com"]
        cert.get_extension(OID_EXT_SAN).value_der = donor.get_extension(
            OID_EXT_SAN
        ).value_der
        assert cert.san.dns_names() == ["b.example.com"]

    def test_extension_replacement_invalidates_san(self):
        cert = _build(san="a.example.com")
        assert cert.san.dns_names() == ["a.example.com"]
        cert.extensions = [e for e in cert.extensions if e.oid != OID_EXT_SAN]
        assert cert.san is None
        cert.extensions.append(
            subject_alt_name(GeneralName.dns("c.example.com"))
        )
        assert cert.san.dns_names() == ["c.example.com"]

    def test_malformed_san_yields_parse_error(self):
        cert = _build(san="a.example.com")
        assert cert.san_parse_error is None
        # SEQUENCE whose inner element promises more octets than exist.
        cert.get_extension(OID_EXT_SAN).value_der = b"\x30\x03\x82\x05a"
        assert cert.san is None
        assert cert.san_parse_error is not None

    def test_rebuilt_certificate_never_shares_cache(self):
        first = _build(san="a.example.com")
        second = _build(san="b.example.com")
        assert first.san.dns_names() == ["a.example.com"]
        assert second.san.dns_names() == ["b.example.com"]


class TestNameCacheCorrectness:
    def test_attr_list_mutation_invalidates(self):
        cert = _build()
        assert [a.value for a in cert.subject.attributes()] == ["test.example.com"]
        cert.subject.rdns.append(
            RelativeDistinguishedName(
                [
                    AttributeTypeAndValue(
                        oid=OID_ORGANIZATION_NAME, value="Org", spec=PRINTABLE_STRING
                    )
                ]
            )
        )
        assert [a.value for a in cert.subject.attributes()] == [
            "test.example.com",
            "Org",
        ]
        assert cert.subject.get(OID_ORGANIZATION_NAME) == ["Org"]

    def test_oid_reassignment_invalidates(self):
        cert = _build()
        assert cert.subject.get(OID_COMMON_NAME) == ["test.example.com"]
        attr = cert.subject.rdns[0].attributes[0]
        attr.oid = OID_ORGANIZATION_NAME
        assert cert.subject.get(OID_COMMON_NAME) == []
        assert cert.subject.get(OID_ORGANIZATION_NAME) == ["test.example.com"]

    def test_value_reassignment_reads_live(self):
        cert = _build()
        cert.subject.attributes()  # warm the index
        cert.subject.rdns[0].attributes[0].value = "renamed.example.com"
        assert cert.subject.get(OID_COMMON_NAME) == ["renamed.example.com"]

    def test_char_set_tracks_value_object(self):
        attr = AttributeTypeAndValue(oid=OID_COMMON_NAME, value="abc")
        assert attr.char_set == frozenset("abc")
        attr.value = "xyz"
        assert attr.char_set == frozenset("xyz")
