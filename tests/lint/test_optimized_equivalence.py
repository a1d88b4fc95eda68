"""Equivalence proof for the memoized/indexed lint fast path.

The production runner (family signature + RegistryIndex family
skipping + effective-date bisect + derived-view caches) must be
*invisible*: every per-certificate report and every corpus summary must
be byte-identical to the reference oracle
(:func:`repro.lint.reference.reference_run_lints`: the per-lint loop
with caching disabled).  These tests pin that invariant over a seeded
corpus at ``jobs=1`` and ``jobs=4``, check lint by lint that the
applicability production derives from each ``ScanSpec`` equals the
lint's own ``applies()``, and prove mutated or rebuilt certificates
never serve stale memoized views.
"""

import datetime as dt
import functools

import pytest

from repro.asn1.strings import PRINTABLE_STRING
from repro.asn1.oid import OID_COMMON_NAME, OID_EXT_SAN, OID_ORGANIZATION_NAME
from repro.ct.corpus import CorpusGenerator
from repro.engine.pipeline import run_corpus
from repro.lint.framework import REGISTRY, FunctionLint
from repro.lint.runner import run_lints, summarize
from repro.lint.serialization import summary_to_json
from repro.lint.compiled import CompiledPlan, ScanSpec
from repro.lint.reference import reference_run_lints
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.name import AttributeTypeAndValue, RelativeDistinguishedName

from .test_all_lints_reachable import KEY as VIOLATOR_KEY, VIOLATORS

KEY = generate_keypair(seed=99)
WHEN = dt.datetime(2024, 4, 1)


@pytest.fixture(scope="module")
def corpus():
    # ~170 records spanning the generator's issuer/IDN/noncompliance mix.
    return CorpusGenerator(seed=11, scale=1 / 200000).generate()


def _report_shape(report):
    return [(r.lint.name, r.status, r.details) for r in report.results]


def derived_applicability(lint, cert: Certificate) -> bool:
    """Whether production treats ``lint`` as applicable to ``cert``.

    Read from the lint's ``ScanSpec`` alone, as the compiled plan reads
    it: one of the scope's families is in the certificate's signature
    and, for ``APPLIES_NONEMPTY``, the scope's ``SCOPE_NONEMPTY`` bit is
    set.  A plan of the one lint derives it: the lint is in the verdict
    template (as a PASS or a row that runs) iff it applies, and an
    unscoped lint is in every template.
    """
    plan = _one_lint_plan(lint)
    static, dynamic = plan.template(*plan.scan(cert))
    return bool(static) or bool(dynamic)


@functools.cache
def _one_lint_plan(lint) -> CompiledPlan:
    return CompiledPlan((lint,))


def applicability_mismatches(lints, ders) -> list:
    """``(lint, cert index, applies, derived)`` wherever the two differ."""
    mismatches = []
    for position, der in enumerate(ders):
        for lint in lints:
            applies = lint.applies(Certificate.from_der(der))
            derived = derived_applicability(lint, Certificate.from_der(der))
            if applies != derived:
                mismatches.append((lint.metadata.name, position, applies, derived))
    return mismatches


def _planted_ders() -> list:
    """One certificate per lint that violates it, plus a CN-less subject."""
    ders = [VIOLATORS[name]().sign(VIOLATOR_KEY).to_der() for name in sorted(VIOLATORS)]
    no_cn = (
        CertificateBuilder()
        .subject_attr(OID_ORGANIZATION_NAME, "Org", PRINTABLE_STRING)
        .not_before(WHEN)
        .sign(KEY)
    )
    return ders + [no_cn.to_der()]


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

    def test_no_state_left_on_the_certificate(self):
        cert = _build()
        before = dict(vars(cert))
        run_lints(cert)
        assert vars(cert) == before
        reference_run_lints(cert)
        assert vars(cert) == before


class TestDerivedApplicability:
    """Each lint's ``applies()`` equals what its ``ScanSpec`` derives.

    Production never calls ``applies()``: a live ``APPLIES_EXACT`` row
    is applicable and an ``APPLIES_NONEMPTY`` row is applicable iff its
    scope is nonempty.  A scope that is too wide would turn the dropped
    NA into a PASS or a finding; one that is too narrow would drop real
    findings.  Equality checks both directions, lint by lint.
    """

    def test_seeded_corpus(self, corpus):
        ders = [record.certificate.to_der() for record in corpus.records]
        assert applicability_mismatches(REGISTRY.snapshot(), ders) == []

    def test_planted_defects(self):
        assert applicability_mismatches(REGISTRY.snapshot(), _planted_ders()) == []

    def test_too_wide_scope_is_reported(self):
        # The extra-CN lint applies only when a CN is present; declared
        # on the whole subject it would claim every CN-less subject.
        source = REGISTRY.get("w_cab_subject_contain_extra_common_name")
        widened = FunctionLint(
            source.metadata,
            source.applies,
            source.check,
            scan=ScanSpec("subject", ("EXTRA_CN",)),
        )
        mismatches = applicability_mismatches([widened], _planted_ders())
        assert mismatches
        assert all(applies is False and derived for _, _, applies, derived in mismatches)


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
