"""The fast path of compiled dispatch: clean certificates run no lint code.

A certificate whose scope masks clear every trigger gets a verdict
template with no dynamic rows, so its report is the memoized PASS
skeleton and no ``applies()``/``check()`` runs.  These tests pin that
for the common shape of a clean leaf (its CN repeated in the SAN, DN
values with inner spaces, non-ASCII NFC UTF8Strings), check that such a
leaf leaves a memoized issuer undecoded, and bound the dynamic rows of
a generated corpus.
"""

import datetime as dt

import pytest

from repro.asn1.strings import UTF8_STRING
from repro.asn1.oid import OID_COMMON_NAME, OID_LOCALITY_NAME, OID_ORGANIZATION_NAME
from repro.ct.corpus import CorpusGenerator
from repro.lint.runner import run_lints
from repro.lint.compiled import CompiledPlan
from repro.lint.reference import reference_run_lints
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.name import Name

KEY = generate_keypair(seed=73)
WHEN = dt.datetime(2024, 7, 1)


@pytest.fixture()
def templates(monkeypatch):
    """Every template ``run_lints`` reads while the fixture is active."""
    seen = []
    original = CompiledPlan.template

    def spy(self, live, masks):
        template = original(self, live, masks)
        seen.append(template)
        return template

    monkeypatch.setattr(CompiledPlan, "template", spy)
    return seen


def _shape(report):
    return [(r.lint.name, r.status, r.details) for r in report.results]


def clean_leaf(issuer_org: str = "Beispiel Zertifizierungsstelle Köln") -> bytes:
    issuer = Name.build(
        [(OID_ORGANIZATION_NAME, issuer_org), (OID_COMMON_NAME, "Beispiel CA 1")],
        UTF8_STRING,
    )
    builder = (
        CertificateBuilder()
        .serial(11)
        .subject_cn("shop.example.com")
        .subject_attr(OID_ORGANIZATION_NAME, "Müller Bücher GmbH")
        .subject_attr(OID_LOCALITY_NAME, "Zürich")
        .issuer_name(issuer)
        .not_before(WHEN)
        .add_extension(
            subject_alt_name(
                GeneralName.dns("shop.example.com"), GeneralName.dns("example.com")
            )
        )
    )
    return builder.sign(KEY).to_der()


def test_clean_leaf_template_has_no_dynamic_rows(templates):
    der = clean_leaf()
    report = run_lints(Certificate.from_der(der), issued_at=WHEN)
    assert templates[-1].dynamic == ()
    assert not report.findings
    reference = reference_run_lints(Certificate.from_der(der), issued_at=WHEN)
    assert _shape(report) == _shape(reference)


def test_issuer_memo_hit_leaves_the_issuer_undecoded():
    der = clean_leaf("Deferred Zertifizierungsstelle Köln")
    run_lints(Certificate.from_der(der), issued_at=WHEN)  # primes both memos
    cert = Certificate.from_der(der)
    assert cert._issuer is None
    run_lints(cert, issued_at=WHEN)
    assert cert._issuer is None


def test_generated_corpus_runs_few_dynamic_rows(templates):
    records = CorpusGenerator(seed=1, scale=1 / 50_000).generate().records
    for record in records:
        run_lints(Certificate.from_der(record.certificate.to_der()), issued_at=record.issued_at)
    assert len(templates) == len(records)
    mean = sum(len(template.dynamic) for template in templates) / len(records)
    assert mean <= 0.2
