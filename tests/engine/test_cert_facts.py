"""``cert_facts``: the Figure 4 Unicode columns, read off the lint pass.

The non-ASCII predicate is a pair of scan-mask atoms rather than a
per-character loop; it is checked here against the loop over every code
point.  ``cert_facts`` reads the columns from the slot masks of the
compiled field pass; it is checked against a plain per-field
extraction over the certificate's views, on generated corpora and on
certificates whose SAN or CertificatePolicies fail to decode, both when
it scans the fields itself and when the pass comes from ``run_lints``
or the shard worker.
"""

import datetime as dt

import pytest

from repro.asn1.strings import BMP_STRING, PRINTABLE_STRING, UTF8_STRING
from repro.asn1.oid import (
    OID_COMMON_NAME,
    OID_CP_DOMAIN_VALIDATED,
    OID_EXT_CERTIFICATE_POLICIES,
    OID_EXT_SAN,
    OID_LOCALITY_NAME,
    OID_ORGANIZATION_NAME,
    OID_ORGANIZATIONAL_UNIT,
    OID_QT_UNOTICE,
    OID_STATE_OR_PROVINCE,
)
from repro.ct.corpus import CorpusGenerator
from repro.engine.windows import _NOT_PRINTABLE_ASCII, CertFacts, cert_facts
from repro.lint.compiled import char_mask, scan_mask
from repro.lint.framework import REGISTRY, index_for
from repro.lint.runner import run_lints
from repro.lint.parallel import ShardTask, lint_shard
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import (
    Extension,
    PolicyInformation,
    PolicyQualifier,
    UserNotice,
    certificate_policies,
    subject_alt_name,
)
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair


def _has_non_ascii(text: str) -> bool:
    """The predicate ``cert_facts`` reads off a string's scan mask."""
    return bool(scan_mask(text) & _NOT_PRINTABLE_ASCII)


def _loop_has_non_ascii(text: str) -> bool:
    return any(not 0x20 <= ord(ch) <= 0x7E for ch in text)


def _reference_cert_facts(cert) -> CertFacts:
    """The per-column scan ``cert_facts`` replaced."""
    columns = {
        "CN": OID_COMMON_NAME,
        "O": OID_ORGANIZATION_NAME,
        "OU": OID_ORGANIZATIONAL_UNIT,
        "L": OID_LOCALITY_NAME,
        "ST": OID_STATE_OR_PROVINCE,
    }
    fields = []
    for name in cert.san_dns_names:
        if _loop_has_non_ascii(name) or any(
            label[:4].lower() == "xn--" for label in name.split(".")
        ):
            fields.append("DNSName")
            break
    for column, oid in columns.items():
        if any(_loop_has_non_ascii(v) for v in cert.subject.get(oid)):
            fields.append(column)
    policies = cert.policies
    if policies is not None and any(
        _loop_has_non_ascii(text) for _tag, text, _ok in policies.explicit_texts
    ):
        fields.append("CertificatePolicies")
    return CertFacts(
        validity_days=int(cert.validity_days), unicode_fields=tuple(sorted(fields))
    )


def test_predicate_matches_the_loop_on_every_code_point():
    mismatches = [
        cp
        for cp in range(0x110000)
        if bool(char_mask(chr(cp)) & _NOT_PRINTABLE_ASCII) != (not 0x20 <= cp <= 0x7E)
    ]
    assert mismatches == []


def test_predicate_on_strings():
    for text in ["", "plain ascii", "tab\there", "del\x7f", "bücher", "a​b", "~ !"]:
        assert _has_non_ascii(text) == _loop_has_non_ascii(text)


def test_cert_facts_match_the_per_column_scan():
    corpus = CorpusGenerator(seed=3, scale=1 / 200_000).generate()
    facts = [cert_facts(record.certificate) for record in corpus.records]
    assert facts == [_reference_cert_facts(record.certificate) for record in corpus.records]
    assert any(fact.unicode_fields for fact in facts)


KEY = generate_keypair(seed=2701)


def _policies(text: str, spec=UTF8_STRING) -> Extension:
    return certificate_policies(
        PolicyInformation(
            OID_CP_DOMAIN_VALIDATED,
            [PolicyQualifier(OID_QT_UNOTICE, user_notice=UserNotice(text, spec))],
        )
    )


def _edge_ders() -> list[bytes]:
    """Certificates at the edges of each column's extraction."""
    good_san = subject_alt_name(
        GeneralName.dns("plain.example"), GeneralName.dns("XN--bcher-kva.example")
    )
    bad_san = Extension(OID_EXT_SAN, False, good_san.value_der[:-3])
    bad_cp = Extension(
        OID_EXT_CERTIFICATE_POLICIES, False, _policies("Nötice").value_der[:-2]
    )
    when = dt.datetime(2024, 1, 1)
    builds = [
        # A SAN that does not decode, next to a non-ASCII policy text.
        CertificateBuilder().subject_cn("a.example").add_extension(bad_san)
        .add_extension(_policies("Nötice", BMP_STRING)),
        # A policy that does not decode, next to an A-label in the SAN.
        CertificateBuilder().subject_cn("b.example").add_extension(good_san)
        .add_extension(bad_cp),
        # Two CertificatePolicies: the first (undecodable) one counts.
        CertificateBuilder().subject_cn("c.example").add_extension(bad_cp)
        .add_extension(_policies("Nötice")),
        # Control characters, DEL and non-ASCII in DN columns; an ASCII
        # policy; a SAN that holds no DNSName at all.
        CertificateBuilder()
        .subject_cn("tab\there.example")
        .subject_cn("second.example", PRINTABLE_STRING)
        .subject_attr(OID_ORGANIZATION_NAME, "Org")
        .subject_attr(OID_ORGANIZATIONAL_UNIT, "del\x7f")
        .subject_attr(OID_LOCALITY_NAME, "Zürich")
        .subject_attr(OID_STATE_OR_PROVINCE, "~ plain !")
        .add_extension(subject_alt_name(GeneralName.email("a@b.example")))
        .add_extension(_policies("Notice")),
        # A subject attribute whose bytes do not decode.
        CertificateBuilder()
        .subject_attr(OID_ORGANIZATION_NAME, "Org", UTF8_STRING, raw=b"\xff\xfeOrg")
        .add_extension(subject_alt_name(GeneralName.dns("bücher.example"))),
        # A SAN present with no names.
        CertificateBuilder().subject_cn("e.example").add_extension(subject_alt_name()),
        # An A-label after the first label; ``xn--`` inside a label.
        CertificateBuilder().subject_cn("f.example").add_extension(
            subject_alt_name(GeneralName.dns("www.xN--80ak6aa92e.com"))
        ),
        CertificateBuilder().subject_cn("g.example").add_extension(
            subject_alt_name(GeneralName.dns("maxn--x.example"), GeneralName.dns("a.b"))
        ),
    ]
    return [builder.not_before(when).sign(KEY).to_der() for builder in builds]


def _oracle_certificates(seed: int) -> list[Certificate]:
    corpus = CorpusGenerator(seed=seed, scale=0.00002).generate()
    ders = [record.certificate.to_der() for record in corpus.records] + _edge_ders()
    return [Certificate.from_der(der) for der in ders]


@pytest.mark.parametrize("seed", [1, 7, 2025])
def test_facts_from_the_lint_pass_match_the_reference(seed):
    certs = _oracle_certificates(seed)
    expected = [_reference_cert_facts(cert) for cert in certs]
    assert [cert_facts(cert) for cert in certs] == expected
    from_pass = []
    plan = index_for(REGISTRY.snapshot()).compiled_plan()
    for cert in certs:
        scan = plan.scan(cert)
        run_lints(cert, scan=scan)
        from_pass.append(cert_facts(cert, plan, scan))
    assert from_pass == expected
    columns = {column for fact in expected for column in fact.unicode_fields}
    assert columns == {"CN", "CertificatePolicies", "DNSName", "L", "O", "OU", "ST"}


def test_edge_certificates_hit_each_decode_failure():
    certs = [Certificate.from_der(der) for der in _edge_ders()]
    assert certs[0].san is None and certs[0].san_parse_error is not None
    assert certs[1].policies is None and certs[2].policies is None
    facts = [_reference_cert_facts(cert).unicode_fields for cert in certs]
    assert facts[:4] == [
        ("CertificatePolicies",),
        ("DNSName",),
        (),
        ("CN", "L", "OU"),
    ]
    assert facts[-2:] == [("DNSName",), ()]


def test_shard_worker_facts_match_the_reference():
    ders = _edge_ders() + [b"\x30\x03\x02\x01\x00"]
    result = lint_shard(
        ShardTask(
            index=0,
            certs_der=tuple(ders),
            issued_at=(None,) * len(ders),
            collect_facts=True,
        )
    )
    assert result.error is None
    assert [offset for offset, _counts, _facts in result.facts] == list(
        range(len(ders) - 1)
    )
    assert [facts for _offset, _counts, facts in result.facts] == [
        _reference_cert_facts(Certificate.from_der(der)) for der in ders[:-1]
    ]
    assert [offset for offset, _ in result.failures] == [len(ders) - 1]
