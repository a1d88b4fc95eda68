"""``cert_facts``: the Figure 4 Unicode columns extracted at decode.

The non-ASCII predicate is a pair of ``str`` methods rather than a
per-character loop; it is checked here against the loop over every code
point, and ``cert_facts`` against the per-column scan it replaced.
"""

import os
import pathlib
import subprocess
import sys

import repro
from repro.asn1.oid import (
    OID_COMMON_NAME,
    OID_LOCALITY_NAME,
    OID_ORGANIZATION_NAME,
    OID_ORGANIZATIONAL_UNIT,
    OID_STATE_OR_PROVINCE,
)
from repro.ct import CorpusGenerator
from repro.engine.windows import CertFacts, _has_non_ascii, cert_facts


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
        if _has_non_ascii(chr(cp)) != (not 0x20 <= cp <= 0x7E)
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


def test_engine_does_not_import_analysis():
    code = "import sys, repro.engine; print('repro.analysis' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
