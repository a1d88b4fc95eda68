"""Corpus export/import — the dataset-release workflow.

A generated corpus is persisted as a directory containing:

* ``index.jsonl`` — one JSON record per certificate with the ground
  truth metadata (issuer, trust, dates, planted defect class);
* ``certs/<fingerprint>.pem`` — the certificate bytes;
* ``ca/<org-token>.pem`` — the issuer CA certificates;
* ``manifest.json`` — scale, seed hints, counts, and trust anchors.

Loading reconstitutes a fully functional :class:`Corpus` so analyses
can run on a released dataset without re-generating it.

Integrity: the manifest carries the record count and the SHA-256 of
``index.jsonl``, and each index row carries the certificate's SHA-256
fingerprint (which doubles as its filename).  :func:`load_corpus`
verifies all three and raises :class:`DatasetIntegrityError` on a
tampered or truncated export — a release consumed by third parties must
fail loudly, not reconstitute a silently different corpus.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import pathlib

from ..x509.certificate import Certificate
from ..x509.pem import decode_pem, encode_pem
from .corpus import Corpus, CorpusRecord, TrustStatus

_INDEX = "index.jsonl"
_MANIFEST = "manifest.json"


class DatasetIntegrityError(ValueError):
    """An exported corpus fails digest/count verification on load."""


def _record_to_dict(record: CorpusRecord) -> dict:
    return {
        "fingerprint": record.certificate.fingerprint(),
        "issuer_org": record.issuer_org,
        "region": record.region,
        "issuance_trust": record.issuance_trust.name,
        "current_trust": record.current_trust.name,
        "issued_at": record.issued_at.isoformat(),
        "defect": record.defect,
        "latent": record.latent,
        "is_idn": record.is_idn,
        "unicode_fields": list(record.unicode_fields),
    }


def export_corpus(corpus: Corpus, directory: str | pathlib.Path) -> pathlib.Path:
    """Write the corpus to ``directory``; returns the path."""
    root = pathlib.Path(directory)
    certs_dir = root / "certs"
    ca_dir = root / "ca"
    certs_dir.mkdir(parents=True, exist_ok=True)
    ca_dir.mkdir(parents=True, exist_ok=True)

    index_digest = hashlib.sha256()
    with open(root / _INDEX, "w", encoding="utf-8") as index:
        for record in corpus.records:
            payload = _record_to_dict(record)
            line = json.dumps(payload, ensure_ascii=False) + "\n"
            index.write(line)
            index_digest.update(line.encode("utf-8"))
            pem_path = certs_dir / f"{payload['fingerprint']}.pem"
            if not pem_path.exists():
                pem_path.write_text(encode_pem(record.certificate.to_der()))
    ca_tokens = {}
    for org, cert in corpus.ca_certificates.items():
        token = hashlib.sha256(org.encode("utf-8")).hexdigest()[:16]
        ca_tokens[token] = org
        (ca_dir / f"{token}.pem").write_text(encode_pem(cert.to_der()))
    (root / _MANIFEST).write_text(
        json.dumps(
            {
                "format": "unicert-corpus-v1",
                "scale": corpus.scale,
                "records": len(corpus.records),
                "index_sha256": index_digest.hexdigest(),
                "trust_anchors": sorted(corpus.trust_anchors),
                "ca_tokens": ca_tokens,
            },
            indent=2,
            ensure_ascii=False,
        )
    )
    return root


def load_corpus(directory: str | pathlib.Path) -> Corpus:
    """Reconstitute a corpus exported by :func:`export_corpus`.

    Verifies the manifest digests before trusting the data: the
    ``index.jsonl`` SHA-256 and record count must match the manifest,
    and every certificate's DER must hash to the fingerprint its index
    row (and filename) claims.  Raises :class:`DatasetIntegrityError`
    on any mismatch.
    """
    root = pathlib.Path(directory)
    manifest = json.loads((root / _MANIFEST).read_text())
    if manifest.get("format") != "unicert-corpus-v1":
        raise ValueError(f"unknown corpus format in {root}")
    index_bytes = (root / _INDEX).read_bytes()
    expected_index = manifest.get("index_sha256")
    if expected_index is not None:
        actual_index = hashlib.sha256(index_bytes).hexdigest()
        if actual_index != expected_index:
            raise DatasetIntegrityError(
                f"index.jsonl digest mismatch in {root}: manifest says "
                f"{expected_index}, file hashes to {actual_index} "
                "(tampered or truncated export)"
            )
    corpus = Corpus(scale=manifest["scale"])
    corpus.trust_anchors = set(manifest["trust_anchors"])
    cert_cache: dict[str, Certificate] = {}
    for line in index_bytes.decode("utf-8").splitlines():
        payload = json.loads(line)
        fingerprint = payload["fingerprint"]
        cert = cert_cache.get(fingerprint)
        if cert is None:
            pem_text = (root / "certs" / f"{fingerprint}.pem").read_text()
            cert = Certificate.from_der(decode_pem(pem_text))
            if cert.fingerprint() != fingerprint:
                raise DatasetIntegrityError(
                    f"certificate {fingerprint}.pem hashes to "
                    f"{cert.fingerprint()} (tampered certificate bytes)"
                )
            cert_cache[fingerprint] = cert
        corpus.records.append(
            CorpusRecord(
                certificate=cert,
                issuer_org=payload["issuer_org"],
                region=payload["region"],
                issuance_trust=TrustStatus[payload["issuance_trust"]],
                current_trust=TrustStatus[payload["current_trust"]],
                issued_at=_dt.datetime.fromisoformat(payload["issued_at"]),
                defect=payload["defect"],
                latent=payload["latent"],
                is_idn=payload["is_idn"],
                unicode_fields=tuple(payload["unicode_fields"]),
            )
        )
    expected_records = manifest.get("records")
    if expected_records is not None and len(corpus.records) != expected_records:
        raise DatasetIntegrityError(
            f"manifest promises {expected_records} records, index.jsonl "
            f"holds {len(corpus.records)} (truncated export)"
        )
    for token, org in manifest["ca_tokens"].items():
        pem_text = (root / "ca" / f"{token}.pem").read_text()
        corpus.ca_certificates[org] = Certificate.from_der(decode_pem(pem_text))
    return corpus
