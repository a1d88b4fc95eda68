"""Tests for corpus export/import."""

import pytest

from repro.ct.corpus import CorpusGenerator
from repro.ct.dataset import export_corpus, load_corpus


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=17, scale=1 / 100000).generate()


class TestRoundtrip:
    def test_export_creates_layout(self, corpus, tmp_path):
        root = export_corpus(corpus, tmp_path / "dataset")
        assert (root / "index.jsonl").exists()
        assert (root / "manifest.json").exists()
        assert list((root / "certs").glob("*.pem"))
        assert list((root / "ca").glob("*.pem"))

    def test_roundtrip_preserves_records(self, corpus, tmp_path):
        root = export_corpus(corpus, tmp_path / "dataset")
        loaded = load_corpus(root)
        assert len(loaded.records) == len(corpus.records)
        for original, restored in zip(corpus.records, loaded.records):
            assert restored.issuer_org == original.issuer_org
            assert restored.defect == original.defect
            assert restored.latent == original.latent
            assert restored.issued_at == original.issued_at
            assert (
                restored.certificate.fingerprint()
                == original.certificate.fingerprint()
            )

    def test_roundtrip_preserves_trust_and_cas(self, corpus, tmp_path):
        root = export_corpus(corpus, tmp_path / "dataset")
        loaded = load_corpus(root)
        assert loaded.trust_anchors == corpus.trust_anchors
        assert set(loaded.ca_certificates) == set(corpus.ca_certificates)

    def test_loaded_corpus_lints_identically(self, corpus, tmp_path):
        from repro.analysis.compliance import lint_corpus

        root = export_corpus(corpus, tmp_path / "dataset")
        loaded = load_corpus(root)
        original_reports = lint_corpus(corpus)
        loaded_reports = lint_corpus(loaded)
        assert [sorted(r.fired_lints()) for r in original_reports] == [
            sorted(r.fired_lints()) for r in loaded_reports
        ]

    def test_loaded_chain_verification_works(self, corpus, tmp_path):
        from repro.x509.verify import build_chain

        root = export_corpus(corpus, tmp_path / "dataset")
        loaded = load_corpus(root)
        record = loaded.records[0]
        chain = build_chain(record.certificate, loaded.ca_pool())
        assert chain[-1].is_ca

    def test_unknown_format_rejected(self, tmp_path):
        import json

        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_corpus(bad)


class TestIntegrityVerification:
    """PR 2 satellite: load_corpus verifies the manifest digests and
    fails loudly on tampered or truncated exports."""

    def test_manifest_records_index_digest(self, corpus, tmp_path):
        import hashlib
        import json

        root = export_corpus(corpus, tmp_path / "dataset")
        manifest = json.loads((root / "manifest.json").read_text())
        digest = hashlib.sha256((root / "index.jsonl").read_bytes()).hexdigest()
        assert manifest["index_sha256"] == digest
        assert manifest["records"] == len(corpus.records)

    def test_tampered_index_fails_loudly(self, corpus, tmp_path):
        from repro.ct.dataset import DatasetIntegrityError

        root = export_corpus(corpus, tmp_path / "dataset")
        index = root / "index.jsonl"
        index.write_text(
            index.read_text().replace('"region": "', '"region": "x", "x": "', 1)
        )
        with pytest.raises(DatasetIntegrityError, match="digest mismatch"):
            load_corpus(root)

    def test_truncated_index_fails_loudly(self, corpus, tmp_path):
        from repro.ct.dataset import DatasetIntegrityError

        root = export_corpus(corpus, tmp_path / "dataset")
        index = root / "index.jsonl"
        lines = index.read_text().splitlines(keepends=True)
        index.write_text("".join(lines[:-1]))
        with pytest.raises(DatasetIntegrityError):
            load_corpus(root)

    def test_tampered_certificate_bytes_fail_loudly(self, corpus, tmp_path):
        import json

        from repro.ct.dataset import DatasetIntegrityError
        from repro.x509.pem import decode_pem, encode_pem

        root = export_corpus(corpus, tmp_path / "dataset")
        first = json.loads((root / "index.jsonl").read_text().splitlines()[0])
        target = root / "certs" / f"{first['fingerprint']}.pem"
        der = bytearray(decode_pem(target.read_text()))
        der[-1] ^= 0xFF  # flip one signature byte; still parseable DER
        target.write_text(encode_pem(bytes(der)))
        with pytest.raises(DatasetIntegrityError, match="hashes to"):
            load_corpus(root)

    def test_record_count_mismatch_fails_loudly(self, corpus, tmp_path):
        import json

        from repro.ct.dataset import DatasetIntegrityError

        root = export_corpus(corpus, tmp_path / "dataset")
        manifest_path = root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["records"] += 1
        # Recompute nothing else: the index digest still matches, so the
        # count check is what must fire.
        manifest_path.write_text(json.dumps(manifest, indent=2))
        with pytest.raises(DatasetIntegrityError, match="promises"):
            load_corpus(root)

    def test_legacy_manifest_without_digest_still_loads(self, corpus, tmp_path):
        import json

        root = export_corpus(corpus, tmp_path / "dataset")
        manifest_path = root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["index_sha256"]
        del manifest["records"]
        manifest_path.write_text(json.dumps(manifest, indent=2))
        loaded = load_corpus(root)
        assert len(loaded.records) == len(corpus.records)
