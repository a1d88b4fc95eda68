"""Tests for the JSON and dataset-export CLI paths."""

import datetime as dt
import json

from repro.cli import main
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.pem import encode_pem

KEY = generate_keypair(seed=171)


def write_cert(tmp_path, cn, san=None):
    builder = CertificateBuilder().subject_cn(cn).not_before(dt.datetime(2024, 1, 1))
    if san:
        builder.add_extension(subject_alt_name(GeneralName.dns(san)))
    path = tmp_path / "cert.pem"
    path.write_text(encode_pem(builder.sign(KEY).to_der()))
    return str(path)


class TestJSONOutput:
    def test_json_report(self, tmp_path, capsys):
        path = write_cert(tmp_path, "bad\x00.example.com", san="other.example.com")
        assert main(["lint", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["noncompliant"] is True
        assert payload["certificate"]["fingerprint_sha256"]

    def test_json_compliant(self, tmp_path, capsys):
        path = write_cert(tmp_path, "ok.example.com", san="ok.example.com")
        assert main(["lint", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []


class TestCorpusExport:
    def test_export_then_reload(self, tmp_path, capsys):
        target = tmp_path / "released"
        assert (
            main(
                [
                    "corpus",
                    "--scale",
                    "0.00001",
                    "--seed",
                    "5",
                    "--export",
                    str(target),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "exported corpus to" in out
        from repro.ct.dataset import load_corpus

        loaded = load_corpus(target)
        assert len(loaded.records) > 0


class TestBadInput:
    def test_unparseable_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.pem"
        path.write_bytes(b"not a certificate")
        assert main(["lint", str(path)]) == 2
        assert "not a parseable certificate" in capsys.readouterr().err
