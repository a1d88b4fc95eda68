"""Ingest-stage sniffing: one taxonomy for the CLI and the service.

Satellite 1: the PEM/DER/base64 decision procedure and its
``empty_body`` / ``bad_pem`` / ``bad_body`` / ``unreadable`` error
codes live once in :mod:`repro.engine.ingest`, and the CLI accepts
every shape the service does (raw DER, base64 of DER, base64 of PEM).
"""

import base64
import datetime as dt
import io

import pytest

from repro.cli import main
from repro.engine.ingest import IngestError, read_path, sniff_certificate_bytes
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.pem import encode_pem

KEY = generate_keypair(seed=4001)


def build_cert():
    return (
        CertificateBuilder()
        .subject_cn("ok.example.com")
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(GeneralName.dns("ok.example.com")))
        .sign(KEY)
    )


class TestSniffing:
    def test_pem_decodes_to_der(self):
        der = build_cert().to_der()
        assert sniff_certificate_bytes(encode_pem(der).encode()) == der

    def test_pem_with_surrounding_whitespace(self):
        der = build_cert().to_der()
        body = b"\n\n  " + encode_pem(der).encode() + b"  \n"
        assert sniff_certificate_bytes(body) == der

    def test_raw_der_passes_through_untouched(self):
        der = build_cert().to_der()
        assert sniff_certificate_bytes(der) is der

    def test_base64_of_der(self):
        der = build_cert().to_der()
        assert sniff_certificate_bytes(base64.b64encode(der)) == der

    def test_base64_of_der_with_line_breaks(self):
        der = build_cert().to_der()
        encoded = base64.encodebytes(der)  # wrapped at 76 columns
        assert sniff_certificate_bytes(encoded) == der

    def test_base64_of_pem(self):
        der = build_cert().to_der()
        wrapped = base64.b64encode(encode_pem(der).encode())
        assert sniff_certificate_bytes(wrapped) == der

    def test_empty_body(self):
        with pytest.raises(IngestError) as excinfo:
            sniff_certificate_bytes(b"")
        assert excinfo.value.code == "empty_body"

    def test_whitespace_only_is_empty_body(self):
        with pytest.raises(IngestError) as excinfo:
            sniff_certificate_bytes(b" \n\t ")
        assert excinfo.value.code == "empty_body"

    def test_corrupt_pem_armor_is_bad_pem(self):
        with pytest.raises(IngestError) as excinfo:
            sniff_certificate_bytes(b"-----BEGIN CERTIFICATE-----\n!!!\n")
        assert excinfo.value.code == "bad_pem"
        assert "invalid PEM body" in excinfo.value.message

    def test_base64_of_corrupt_pem_is_bad_pem(self):
        wrapped = base64.b64encode(b"-----BEGIN CERTIFICATE-----\n!!!\n")
        with pytest.raises(IngestError) as excinfo:
            sniff_certificate_bytes(wrapped)
        assert excinfo.value.code == "bad_pem"

    def test_garbage_is_bad_body(self):
        with pytest.raises(IngestError) as excinfo:
            sniff_certificate_bytes(b"\xff\xfenot a certificate")
        assert excinfo.value.code == "bad_body"


class TestReadPath:
    def test_reads_file_bytes(self, tmp_path):
        path = tmp_path / "cert.der"
        der = build_cert().to_der()
        path.write_bytes(der)
        source = read_path(str(path))
        assert source.origin == str(path)
        assert source.data == der

    def test_missing_file_is_unreadable(self, tmp_path):
        missing = str(tmp_path / "nope.pem")
        with pytest.raises(IngestError) as excinfo:
            read_path(missing)
        assert excinfo.value.code == "unreadable"
        assert f"cannot read {missing}" in excinfo.value.message

    def test_dash_reads_stdin_buffer(self):
        class _Stdin:
            buffer = io.BytesIO(b"payload")

        source = read_path("-", stdin=_Stdin())
        assert source.origin == "-"
        assert source.data == b"payload"


class TestCliAcceptsServiceShapes:
    """The CLI now ingests every shape the service's POST body does."""

    def test_raw_der_file(self, tmp_path):
        path = tmp_path / "cert.der"
        path.write_bytes(build_cert().to_der())
        assert main(["lint", str(path)]) == 0

    def test_base64_der_file(self, tmp_path):
        path = tmp_path / "cert.b64"
        path.write_bytes(base64.b64encode(build_cert().to_der()))
        assert main(["lint", str(path)]) == 0

    def test_base64_pem_file(self, tmp_path):
        path = tmp_path / "cert.pem.b64"
        path.write_bytes(base64.b64encode(encode_pem(build_cert().to_der()).encode()))
        assert main(["lint", str(path)]) == 0

    def test_empty_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.pem"
        path.write_bytes(b"")
        assert main(["lint", str(path)]) == 2
        assert "not a parseable certificate" in capsys.readouterr().err

    def test_bad_pem_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.pem"
        path.write_text("-----BEGIN CERTIFICATE-----\n!!!\n")
        assert main(["lint", str(path)]) == 2
        assert "invalid PEM body" in capsys.readouterr().err
