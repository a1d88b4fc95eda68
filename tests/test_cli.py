"""Tests for the command-line interface."""

import datetime as dt

import pytest

from repro.asn1.errors import ASN1Error
from repro.cli import main
from repro.engine.ingest import sniff_certificate_bytes
from repro.lint.reference import reference_run_lints
from repro.lint.serialization import render_text_report, report_to_json
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.pem import encode_pem

KEY = generate_keypair(seed=121)


def write_cert(tmp_path, cn, san=None, pem=True):
    builder = CertificateBuilder().subject_cn(cn).not_before(dt.datetime(2024, 1, 1))
    if san:
        builder.add_extension(subject_alt_name(GeneralName.dns(san)))
    der = builder.sign(KEY).to_der()
    path = tmp_path / "cert.pem"
    if pem:
        path.write_text(encode_pem(der))
    else:
        path.write_bytes(der)
    return str(path)


class TestLintCommand:
    def test_compliant_exit_zero(self, tmp_path, capsys):
        path = write_cert(tmp_path, "ok.example.com", san="ok.example.com")
        assert main(["lint", path]) == 0
        out = capsys.readouterr().out
        assert "compliant: no findings" in out

    def test_noncompliant_exit_one(self, tmp_path, capsys):
        path = write_cert(tmp_path, "bad\x00cn.example.com", san="other.example.com")
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "finding(s):" in out
        assert "e_rfc_subject_dn_not_printable_characters" in out

    def test_der_input(self, tmp_path):
        path = write_cert(tmp_path, "ok.example.com", san="ok.example.com", pem=False)
        assert main(["lint", path]) == 0

    def test_ignore_effective_dates_flag(self, tmp_path, capsys):
        # An old cert with CN-not-in-SAN: suppressed normally, flagged
        # with the override.
        builder = (
            CertificateBuilder()
            .subject_cn("old.example.com")
            .not_before(dt.datetime(2009, 1, 1))
        )
        path = tmp_path / "old.pem"
        path.write_text(encode_pem(builder.sign(KEY).to_der()))
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--ignore-effective-dates"]) == 1


class TestRulesCommand:
    def test_lists_95(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "95 rule(s)" in out

    def test_new_only(self, capsys):
        assert main(["rules", "--new-only"]) == 0
        out = capsys.readouterr().out
        assert "50 rule(s)" in out

    def test_type_filter(self, capsys):
        assert main(["rules", "--type", "Bad Normalization"]) == 0
        out = capsys.readouterr().out
        assert "4 rule(s)" in out

    def test_verbose(self, capsys):
        assert main(["rules", "--new-only", "-v"]) == 0
        out = capsys.readouterr().out
        assert "structures:" in out


class TestCorpusCommand:
    def test_tiny_corpus(self, capsys):
        assert main(["corpus", "--scale", "0.00002", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "noncompliant:" in out
        assert "top lints:" in out

    def test_jobs_output_byte_identical(self, capsys):
        # Satellite acceptance: same seed, --jobs 4 vs --jobs 1, the
        # printed compliance landscape must match byte for byte.
        args = ["corpus", "--scale", "0.00001", "--seed", "3"]
        assert main(args + ["--jobs", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(args + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert sequential == parallel
        assert "noncompliant:" in sequential


class TestDifferentialCommand:
    def test_matrices_printed(self, capsys):
        assert main(["differential"]) == 0
        out = capsys.readouterr().out
        assert "decoding matrix" in out
        assert "character checks" in out


class TestLintMultipleFiles:
    """PR 2 satellite: several files in one invocation, per-file status
    on stderr, worst per-file status as the exit code."""

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("other", ["clean", "findings", "unparseable"])
    def test_two_files_worst_status_wins(self, tmp_path, capsys, as_json, other):
        good = write_cert(tmp_path, "ok.example.com", san="ok.example.com")
        if other == "unparseable":
            other_der = b"\x30\x03\x02\x01\x00"  # a SEQUENCE, not a certificate
            other_path = tmp_path / "other.der"
            other_path.write_bytes(other_der)
        else:
            cn = "two.example.com" if other == "clean" else "bad\x00cn.example.com"
            other_der = (
                CertificateBuilder()
                .subject_cn(cn)
                .not_before(dt.datetime(2024, 1, 1))
                .add_extension(subject_alt_name(GeneralName.dns("two.example.com")))
                .sign(KEY)
                .to_der()
            )
            other_path = tmp_path / "other.pem"
            other_path.write_text(encode_pem(other_der))
        status = {"clean": 0, "findings": 1, "unparseable": 2}[other]
        word = {0: "compliant", 1: "noncompliant", 2: "error"}[status]

        def body(der):
            cert = Certificate.from_der(der)
            report = reference_run_lints(cert)
            if as_json:
                return report_to_json(report, cert)
            return render_text_report(report, cert)

        with open(good, "rb") as handle:
            good_body = body(sniff_certificate_bytes(handle.read()))
        other_body = error = ""
        try:
            other_body = body(other_der) + "\n"
        except ASN1Error as exc:
            error = f"error: input is not a parseable certificate: {exc}\n"

        args = ["lint", good, str(other_path)] + (["--json"] if as_json else [])
        assert main(args) == status
        captured = capsys.readouterr()
        if as_json:
            assert captured.out == f"{good_body}\n{other_body}"
        else:
            assert captured.out == (
                f"== {good} ==\n{good_body}\n\n== {other_path} ==\n{other_body}"
            )
        assert captured.err == (
            f"{error}{good}: compliant (0)\n{other_path}: {word} ({status})\n"
        )

    def test_unreadable_file_status_two_dominates(self, tmp_path, capsys):
        good = write_cert(tmp_path, "ok.example.com", san="ok.example.com")
        missing = str(tmp_path / "does-not-exist.pem")
        assert main(["lint", good, missing]) == 2
        captured = capsys.readouterr()
        assert f"{missing}: error (2)" in captured.err
        assert "cannot read" in captured.err

    def test_single_file_output_is_unchanged(self, tmp_path, capsys):
        # No headers, no stderr status lines: the historical format the
        # service parity tests depend on.
        path = write_cert(tmp_path, "ok.example.com", san="ok.example.com")
        assert main(["lint", path]) == 0
        captured = capsys.readouterr()
        assert "==" not in captured.out
        assert captured.err == ""

    def test_multi_file_json_emits_one_document_per_file(self, tmp_path, capsys):
        import json as json_mod

        a = write_cert(tmp_path, "ok.example.com", san="ok.example.com")
        b_path = tmp_path / "b.pem"
        b_path.write_text(
            encode_pem(
                CertificateBuilder()
                .subject_cn("two.example.com")
                .not_before(dt.datetime(2024, 1, 1))
                .add_extension(subject_alt_name(GeneralName.dns("two.example.com")))
                .sign(KEY)
                .to_der()
            )
        )
        assert main(["lint", a, str(b_path), "--json"]) == 0
        captured = capsys.readouterr()
        documents = json_mod.loads("[" + captured.out.replace("}\n{", "},{") + "]")
        assert len(documents) == 2
        assert all("findings" in document for document in documents)
