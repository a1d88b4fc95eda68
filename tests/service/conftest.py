"""Shared fixtures: certificate material + a live 2-job daemon."""

import contextlib
import datetime as dt
import io

import pytest

from repro.cli import main as cli_main
from repro.service.server import ServiceConfig
from repro.service.testing import ThreadedService
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.pem import encode_pem

KEY = generate_keypair(seed=431)
WHEN = dt.datetime(2024, 3, 1)


def build_cert(cn: str, san: str | None = None, serial: int = 1):
    builder = (
        CertificateBuilder()
        .subject_cn(cn)
        .serial(serial)
        .not_before(WHEN)
        .add_extension(subject_alt_name(GeneralName.dns(san or cn)))
    )
    return builder.sign(KEY)


@pytest.fixture(scope="session")
def mixed_certs():
    """16 distinct certs, half compliant, half noncompliant."""
    certs = []
    for i in range(8):
        certs.append(build_cert(f"ok{i}.example.com", serial=i + 1))
        certs.append(
            build_cert(f"bad{i}\x00.example.com", serial=100 + i)
        )
    return certs


@pytest.fixture(scope="session")
def cli_json_for(tmp_path_factory):
    """Oracle: the offline `python -m repro lint --json` stdout bytes."""
    root = tmp_path_factory.mktemp("cli-oracle")
    cache = {}

    def _oracle(cert) -> bytes:
        fp = cert.fingerprint()
        if fp not in cache:
            path = root / f"{fp}.pem"
            path.write_text(encode_pem(cert.to_der()))
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                cli_main(["lint", str(path), "--json"])
            cache[fp] = buffer.getvalue().encode("utf-8")
        return cache[fp]

    return _oracle


@pytest.fixture(scope="module")
def service():
    """A live daemon at --jobs 2 on an ephemeral port."""
    config = ServiceConfig(port=0, jobs=2, cache_size=64, max_queue=256)
    with ThreadedService(config) as threaded:
        yield threaded
