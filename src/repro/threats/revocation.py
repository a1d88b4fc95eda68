"""Revocation subversion via CRL-URL rewriting (Section 5.2, impact 2).

End-to-end model of the paper's PyOpenSSL attack: a certificate's
CRLDistributionPoints URI contains a control character
(``http://ssl\\x01test.com``).  A correct parser fetches from that URL
(which the attacker cannot influence); a parser that replaces control
characters with "." fetches from ``http://ssl.test.com`` — a host the
attacker *can* run — receiving an empty CRL and accepting the revoked
certificate.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from ..tlslibs.base import ParserProfile
from ..x509.certificate import Certificate
from ..x509.keys import SimPublicKey
from ..x509.crl import CertificateRevocationList


@dataclass
class CRLHostRegistry:
    """The simulated network: URL -> CRL DER bytes."""

    hosts: dict[str, bytes] = field(default_factory=dict)

    def publish(self, url: str, crl_der: bytes) -> None:
        self.hosts[url] = crl_der

    def fetch(self, url: str) -> bytes | None:
        return self.hosts.get(url)


@dataclass
class RevocationOutcome:
    """What a client concluded about one certificate."""

    checked_url: str | None
    fetched: bool
    revoked: bool
    soft_failed: bool

    @property
    def accepted(self) -> bool:
        """Whether the connection proceeds (soft-fail on fetch errors)."""
        return not self.revoked


class RevocationClient:
    """A strict-revocation client built on one TLS parser profile.

    When an OCSP responder is configured the client prefers OCSP (the
    pre-SC063 behaviour) and falls back to CRLs only on UNKNOWN or
    unverifiable responses — so a healthy OCSP deployment neutralizes
    the CRL-URL rewriting attack entirely.
    """

    def __init__(
        self,
        profile: ParserProfile,
        registry: CRLHostRegistry,
        issuer_key: SimPublicKey | None = None,
        hard_fail: bool = False,
        ocsp_responder=None,
    ):
        self.profile = profile
        self.registry = registry
        self.issuer_key = issuer_key
        self.hard_fail = hard_fail
        self.ocsp_responder = ocsp_responder

    def _check_ocsp(self, cert: Certificate) -> RevocationOutcome | None:
        from ..x509.ocsp import CertStatus, OCSPResponse

        if self.ocsp_responder is None:
            return None
        response = OCSPResponse.from_der(self.ocsp_responder.respond(cert.serial))
        if self.issuer_key is not None and not response.verify(self.issuer_key):
            return None  # unverifiable -> fall back to CRLs
        if response.status is CertStatus.UNKNOWN:
            return None
        return RevocationOutcome(
            "ocsp", True, revoked=response.status is CertStatus.REVOKED, soft_failed=False
        )

    def check(self, cert: Certificate, when: _dt.datetime | None = None) -> RevocationOutcome:
        """OCSP first (when configured), then the profile-parsed CRL URL."""
        via_ocsp = self._check_ocsp(cert)
        if via_ocsp is not None:
            return via_ocsp
        urls = self.profile.crl_urls(cert)
        if not urls:
            return RevocationOutcome(None, False, revoked=self.hard_fail, soft_failed=True)
        url = urls[0]
        crl_der = self.registry.fetch(url)
        if crl_der is None:
            return RevocationOutcome(url, False, revoked=self.hard_fail, soft_failed=True)
        crl = CertificateRevocationList.from_der(crl_der)
        if self.issuer_key is not None and not crl.verify(self.issuer_key):
            return RevocationOutcome(url, True, revoked=self.hard_fail, soft_failed=True)
        return RevocationOutcome(
            url, True, revoked=crl.is_revoked(cert.serial), soft_failed=False
        )


def revocation_subversion_experiment() -> dict[str, RevocationOutcome]:
    """Run the full attack against a correct parser and PyOpenSSL.

    Returns outcomes keyed by profile name; the PyOpenSSL client checks
    the attacker-controlled dot-rewritten URL and misses the revocation.
    """
    from ..asn1.oid import OID_ORGANIZATION_NAME
    from ..tlslibs.profiles import GNUTLS, PYOPENSSL
    from ..x509.builder import CertificateBuilder
    from ..x509.extensions import crl_distribution_points
    from ..x509.keys import generate_keypair
    from ..x509.name import Name
    from ..x509.crl import build_crl

    ca_key = generate_keypair(seed="revocation-ca")
    ca_name = Name.build([(OID_ORGANIZATION_NAME, "Compromised CA")])
    crafted_url = "http://ssl\x01test.com/ca.crl"  # what the CA signs
    rewritten_url = "http://ssl.test.com/ca.crl"  # what PyOpenSSL fetches

    victim = (
        CertificateBuilder()
        .serial(666)
        .subject_cn("revoked.example.com")
        .issuer_name(ca_name)
        .not_before(_dt.datetime(2024, 5, 1))
        .validity_days(365)
        .add_extension(crl_distribution_points(crafted_url))
        .sign(ca_key)
    )

    registry = CRLHostRegistry()
    # The genuine CRL at the genuine (control-char) URL revokes serial 666.
    _real_crl, real_der = build_crl(ca_name, ca_key, revoked_serials=[666])
    registry.publish(crafted_url, real_der)
    # The attacker's host serves an empty — but validly signed-looking —
    # CRL; they cannot forge the CA signature, so it is self-signed junk.
    attacker_key = generate_keypair(seed="attacker")
    _fake_crl, fake_der = build_crl(ca_name, attacker_key, revoked_serials=[])
    registry.publish(rewritten_url, fake_der)

    outcomes = {}
    for profile in (GNUTLS, PYOPENSSL):
        client = RevocationClient(profile, registry)
        outcomes[profile.name] = client.check(victim)
    return outcomes
