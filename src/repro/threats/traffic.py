"""Traffic-obfuscation experiments (Section 6.2).

Models the entity-extraction behaviour of three middlebox engines
(Snort, Suricata, Zeek) and the SAN format checking of four HTTP client
stacks (libcurl, urllib3, requests, HttpClient), then measures which
Table 3 value variants let an in-path attacker evade naive
certificate-field matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asn1.oid import OID_COMMON_NAME, OID_ORGANIZATION_NAME, OID_ORGANIZATIONAL_UNIT
from ..uni.variants import VariantStrategy, generate_variants
from ..x509.certificate import Certificate

# ---------------------------------------------------------------------------
# Middlebox models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MiddleboxProfile:
    """Entity extraction behaviour of one detection engine."""

    name: str
    #: Which CN/OU wins among duplicates ("first": Snort; "last": Zeek).
    duplicate_pick: str = "first"
    #: Whether SAN entries are consulted at all.
    parses_san: bool = True
    #: Zeek ignores SANs whose bytes are not valid IA5String.
    san_ia5_only: bool = False
    #: Suricata's Subject matching is case-sensitive.
    case_sensitive: bool = True

    def extract_entities(self, cert: Certificate) -> list[str]:
        """The entity strings the engine matches rules against."""
        entities: list[str] = []
        for oid in (OID_COMMON_NAME, OID_ORGANIZATIONAL_UNIT, OID_ORGANIZATION_NAME):
            values = cert.subject.get(oid)
            if values:
                entities.append(
                    values[0] if self.duplicate_pick == "first" else values[-1]
                )
        if self.parses_san:
            san = cert.san
            if san is not None:
                for gn in san.names:
                    if self.san_ia5_only and not gn.decode_ok:
                        continue
                    raw = gn.raw or b""
                    if gn.decode_ok:
                        value = gn.value
                    else:
                        # Engines built on permissive TLS parsers decode
                        # SAN bytes as UTF-8 where possible.
                        try:
                            value = raw.decode("utf-8")
                        except UnicodeDecodeError:
                            value = raw.decode("latin-1")
                    if value:
                        entities.append(value)
        return entities

    def matches_rule(self, cert: Certificate, rule_value: str) -> bool:
        """Naive string comparison against a blocklist rule."""
        for entity in self.extract_entities(cert):
            if self.case_sensitive:
                if entity == rule_value:
                    return True
            elif entity.casefold() == rule_value.casefold():
                return True
        return False


SNORT = MiddleboxProfile("Snort", duplicate_pick="first", case_sensitive=False)
SURICATA = MiddleboxProfile("Suricata", duplicate_pick="first", case_sensitive=True)
ZEEK = MiddleboxProfile("Zeek", duplicate_pick="last", san_ia5_only=True, case_sensitive=False)

ALL_MIDDLEBOXES = [SNORT, SURICATA, ZEEK]


# ---------------------------------------------------------------------------
# Client SAN format checking models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientProfile:
    """SAN format checking behaviour of one HTTP client stack (P2.2)."""

    name: str
    #: Accepts U-labels (raw Unicode) in SAN DNSNames without requiring
    #: Punycode conversion (urllib3's Latin-1 tolerance).
    accepts_ulabel_san: bool = False
    #: Validates that xn-- labels decode to legal U-labels.
    validates_punycode: bool = False

    def accepts_san_value(self, value: str) -> bool:
        from ..uni.dns import is_xn_label
        from ..uni.idna import alabel_violations

        if any(ord(ch) > 0x7F for ch in value):
            if not self.accepts_ulabel_san:
                return False
            # urllib3: anything Latin-1 passes; wider Unicode rejected.
            return all(ord(ch) <= 0xFF for ch in value)
        if self.validates_punycode:
            for label in value.split("."):
                if is_xn_label(label) and alabel_violations(label):
                    return False
        return True


LIBCURL = ClientProfile("libcurl", validates_punycode=True)
URLLIB3 = ClientProfile("urllib3", accepts_ulabel_san=True)
REQUESTS = ClientProfile("requests", accepts_ulabel_san=True)  # wraps urllib3
HTTPCLIENT = ClientProfile("HttpClient", validates_punycode=False)

ALL_CLIENTS = [LIBCURL, URLLIB3, REQUESTS, HTTPCLIENT]


# ---------------------------------------------------------------------------
# Evasion experiment
# ---------------------------------------------------------------------------


@dataclass
class EvasionResult:
    """Whether one variant evades one middlebox's rule."""

    middlebox: str
    strategy: VariantStrategy
    variant: str
    evaded: bool


def evasion_experiment(
    blocked_entity: str = "Evil Entity Ltd",
    middleboxes: list[MiddleboxProfile] | None = None,
) -> list[EvasionResult]:
    """Craft Table 3 variants of a blocked Subject and test each engine.

    The rule is the exact blocked entity string; a variant *evades* when
    the engine fails to match while a human (or the variant classifier)
    still considers the identity equivalent.
    """
    import datetime as dt

    from ..x509.builder import CertificateBuilder
    from ..x509.extensions import subject_alt_name
    from ..x509.general_name import GeneralName
    from ..x509.keys import generate_keypair

    middleboxes = middleboxes if middleboxes is not None else ALL_MIDDLEBOXES
    key = generate_keypair(seed="evasion")
    results: list[EvasionResult] = []
    for strategy, variant in generate_variants(blocked_entity).items():
        cert = (
            CertificateBuilder()
            .subject_cn("c2.attacker.example")
            .subject_attr(OID_ORGANIZATION_NAME, variant)
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(subject_alt_name(GeneralName.dns("c2.attacker.example")))
            .sign(key)
        )
        for middlebox in middleboxes:
            results.append(
                EvasionResult(
                    middlebox=middlebox.name,
                    strategy=strategy,
                    variant=variant,
                    evaded=not middlebox.matches_rule(cert, blocked_entity),
                )
            )
    return results


def duplicate_position_evasion(
    blocked_cn: str = "evil.example.com",
) -> dict[str, bool]:
    """P2.1: hide the malicious CN in the position an engine ignores.

    A certificate carries the malicious CN *second* (Snort reads the
    first) and a benign CN *first* (Zeek reads the last) — each engine
    can be evaded by the placement the other would catch.
    """
    import datetime as dt

    from ..x509.builder import CertificateBuilder
    from ..x509.keys import generate_keypair

    key = generate_keypair(seed="dup")
    evil_last = (
        CertificateBuilder()
        .subject_cn("benign.example.net")
        .subject_cn(blocked_cn)
        .not_before(dt.datetime(2024, 1, 1))
        .sign(key)
    )
    evil_first = (
        CertificateBuilder()
        .subject_cn(blocked_cn)
        .subject_cn("benign.example.net")
        .not_before(dt.datetime(2024, 1, 1))
        .sign(key)
    )
    return {
        "snort_evaded_by_evil_last": not SNORT.matches_rule(evil_last, blocked_cn),
        "snort_catches_evil_first": SNORT.matches_rule(evil_first, blocked_cn),
        "zeek_evaded_by_evil_first": not ZEEK.matches_rule(evil_first, blocked_cn),
        "zeek_catches_evil_last": ZEEK.matches_rule(evil_last, blocked_cn),
    }
