"""Hostname verification built on the parser profiles (RFC 6125-style).

Implements the validation step that consumes each library's *parsed*
names, demonstrating the Section 5.1 impact: an incompatible decode of
a BMPString CN can hand the matcher a hostname the certificate never
legitimately carried ("githube.cn" from CJK code units), and CN-based
fallback turns that into a validation bypass.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..uni.idna import domain_to_ascii
from ..x509.certificate import Certificate
from ..x509.general_name import GeneralNameKind
from .base import ParserProfile


def _normalize(name: str) -> str:
    candidate = name.rstrip(".").casefold()
    try:
        return domain_to_ascii(candidate, validate=False)
    except Exception:
        return candidate


def match_hostname_pattern(pattern: str, hostname: str) -> bool:
    """RFC 6125 6.4.3 matching: case-insensitive, left-most wildcard."""
    pattern = _normalize(pattern)
    hostname = _normalize(hostname)
    if pattern == hostname:
        return True
    if pattern.startswith("*."):
        suffix = pattern[1:]  # ".example.com"
        if not hostname.endswith(suffix):
            return False
        prefix = hostname[: -len(suffix)]
        return bool(prefix) and "." not in prefix and "*" not in prefix
    return False


@dataclass
class HostnameVerdict:
    """The result of one hostname verification."""

    matched: bool
    via: str = ""  # "san" or "cn"
    candidates: tuple[str, ...] = ()


def verify_hostname(
    profile: ParserProfile,
    cert: Certificate,
    hostname: str,
    allow_cn_fallback: bool = True,
) -> HostnameVerdict:
    """Verify ``hostname`` using the names *as the profile parsed them*.

    SAN DNSNames take precedence (RFC 6125); the CN is consulted only
    when the SAN is absent and ``allow_cn_fallback`` is set — the
    deprecated behaviour the paper notes is still common.
    """
    san_candidates: list[str] = []
    san = cert.san if profile.supports_san else None
    if san is not None:
        for gn in san.names:
            if gn.kind is GeneralNameKind.DNS_NAME:
                outcome = profile.decode_gn(gn.raw or b"")
                if outcome.ok:
                    san_candidates.append(outcome.text)
    if san_candidates:
        matched = any(match_hostname_pattern(p, hostname) for p in san_candidates)
        return HostnameVerdict(matched, via="san", candidates=tuple(san_candidates))
    if not allow_cn_fallback:
        return HostnameVerdict(False, via="san", candidates=())
    cn = profile.common_name(cert)
    if cn is None:
        return HostnameVerdict(False, via="cn", candidates=())
    return HostnameVerdict(
        match_hostname_pattern(cn, hostname), via="cn", candidates=(cn,)
    )


def bmp_cn_bypass_demo() -> dict[str, HostnameVerdict]:
    """The Section 5.1 hostname-validation bypass, end to end.

    A malicious CA encodes a CN as BMPString whose UTF-16 code units
    spell an unrelated ASCII hostname.  A correct UCS-2 decoder sees the
    CJK text (no match); an ASCII-incompatible decoder sees
    "githube.cn" and — with CN fallback — validates the connection.
    """
    import datetime as dt

    from ..asn1.strings import BMP_STRING
    from ..x509.builder import CertificateBuilder
    from ..x509.keys import generate_keypair
    from .profiles import GO_CRYPTO, JAVA_SECURITY_CERT, OPENSSL

    key = generate_keypair(seed="bmp-bypass")
    crafted = (
        CertificateBuilder()
        .subject_cn("杩瑨畢攮据", spec=BMP_STRING)  # UTF-16BE == b"githube.cn"
        .not_before(dt.datetime(2024, 1, 1))
        .sign(key)
    )
    return {
        profile.name: verify_hostname(profile, crafted, "githube.cn")
        for profile in (GO_CRYPTO, JAVA_SECURITY_CERT, OPENSSL)
    }
