"""Differential testing harness: derive Tables 4 and 5 from the profiles.

The harness never reads a profile's configuration — it only feeds DER
bytes through the profile's public parsing API and classifies what comes
back, so the produced matrices genuinely *re-derive* the paper's results
from behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asn1.tags import UniversalTag
from ..x509.name import escape_rfc1779, escape_rfc2253, escape_rfc4514
from .base import (
    CharHandling,
    DecodePractice,
    ParserProfile,
)
from .inference import InferenceResult, infer_decoding

# ---------------------------------------------------------------------------
# Table 4: decoding-method matrix
# ---------------------------------------------------------------------------

#: The encoding scenarios of Table 4: (label, declared tag, context).
TABLE4_SCENARIOS = [
    ("PrintableString in Name", UniversalTag.PRINTABLE_STRING, "dn"),
    ("IA5String in Name", UniversalTag.IA5_STRING, "dn"),
    ("BMPString in Name", UniversalTag.BMP_STRING, "dn"),
    ("UTF8String in Name", UniversalTag.UTF8_STRING, "dn"),
    ("IA5String in GN", UniversalTag.IA5_STRING, "gn"),
]


@dataclass
class DecodingMatrix:
    """Table 4: per-(scenario, library) inferred decoding behaviour."""

    cells: dict[tuple[str, str], InferenceResult] = field(default_factory=dict)

    def cell(self, scenario: str, library: str) -> InferenceResult:
        return self.cells[(scenario, library)]

    def rows(self, libraries: list[str]) -> list[tuple[str, list[str]]]:
        out = []
        for label, _tag, _context in TABLE4_SCENARIOS:
            out.append(
                (label, [f"{self.cells[(label, lib)].practice.symbol}" for lib in libraries])
            )
        return out


def derive_decoding_matrix(profiles: list[ParserProfile]) -> DecodingMatrix:
    """Run the inference harness across all scenarios and libraries."""
    matrix = DecodingMatrix()
    for label, tag, context in TABLE4_SCENARIOS:
        for profile in profiles:
            if context == "gn" and not profile.supports_san:
                matrix.cells[(label, profile.name)] = InferenceResult(
                    None, None, DecodePractice.UNSUPPORTED
                )
                continue
            matrix.cells[(label, profile.name)] = infer_decoding(profile, tag, context)
    return matrix


# ---------------------------------------------------------------------------
# Table 5: character-checking / escaping violations
# ---------------------------------------------------------------------------


class Violation:
    """Table 5 cell values."""

    NONE = "O"  # ○ no standard violation
    UNEXPLOITED = "V"  # ⊙ violation, unexploited
    EXPLOITED = "X"  # ⊗ exploited violation
    NOT_TESTED = "-"


@dataclass
class CharCheckReport:
    """Table 5: per-(violation row, library) classification."""

    cells: dict[tuple[str, str], str] = field(default_factory=dict)

    def cell(self, row: str, library: str) -> str:
        return self.cells[(row, library)]


#: Per-type charset-violating content octets for the DN rows.
_ILLEGAL_DN_SAMPLES = {
    "PrintableString Violations": (UniversalTag.PRINTABLE_STRING, b"bad@value*"),
    "IA5String Violations": (UniversalTag.IA5_STRING, b"high\xffbyte"),
    "BMPString Violations": (
        UniversalTag.BMP_STRING,
        "\U0001f600".encode("utf-16-be"),  # surrogate pair beyond UCS-2
    ),
}

#: Public aliases for the Table 5 probe inputs — the fuzzing oracle
#: seeds its baseline coverage map from exactly these octets so that
#: "novel" means "absent from the paper's hand-built matrices".
TABLE5_DN_PROBES = _ILLEGAL_DN_SAMPLES
TABLE5_GN_PROBE = b"evil\x01name.com"


def _incompatible_decode(profile: ParserProfile, tag: int) -> bool:
    """Appendix E exclusion (iv): incompatible decoding misidentifies the
    characters, making character-handling checks irrelevant."""
    from .base import DecodingMethod, STANDARD_METHODS
    from .inference import classify

    result = infer_decoding(profile, tag, "dn")
    if result.method is None:
        return False
    bare = classify(tag, result.method, CharHandling.NONE)
    return bare is DecodePractice.INCOMPATIBLE


def _check_illegal_dn(profile: ParserProfile, row: str) -> str:
    tag, raw = _ILLEGAL_DN_SAMPLES[row]
    if tag in profile.unsupported_dn_tags:
        return Violation.NOT_TESTED
    if _incompatible_decode(profile, tag):
        return Violation.NOT_TESTED
    outcome = profile.decode_dn_attribute(tag, raw)
    if not outcome.ok:
        return Violation.NONE  # Properly rejected.
    # Accepted illegal characters: a violation.  Escaped/replaced output
    # still accepts the value, so it stays a (mitigated) violation.
    return Violation.UNEXPLOITED


def _check_illegal_gn(profile: ParserProfile) -> str:
    if not profile.supports_san:
        return Violation.NOT_TESTED
    # Control character inside a DNSName: valid UTF-8, illegal per the
    # DNS charset, so charset-checking parsers reject it.
    outcome = profile.decode_gn(TABLE5_GN_PROBE)
    if not outcome.ok:
        return Violation.NONE
    return Violation.UNEXPLOITED


# Escaping probes: values whose correct representations are known.
_ESCAPE_PROBES = [
    "Acme, Inc.",
    "a+b=c",
    "evil\x00entity",
    " padded ",
    'quote"quote',
]

_REFERENCE_ESCAPERS = {
    "RFC2253 Violations": escape_rfc2253,
    "RFC4514 Violations": escape_rfc4514,
    "RFC1779 Violations": escape_rfc1779,
}


def _dn_escaping_violation(profile: ParserProfile, row: str) -> str:
    """Compare the library's DN string against the reference escaping."""
    from ..asn1.oid import OID_COMMON_NAME, OID_ORGANIZATION_NAME
    from ..x509.name import AttributeTypeAndValue, Name, RelativeDistinguishedName
    from ..x509.certificate import Certificate
    import datetime as dt

    reference = _REFERENCE_ESCAPERS[row]
    violated = False
    for probe in _ESCAPE_PROBES:
        name = Name(
            rdns=[
                RelativeDistinguishedName(
                    [AttributeTypeAndValue(OID_ORGANIZATION_NAME, probe)]
                )
            ]
        )
        cert = Certificate(
            serial=1,
            issuer=name,
            subject=name,
            not_before=dt.datetime(2024, 1, 1),
            not_after=dt.datetime(2024, 4, 1),
        )
        produced = profile.subject_string(cert)
        expected_value = reference(probe)
        if expected_value not in produced:
            violated = True
            break
    if not violated:
        return Violation.NONE
    # Violations are *exploited* when injection produces an ambiguous
    # representation: a value containing a separator+attribute pattern
    # renders identically to a genuine multi-attribute DN.
    injected = _dn_injection_ambiguous(profile)
    return Violation.EXPLOITED if injected else Violation.UNEXPLOITED


def _dn_injection_ambiguous(profile: ParserProfile) -> bool:
    """Does 'O=a/CN=evil' (or ',CN=evil') collide with a real 2-RDN DN?"""
    import datetime as dt

    from ..asn1.oid import OID_COMMON_NAME, OID_ORGANIZATION_NAME
    from ..x509.name import AttributeTypeAndValue, Name, RelativeDistinguishedName
    from ..x509.certificate import Certificate

    def cert_for(name: Name) -> Certificate:
        return Certificate(
            serial=1,
            issuer=name,
            subject=name,
            not_before=dt.datetime(2024, 1, 1),
            not_after=dt.datetime(2024, 4, 1),
        )

    for separator in ("/", ","):
        evil_value = f"acme{separator}CN=evil.com"
        crafted = Name(
            rdns=[
                RelativeDistinguishedName(
                    [AttributeTypeAndValue(OID_ORGANIZATION_NAME, evil_value)]
                )
            ]
        )
        genuine = Name(
            rdns=[
                RelativeDistinguishedName(
                    [AttributeTypeAndValue(OID_ORGANIZATION_NAME, "acme")]
                ),
                RelativeDistinguishedName(
                    [AttributeTypeAndValue(OID_COMMON_NAME, "evil.com")]
                ),
            ]
        )
        if profile.subject_string(cert_for(crafted)) == profile.subject_string(
            cert_for(genuine)
        ):
            return True
    return False


def _gn_escaping_violation(profile: ParserProfile) -> str:
    """Subfield forgery: 'a.com, DNS:b.com' inside one DNSName."""
    import datetime as dt

    from ..x509.builder import CertificateBuilder
    from ..x509.extensions import subject_alt_name
    from ..x509.general_name import GeneralName
    from ..x509.keys import generate_keypair

    key = generate_keypair(seed=1234)
    crafted = (
        CertificateBuilder()
        .subject_cn("a.com")
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(subject_alt_name(GeneralName.dns("a.com, DNS:b.com")))
        .sign(key)
    )
    genuine = (
        CertificateBuilder()
        .subject_cn("a.com")
        .not_before(dt.datetime(2024, 1, 1))
        .add_extension(
            subject_alt_name(GeneralName.dns("a.com"), GeneralName.dns("b.com"))
        )
        .sign(key)
    )
    crafted_text = profile.san_string(crafted)
    genuine_text = profile.san_string(genuine)
    if crafted_text is None:
        return Violation.NOT_TESTED
    if crafted_text == genuine_text:
        # A forged subfield is textually indistinguishable from a real
        # one; whether that is *exploitable* depends on whether relying
        # code consumes the text (PyOpenSSL) or re-checks structured
        # names (Node.js checkHost).
        return (
            Violation.EXPLOITED
            if profile.gn_forgery_exploitable
            else Violation.UNEXPLOITED
        )
    if ", DNS:" in (crafted_text or ""):
        return Violation.UNEXPLOITED  # Separator leaks through unescaped.
    return Violation.NONE


#: Libraries excluded from specific Table 5 rows (Appendix E reasons).
_STRUCTURED_DN_LIBRARIES = frozenset({"Golang Crypto", "Forge", "PyOpenSSL", "Cryptography", "GnuTLS"})
_EXPLICIT_RFC4514_LIBRARIES = frozenset({"Cryptography", "GnuTLS"})


def derive_charcheck_report(profiles: list[ParserProfile]) -> CharCheckReport:
    """Derive the Table 5 matrix for all libraries."""
    report = CharCheckReport()
    for profile in profiles:
        for row in _ILLEGAL_DN_SAMPLES:
            report.cells[(row, profile.name)] = _check_illegal_dn(profile, row)
        report.cells[("Illegal chars in GN", profile.name)] = _check_illegal_gn(profile)
        for row in _REFERENCE_ESCAPERS:
            if profile.name in _STRUCTURED_DN_LIBRARIES and profile.name not in _EXPLICIT_RFC4514_LIBRARIES:
                # Structured DN output: escaping not applicable.
                report.cells[(f"DN {row}", profile.name)] = Violation.NOT_TESTED
                continue
            if profile.name in _EXPLICIT_RFC4514_LIBRARIES and row != "RFC4514 Violations":
                # Explicitly documented RFC 4514 output: other RFCs not assessed.
                report.cells[(f"DN {row}", profile.name)] = Violation.NOT_TESTED
                continue
            report.cells[(f"DN {row}", profile.name)] = _dn_escaping_violation(
                profile, row
            )
        if profile.gn_text_representation:
            gn_escaping = _gn_escaping_violation(profile)
        else:
            # Structured GN output or no SAN support: rows not tested.
            gn_escaping = Violation.NOT_TESTED
        for row in _REFERENCE_ESCAPERS:
            report.cells[(f"GN {row}", profile.name)] = gn_escaping
    return report
