"""Parser-profile substrate: decoders, escaping styles, and the profile base.

Each of the nine TLS libraries the paper tests (Section 5, Tables 4/5,
12/13) is modelled as a :class:`ParserProfile`: a declarative bundle of
per-string-type decoders, DN/GN-to-text escaping behaviour, duplicate-CN
selection, and field support.  The profiles are *executable*: the
differential harness feeds them real DER bytes and infers their
decoding/char-handling behaviour exactly as the paper's methodology
prescribes — the profiles themselves never reveal their configuration
to the inference engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from ..asn1.tags import UniversalTag
from ..x509.certificate import Certificate
from ..x509.general_name import GeneralName, GeneralNameKind


class DecodingMethod(enum.Enum):
    """The five common decoding methods of Section 3.2."""

    ASCII = "ASCII"
    ISO_8859_1 = "ISO-8859-1"
    UTF_8 = "UTF-8"
    UCS_2 = "UCS-2"
    UTF_16 = "UTF-16"


class CharHandling(enum.Enum):
    """The three special-character handling modes of Section 3.2."""

    NONE = "none"
    TRUNCATION = "truncation"
    REPLACEMENT = "replacement"
    ESCAPING = "escaping"


class DecodePractice(enum.Enum):
    """Table 4's cell classification."""

    COMPLIANT = "no decoding errors"  # ○
    OVER_TOLERANT = "over-tolerant decoding"  # ∅
    INCOMPATIBLE = "incompatible decoding"  # ⊗
    MODIFIED = "modified decoding"  # ⊙
    UNSUPPORTED = "not supported"  # -

    @property
    def symbol(self) -> str:
        return {
            DecodePractice.COMPLIANT: "O",
            DecodePractice.OVER_TOLERANT: "T",
            DecodePractice.INCOMPATIBLE: "X",
            DecodePractice.MODIFIED: "M",
            DecodePractice.UNSUPPORTED: "-",
        }[self]


@dataclass
class ParseOutcome:
    """The result of one attribute parse."""

    text: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.text is not None


Decoder = Callable[[bytes], ParseOutcome]

# ---------------------------------------------------------------------------
# Decoder primitives (composed by the library profiles)
# ---------------------------------------------------------------------------


def ascii_strict(raw: bytes) -> ParseOutcome:
    """Reject any byte above 0x7F — the standard behaviour for ASCII types."""
    try:
        return ParseOutcome(text=raw.decode("ascii"))
    except UnicodeDecodeError as exc:
        return ParseOutcome(error=f"non-ASCII byte: {exc}")


def ascii_hex_escape(raw: bytes) -> ParseOutcome:
    """ASCII with OpenSSL-style \\xHH escapes for undecodable bytes."""
    out = []
    for byte in raw:
        if byte < 0x80:
            out.append(chr(byte))
        else:
            out.append(f"\\x{byte:02x}")
    return ParseOutcome(text="".join(out))


def iso_8859_1(raw: bytes) -> ParseOutcome:
    """Latin-1 passthrough: every byte maps to U+0000..U+00FF."""
    return ParseOutcome(text=raw.decode("latin-1"))


def utf8_strict(raw: bytes) -> ParseOutcome:
    """Standard UTF-8 decoding: reject invalid byte sequences."""
    try:
        return ParseOutcome(text=raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        return ParseOutcome(error=f"invalid UTF-8: {exc}")


def utf8_replace(raw: bytes) -> ParseOutcome:
    """UTF-8 with U+FFFD substitution for invalid sequences."""
    return ParseOutcome(text=raw.decode("utf-8", errors="replace"))


def ucs2(raw: bytes) -> ParseOutcome:
    """Standard BMPString decoding: two octets per character, no surrogates."""
    if len(raw) % 2:
        return ParseOutcome(error="odd octet count for UCS-2")
    chars = []
    for i in range(0, len(raw), 2):
        cp = (raw[i] << 8) | raw[i + 1]
        if 0xD800 <= cp <= 0xDFFF:
            return ParseOutcome(error=f"surrogate U+{cp:04X} in UCS-2")
        chars.append(chr(cp))
    return ParseOutcome(text="".join(chars))


def utf16_be(raw: bytes) -> ParseOutcome:
    """UTF-16 (surrogate pairs allowed) — the over-tolerant BMP decode."""
    try:
        return ParseOutcome(text=raw.decode("utf-16-be"))
    except UnicodeDecodeError as exc:
        return ParseOutcome(error=f"invalid UTF-16: {exc}")


def bytes_as_ascii_replace(raw: bytes) -> ParseOutcome:
    """Treat multi-octet content as a byte string; non-ASCII -> U+FFFD.

    This is Java's BMPString behaviour: ASCII-compatible output whose
    actual decoding ignores the two-octet structure.
    """
    return ParseOutcome(
        text="".join(chr(b) if b < 0x80 else "�" for b in raw)
    )


def ascii_replace(raw: bytes) -> ParseOutcome:
    """ASCII with U+FFFD substitution for non-ASCII bytes (Java DN/GN)."""
    return ParseOutcome(text="".join(chr(b) if b < 0x80 else "�" for b in raw))


def ascii_truncate(raw: bytes) -> ParseOutcome:
    """ASCII with non-ASCII bytes silently dropped."""
    return ParseOutcome(text="".join(chr(b) for b in raw if b < 0x80))


def utf8_hex_escape_fallback(raw: bytes) -> ParseOutcome:
    """UTF-8 where undecodable bytes become \\xHH escapes (OpenSSL)."""
    try:
        return ParseOutcome(text=raw.decode("utf-8"))
    except UnicodeDecodeError:
        out = []
        i = 0
        while i < len(raw):
            for width in (4, 3, 2, 1):
                chunk = raw[i : i + width]
                try:
                    decoded = chunk.decode("utf-8")
                except UnicodeDecodeError:
                    continue
                out.append(decoded)
                i += width
                break
            else:
                out.append(f"\\x{raw[i]:02x}")
                i += 1
        return ParseOutcome(text="".join(out))


def printable_strict(raw: bytes) -> ParseOutcome:
    """Go-style strictness: reject characters outside the PrintableString set."""
    from ..asn1.strings import PRINTABLE_STRING

    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        return ParseOutcome(
            error="asn1: syntax error: PrintableString contains invalid character"
        )
    if PRINTABLE_STRING.violations(text):
        return ParseOutcome(
            error="asn1: syntax error: PrintableString contains invalid character"
        )
    return ParseOutcome(text=text)


def ia5_reject_controls(raw: bytes) -> ParseOutcome:
    """IA5 decoding that rejects C0 controls and DEL (Node.js GN checks)."""
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        return ParseOutcome(error=f"non-ASCII byte: {exc}")
    if any(ord(ch) < 0x20 or ord(ch) == 0x7F for ch in text):
        return ParseOutcome(error="control character in name")
    return ParseOutcome(text=text)


def utf8_reject_controls(raw: bytes) -> ParseOutcome:
    """UTF-8 decoding that rejects control characters (Forge GN checks)."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ParseOutcome(error=f"invalid UTF-8: {exc}")
    if any(ord(ch) < 0x20 or ord(ch) == 0x7F for ch in text):
        return ParseOutcome(error="control character in name")
    return ParseOutcome(text=text)


def control_chars_to_dot(raw: bytes) -> ParseOutcome:
    """PyOpenSSL's CRLDP GeneralName behaviour: controls become '.'.

    Replaced ranges (paper Section 5.2): U+0000-0009, U+000B, U+000C,
    U+000E-001F and U+007F.
    """
    replaced = frozenset({*range(0x00, 0x0A), 0x0B, 0x0C, *range(0x0E, 0x20), 0x7F})
    return ParseOutcome(
        text="".join("." if b in replaced else chr(b) if b < 0x80 else chr(b) for b in raw)
    )


#: The standard decoding method per ASN.1 string type (RFC 5280 / X.690).
STANDARD_METHODS: dict[int, DecodingMethod] = {
    UniversalTag.PRINTABLE_STRING: DecodingMethod.ASCII,
    UniversalTag.IA5_STRING: DecodingMethod.ASCII,
    UniversalTag.VISIBLE_STRING: DecodingMethod.ASCII,
    UniversalTag.NUMERIC_STRING: DecodingMethod.ASCII,
    UniversalTag.UTF8_STRING: DecodingMethod.UTF_8,
    UniversalTag.BMP_STRING: DecodingMethod.UCS_2,
    UniversalTag.TELETEX_STRING: DecodingMethod.ISO_8859_1,
}

#: Reference implementations of the five common decoding methods.
REFERENCE_DECODERS: dict[DecodingMethod, Decoder] = {
    DecodingMethod.ASCII: ascii_strict,
    DecodingMethod.ISO_8859_1: iso_8859_1,
    DecodingMethod.UTF_8: utf8_strict,
    DecodingMethod.UCS_2: ucs2,
    DecodingMethod.UTF_16: utf16_be,
}


class EscapeStyle(enum.Enum):
    """How a library escapes special characters when stringifying DNs."""

    RFC4514 = "rfc4514"  # Correct escaping.
    RFC2253 = "rfc2253"
    RFC1779 = "rfc1779"
    NONE = "none"  # No escaping at all (injection-prone).
    OPENSSL_ONELINE = "openssl"  # /X=Y concatenation, no escaping.
    JAVA = "java"  # Quotes some specials, misses others.


@dataclass
class ParserProfile:
    """Executable behaviour model of one TLS library."""

    name: str
    version: str
    #: Per-universal-tag DN attribute decoders.
    dn_decoders: dict[int, Decoder]
    #: Decoder for GeneralName content octets (IA5String alternatives).
    gn_decoder: Decoder
    #: Decoder override for GeneralNames inside CRLDistributionPoints.
    crldp_decoder: Decoder | None = None
    dn_escape: EscapeStyle = EscapeStyle.RFC4514
    gn_escape: EscapeStyle = EscapeStyle.NONE
    #: Which CN wins when the Subject repeats the attribute.
    duplicate_cn: str = "first"  # or "last"
    supports_san: bool = True
    supports_ian: bool = False
    supports_aia: bool = False
    supports_sia: bool = False
    supports_crldp: bool = False
    #: Whether unsupported string tags cause a hard parse failure.
    fail_on_unknown_tag: bool = False
    #: Tags this library refuses to parse in a DN ('-' cells in Table 4).
    unsupported_dn_tags: frozenset = frozenset()
    #: Whether the SAN string representation is the authoritative output
    #: (True -> GN escaping rows of Table 5 apply to this library).
    gn_text_representation: bool = False
    #: Whether subfield forgery through the text representation is
    #: actually exploitable (vs. mitigated by structured re-checks).
    gn_forgery_exploitable: bool = False

    # ------------------------------------------------------------------
    # Attribute-level API (used by the inference harness)
    # ------------------------------------------------------------------

    def decode_dn_attribute(self, tag_number: int, raw: bytes) -> ParseOutcome:
        """Decode one DN attribute value as this library would."""
        if tag_number in self.unsupported_dn_tags:
            return ParseOutcome(error=f"tag {tag_number} unsupported")
        decoder = self.dn_decoders.get(tag_number)
        if decoder is None:
            if self.fail_on_unknown_tag:
                return ParseOutcome(error=f"unknown string tag {tag_number}")
            return iso_8859_1(raw)
        return decoder(raw)

    def decode_gn(self, raw: bytes, context: str = "san") -> ParseOutcome:
        """Decode GeneralName content octets (IA5String alternatives)."""
        if context == "crldp" and self.crldp_decoder is not None:
            return self.crldp_decoder(raw)
        return self.gn_decoder(raw)

    # ------------------------------------------------------------------
    # Certificate-level API (used by the threat experiments)
    # ------------------------------------------------------------------

    def common_name(self, cert: Certificate) -> str | None:
        """The CN this library reports, honoring duplicate selection."""
        values = []
        for attr in cert.subject.attributes():
            if attr.oid.dotted == "2.5.4.3":
                outcome = self.decode_dn_attribute(attr.spec.tag_number, attr.raw or
                                                   attr.spec.encode(attr.value, strict=False))
                values.append(outcome.text if outcome.ok else None)
        if not values:
            return None
        return values[0] if self.duplicate_cn == "first" else values[-1]

    def subject_string(self, cert: Certificate) -> str:
        """The library's one-string Subject representation."""
        pairs = []
        for attr in cert.subject.attributes():
            raw = attr.raw if attr.raw is not None else attr.spec.encode(
                attr.value, strict=False
            )
            outcome = self.decode_dn_attribute(attr.spec.tag_number, raw)
            value = outcome.text if outcome.ok else ""
            pairs.append((attr.short_name, value))
        return self._join_dn(pairs)

    def _join_dn(self, pairs: list[tuple[str, str]]) -> str:
        from ..x509.name import escape_rfc1779, escape_rfc2253, escape_rfc4514

        if self.dn_escape is EscapeStyle.OPENSSL_ONELINE:
            return "".join(f"/{key}={value}" for key, value in pairs)
        if self.dn_escape is EscapeStyle.NONE:
            return ",".join(f"{key}={value}" for key, value in pairs)
        if self.dn_escape is EscapeStyle.JAVA:
            # Java escapes the RFC 2253 specials but not control chars.
            def java_escape(value: str) -> str:
                out = []
                for ch in value:
                    if ch in ',+"\\<>;':
                        out.append("\\" + ch)
                    else:
                        out.append(ch)
                return "".join(out)

            return ", ".join(f"{key}={java_escape(value)}" for key, value in reversed(pairs))
        if self.dn_escape is EscapeStyle.RFC2253:
            return ",".join(
                f"{key}={escape_rfc2253(value)}" for key, value in reversed(pairs)
            )
        if self.dn_escape is EscapeStyle.RFC1779:
            return ", ".join(
                f"{key}={escape_rfc1779(value)}" for key, value in reversed(pairs)
            )
        return ",".join(f"{key}={escape_rfc4514(value)}" for key, value in reversed(pairs))

    def san_string(self, cert: Certificate) -> str | None:
        """The library's X.509-text SAN representation."""
        if not self.supports_san:
            return None
        san = cert.san
        if san is None:
            return None
        parts = []
        for gn in san.names:
            if gn.kind in (
                GeneralNameKind.DNS_NAME,
                GeneralNameKind.RFC822_NAME,
                GeneralNameKind.URI,
            ):
                outcome = self.decode_gn(gn.raw or b"")
                value = outcome.text if outcome.ok else ""
                if self.gn_escape in (EscapeStyle.RFC4514, EscapeStyle.RFC2253):
                    from ..x509.name import escape_rfc4514

                    value = escape_rfc4514(value)
                parts.append(f"{gn.type_prefix()}:{value}")
            else:
                parts.append(str(gn))
        return ", ".join(parts)

    def crl_urls(self, cert: Certificate) -> list[str]:
        """CRL distribution point URLs as this library reports them."""
        if not self.supports_crldp:
            return []
        dps = cert.crl_distribution_points
        if dps is None:
            return []
        urls = []
        for point in dps.points:
            for gn in point.full_names:
                outcome = self.decode_gn(gn.raw or b"", context="crldp")
                if outcome.ok:
                    urls.append(outcome.text)
        return urls
