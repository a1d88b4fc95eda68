"""The paper's Section 7 parsing recommendation, implemented.

Recommendation (2) for Unicert usage: parse certificate fields into
proper data structures, and when a single-string X.509-text form is
unavoidable, escape every character that the format itself introduces
("=", ":", ",", etc.) so crafted values cannot forge subfields.

:func:`safe_san_string` is the escaping-correct counterpart of the
vulnerable ``profile.san_string`` representations: round-trippable, and
immune to the "DNS:a.com, DNS:b.com" forgery by construction.
"""

from __future__ import annotations

from ..x509.certificate import Certificate
from ..x509.general_name import GeneralNameKind

#: Characters the SAN text format itself uses.
_FORMAT_CHARS = {",": "\\,", ":": "\\:", "\\": "\\\\"}


def escape_san_value(value: str) -> str:
    """Escape separators and non-printables inside one SAN value."""
    out: list[str] = []
    for ch in value:
        if ch in _FORMAT_CHARS:
            out.append(_FORMAT_CHARS[ch])
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append(f"\\x{ord(ch):02x}")
        else:
            out.append(ch)
    return "".join(out)


def unescape_san_value(text: str) -> str:
    """Invert :func:`escape_san_value`."""
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt in ",:\\":
                out.append(nxt)
                i += 2
                continue
            if nxt == "x" and i + 3 < len(text) + 1:
                try:
                    out.append(chr(int(text[i + 2 : i + 4], 16)))
                    i += 4
                    continue
                except ValueError:
                    pass
        out.append(ch)
        i += 1
    return "".join(out)


def safe_san_string(cert: Certificate) -> str | None:
    """An escaping-correct, round-trippable SAN text representation."""
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
            raw = gn.raw or b""
            value = raw.decode("latin-1")
            parts.append(f"{gn.type_prefix()}:{escape_san_value(value)}")
        else:
            parts.append(str(gn))
    return ", ".join(parts)


def parse_safe_san_string(text: str) -> list[tuple[str, str]]:
    """Parse :func:`safe_san_string` output back into (type, value) pairs.

    Splitting honours the escaping, so an embedded ``", DNS:"`` inside a
    value never produces a phantom entry.
    """
    entries: list[tuple[str, str]] = []
    current: list[str] = []
    i = 0
    while i < len(text):
        if text.startswith(", ", i) and not _is_escaped(text, i):
            entries.append("".join(current))
            current = []
            i += 2
            continue
        current.append(text[i])
        i += 1
    if current:
        entries.append("".join(current))
    pairs = []
    for entry in entries:
        prefix, _, value = entry.partition(":")
        pairs.append((prefix, unescape_san_value(value)))
    return pairs


def _is_escaped(text: str, index: int) -> bool:
    backslashes = 0
    j = index - 1
    while j >= 0 and text[j] == "\\":
        backslashes += 1
        j -= 1
    return backslashes % 2 == 1
