"""Reference oracles for the DER decoder's fast paths.

``repro.asn1.der`` decodes with one table-driven loop and reads times
field by field.  This module keeps the straightforward code those
replaced — a recursive parser making one call per element, with
``decode_tag`` and ``decode_length`` for every header, and a
``strptime``-only time decoder — so the differential tests can hold the
production code to the same results and the same errors.  It is
test-only and never imported by ``src/``.
"""

from __future__ import annotations

import datetime as _dt

from repro.asn1.der import Element, decode_length
from repro.asn1.errors import DERDecodeError
from repro.asn1.tags import UniversalTag, decode_tag


def _parse_element(data: bytes, offset: int, strict: bool) -> tuple[Element, int]:
    start = offset
    tag, offset = decode_tag(data, offset)
    length, offset = decode_length(data, offset, strict)
    end = offset + length
    if end > len(data):
        raise DERDecodeError(f"content overruns input ({length} octets promised)", offset)
    if tag.constructed:
        children = []
        while offset < end:
            child, offset = _parse_element(data, offset, strict)
            children.append(child)
        if offset != end:
            raise DERDecodeError("constructed content length mismatch", offset)
        element = Element(tag=tag, children=children, offset=start)
    else:
        element = Element(tag=tag, content=data[offset:end], offset=start)
        offset = end
    return element, offset


def reference_parse(data: bytes, strict: bool = True) -> Element:
    """Parse a single top-level element; reject trailing octets."""
    if not data:
        raise DERDecodeError("empty input")
    element, offset = _parse_element(bytes(data), 0, strict)
    if offset != len(data):
        raise DERDecodeError(f"{len(data) - offset} trailing octet(s) after element", offset)
    return element


def reference_parse_all(data: bytes, strict: bool = True) -> list[Element]:
    """Parse a concatenation of top-level elements."""
    elements = []
    offset = 0
    data = bytes(data)
    while offset < len(data):
        element, offset = _parse_element(data, offset, strict)
        elements.append(element)
    return elements


def reference_decode_time(element: Element) -> _dt.datetime:
    """Decode a UTCTime or GeneralizedTime through ``strptime`` alone."""
    text = element.content.decode("ascii", errors="replace")
    try:
        if element.tag.number == UniversalTag.UTC_TIME:
            parsed = _dt.datetime.strptime(text, "%y%m%d%H%M%SZ")
            # RFC 5280: two-digit years 00-49 mean 20xx, 50-99 mean 19xx.
            if parsed.year >= 2050:
                parsed = parsed.replace(year=parsed.year - 100)
            return parsed
        if element.tag.number == UniversalTag.GENERALIZED_TIME:
            return _dt.datetime.strptime(text, "%Y%m%d%H%M%SZ")
    except ValueError as exc:
        raise DERDecodeError(f"malformed time {text!r}: {exc}", element.offset) from exc
    raise DERDecodeError(f"{element.tag} is not a time type", element.offset)
