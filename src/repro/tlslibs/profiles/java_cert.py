"""Java java.security.cert (X500Principal.getName()) behaviour model.

Paper observations: *incompatible* BMPString parsing whose output is
ASCII-compatible (the two-octet structure is flattened), *modified*
decoding that substitutes U+FFFD for non-ASCII bytes in DN and GN, and
escaping that covers the RFC 2253 specials but deviates from RFC 4514 /
RFC 1779 in spacing and RDN ordering (Table 5 "⊙").
"""

from ..base import (
    EscapeStyle,
    ParserProfile,
    ascii_replace,
    bytes_as_ascii_replace,
    iso_8859_1,
    utf8_replace,
)
from ...asn1.tags import UniversalTag

PROFILE = ParserProfile(
    name="Java.security.cert",
    version="21.0",
    dn_decoders={
        UniversalTag.PRINTABLE_STRING: ascii_replace,
        UniversalTag.IA5_STRING: ascii_replace,
        UniversalTag.VISIBLE_STRING: ascii_replace,
        UniversalTag.NUMERIC_STRING: ascii_replace,
        UniversalTag.UTF8_STRING: utf8_replace,
        UniversalTag.BMP_STRING: bytes_as_ascii_replace,
        UniversalTag.TELETEX_STRING: iso_8859_1,
    },
    gn_decoder=ascii_replace,
    dn_escape=EscapeStyle.JAVA,
    gn_escape=EscapeStyle.NONE,
    duplicate_cn="first",
    supports_san=True,
    supports_ian=True,
    supports_aia=False,
    supports_sia=False,
    supports_crldp=False,
)
