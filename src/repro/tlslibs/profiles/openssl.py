"""OpenSSL (X509_NAME_oneline / X509_NAME_print_ex) behaviour model.

Paper observations: *modified* decoding for the ASCII string types and
UTF8String (undecodable bytes become ``\\xHH`` escape sequences),
*incompatible* ASCII decoding of BMPString (the two-octet structure is
read as a byte string — the "githube.cn" example), no extension-parsing
convenience APIs (Table 13 row is all "-"), and *exploited* non-standard
DN escaping: the oneline format separates RDNs with ``/`` without
escaping ``/`` or ``=`` inside values, enabling DN component injection.
"""

from ..base import (
    EscapeStyle,
    ParserProfile,
    ascii_hex_escape,
    iso_8859_1,
    utf8_hex_escape_fallback,
)
from ...asn1.tags import UniversalTag

PROFILE = ParserProfile(
    name="OpenSSL",
    version="3.3.0",
    dn_decoders={
        UniversalTag.PRINTABLE_STRING: ascii_hex_escape,
        UniversalTag.IA5_STRING: ascii_hex_escape,
        UniversalTag.VISIBLE_STRING: ascii_hex_escape,
        UniversalTag.NUMERIC_STRING: ascii_hex_escape,
        UniversalTag.UTF8_STRING: utf8_hex_escape_fallback,
        # The two-octet structure of BMPString is ignored: bytes are
        # printed as ASCII with escapes — an incompatible decode.
        UniversalTag.BMP_STRING: ascii_hex_escape,
        UniversalTag.TELETEX_STRING: iso_8859_1,
    },
    gn_decoder=ascii_hex_escape,
    dn_escape=EscapeStyle.OPENSSL_ONELINE,
    gn_escape=EscapeStyle.NONE,
    duplicate_cn="first",
    supports_san=False,
    supports_ian=False,
    supports_aia=False,
    supports_sia=False,
    supports_crldp=False,
)
