"""GnuTLS (gnutls_x509_crt_get_*_dn) behaviour model.

Paper observations: GnuTLS decodes *every* ASN.1 string type except
BMPString with UTF-8 in both DN and GN contexts (over-tolerant), and
BMPString with UTF-16 (also over-tolerant, as surrogate pairs pass).
It does not expose IA5String DN attributes (Table 4 "-") and its DN
escaping follows RFC 4514.
"""

from ..base import EscapeStyle, ParserProfile, utf16_be, utf8_strict
from ...asn1.tags import UniversalTag

PROFILE = ParserProfile(
    name="GnuTLS",
    version="3.7.11",
    dn_decoders={
        UniversalTag.PRINTABLE_STRING: utf8_strict,
        UniversalTag.VISIBLE_STRING: utf8_strict,
        UniversalTag.NUMERIC_STRING: utf8_strict,
        UniversalTag.UTF8_STRING: utf8_strict,
        UniversalTag.TELETEX_STRING: utf8_strict,
        UniversalTag.BMP_STRING: utf16_be,
    },
    unsupported_dn_tags=frozenset({int(UniversalTag.IA5_STRING)}),
    gn_decoder=utf8_strict,
    dn_escape=EscapeStyle.RFC4514,
    gn_escape=EscapeStyle.NONE,
    duplicate_cn="first",
    supports_san=True,
    supports_ian=True,
    supports_aia=False,
    supports_sia=False,
    supports_crldp=True,
)
