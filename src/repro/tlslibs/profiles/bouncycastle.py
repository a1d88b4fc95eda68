"""BouncyCastle (X509CertificateHolder getSubject().toString()) model.

Paper observations: Latin-1-tolerant single-octet decoding (illegal
IA5String/PrintableString characters pass — Table 5 "⊙"), BMPString
decoded as UTF-16 (over-tolerant), Java-style escaping deviations from
RFC 4514/1779, and no convenience extension parsing (Table 13 row "-").
"""

from ..base import EscapeStyle, ParserProfile, ascii_strict, iso_8859_1, utf16_be, utf8_strict
from ...asn1.tags import UniversalTag

PROFILE = ParserProfile(
    name="BouncyCastle",
    version="1.78.1",
    dn_decoders={
        UniversalTag.PRINTABLE_STRING: iso_8859_1,
        UniversalTag.IA5_STRING: iso_8859_1,
        UniversalTag.VISIBLE_STRING: iso_8859_1,
        UniversalTag.NUMERIC_STRING: iso_8859_1,
        UniversalTag.UTF8_STRING: utf8_strict,
        UniversalTag.BMP_STRING: utf16_be,
        UniversalTag.TELETEX_STRING: iso_8859_1,
    },
    gn_decoder=ascii_strict,
    dn_escape=EscapeStyle.JAVA,
    gn_escape=EscapeStyle.NONE,
    duplicate_cn="first",
    supports_san=False,
    supports_ian=False,
    supports_aia=False,
    supports_sia=False,
    supports_crldp=False,
)
