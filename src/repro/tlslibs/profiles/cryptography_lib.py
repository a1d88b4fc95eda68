"""pyca/cryptography (subject.rfc4514_string()) behaviour model.

Paper observations: correct PrintableString rejection but lax IA5String
handling in DN and GN (illegal characters accepted — the maintainers
confirmed the compatibility motivation), BMPString decoded as UTF-16
(surrogate pairs accepted beyond UCS-2), and an explicitly documented
RFC 4514 DN string representation (escaping compliant).
"""

from ..base import (
    EscapeStyle,
    ParserProfile,
    ascii_strict,
    iso_8859_1,
    utf16_be,
    utf8_strict,
)
from ...asn1.tags import UniversalTag

PROFILE = ParserProfile(
    name="Cryptography",
    version="42.0.7",
    dn_decoders={
        UniversalTag.PRINTABLE_STRING: ascii_strict,
        UniversalTag.IA5_STRING: iso_8859_1,
        UniversalTag.VISIBLE_STRING: ascii_strict,
        UniversalTag.NUMERIC_STRING: ascii_strict,
        UniversalTag.UTF8_STRING: utf8_strict,
        UniversalTag.BMP_STRING: utf16_be,
        UniversalTag.TELETEX_STRING: iso_8859_1,
    },
    gn_decoder=iso_8859_1,
    dn_escape=EscapeStyle.RFC4514,
    gn_escape=EscapeStyle.RFC4514,
    duplicate_cn="first",
    supports_san=True,
    supports_ian=True,
    supports_aia=True,
    supports_sia=True,
    supports_crldp=True,
)
