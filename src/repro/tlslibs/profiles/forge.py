"""node-forge (X509Certificate subject.getField()) behaviour model.

Paper observations: the headline *incompatible* decode — UTF8String
content is read as ISO-8859-1 (multi-byte sequences shatter into
Latin-1 characters) — plus over-tolerant Latin-1 decoding of the ASCII
string types; BMPString is unsupported in DNs; fields come back as
structured objects, so escaping checks are excluded (Appendix E).
"""

from ..base import EscapeStyle, ParserProfile, iso_8859_1, utf8_reject_controls
from ...asn1.tags import UniversalTag

PROFILE = ParserProfile(
    name="Forge",
    version="1.3.1",
    dn_decoders={
        UniversalTag.PRINTABLE_STRING: iso_8859_1,
        UniversalTag.IA5_STRING: iso_8859_1,
        UniversalTag.VISIBLE_STRING: iso_8859_1,
        UniversalTag.NUMERIC_STRING: iso_8859_1,
        # The incompatible decode: UTF-8 bytes read as Latin-1.
        UniversalTag.UTF8_STRING: iso_8859_1,
        UniversalTag.TELETEX_STRING: iso_8859_1,
    },
    unsupported_dn_tags=frozenset({30}),  # BMPString
    gn_decoder=utf8_reject_controls,
    dn_escape=EscapeStyle.RFC4514,
    gn_escape=EscapeStyle.NONE,
    duplicate_cn="first",
    supports_san=True,
    supports_ian=True,
    supports_aia=False,
    supports_sia=False,
    supports_crldp=False,
)
