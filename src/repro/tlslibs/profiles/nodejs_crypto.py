"""Node.js crypto (X509Certificate subject/subjectAltName) model.

Paper observations: largely standard decoding of DN attributes, but
IA5String DN values tolerate high bytes (Table 5 "⊙"); the
subjectAltName string representation joins subfields without escaping
added separators (unexploited escaping violations across RFC 2253/4514/
1779 in GN context — the post-CVE-2021-44533 behaviour keeps DN
escaping largely compliant).
"""

from ..base import (
    EscapeStyle,
    ParserProfile,
    ascii_strict,
    ia5_reject_controls,
    iso_8859_1,
    ucs2,
    utf8_strict,
)
from ...asn1.tags import UniversalTag

PROFILE = ParserProfile(
    name="Node.js Crypto",
    version="22.4.1",
    dn_decoders={
        UniversalTag.PRINTABLE_STRING: ascii_strict,
        UniversalTag.IA5_STRING: iso_8859_1,
        UniversalTag.VISIBLE_STRING: ascii_strict,
        UniversalTag.NUMERIC_STRING: ascii_strict,
        UniversalTag.UTF8_STRING: utf8_strict,
        UniversalTag.BMP_STRING: ucs2,
        UniversalTag.TELETEX_STRING: iso_8859_1,
    },
    gn_decoder=ia5_reject_controls,
    dn_escape=EscapeStyle.RFC2253,
    gn_escape=EscapeStyle.NONE,
    duplicate_cn="first",
    gn_text_representation=True,
    gn_forgery_exploitable=False,
    supports_san=True,
    supports_ian=False,
    supports_aia=True,
    supports_sia=False,
    supports_crldp=False,
)
