"""Go crypto/x509 (ParseCertificate, Subject struct) behaviour model.

Paper observations: the strictest DN decoder — invalid PrintableString
characters yield "asn1: syntax error: PrintableString contains invalid
character" parse failures (the Section 5.1 availability impact) — while
GeneralNames tolerate UTF-8 octets inside IA5String fields (Table 5
"⊙" for GN).  DN output is a structured pkix.Name, so escaping checks
do not apply (Appendix E exclusion).  When the Subject repeats CN,
Go reports the *last* value.
"""

from ..base import (
    EscapeStyle,
    ParserProfile,
    ascii_strict,
    iso_8859_1,
    printable_strict,
    ucs2,
    utf8_strict,
)
from ...asn1.tags import UniversalTag

PROFILE = ParserProfile(
    name="Golang Crypto",
    version="1.23.0",
    dn_decoders={
        UniversalTag.PRINTABLE_STRING: printable_strict,
        UniversalTag.IA5_STRING: ascii_strict,
        UniversalTag.VISIBLE_STRING: ascii_strict,
        UniversalTag.NUMERIC_STRING: ascii_strict,
        UniversalTag.UTF8_STRING: utf8_strict,
        UniversalTag.BMP_STRING: ucs2,
        UniversalTag.TELETEX_STRING: iso_8859_1,
    },
    gn_decoder=utf8_strict,
    dn_escape=EscapeStyle.RFC4514,
    gn_escape=EscapeStyle.NONE,
    duplicate_cn="last",
    supports_san=True,
    supports_ian=False,
    supports_aia=False,
    supports_sia=False,
    supports_crldp=True,
)
