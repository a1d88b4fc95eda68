"""PyOpenSSL (get_subject/get_issuer, str(get_extension())) model.

Paper observations: Latin-1-tolerant DN decoding (illegal characters in
PrintableString/IA5String pass through — Table 5 "⊙"), *modified* GN
decoding in CRLDistributionPoints where control characters in
U+0000-0009, U+000B, U+000C, U+000E-001F and U+007F are replaced with
"." (the CRL-spoofing vector of Section 5.2), and *exploited*
non-standard escaping when stringifying GeneralNames (subfield forgery:
"DNS:a.com DNS:b.com" inside one DNSName).
"""

from ..base import (
    EscapeStyle,
    ParserProfile,
    control_chars_to_dot,
    iso_8859_1,
    ucs2,
    utf8_replace,
)
from ...asn1.tags import UniversalTag

PROFILE = ParserProfile(
    name="PyOpenSSL",
    version="24.2.1",
    dn_decoders={
        UniversalTag.PRINTABLE_STRING: iso_8859_1,
        UniversalTag.IA5_STRING: iso_8859_1,
        UniversalTag.VISIBLE_STRING: iso_8859_1,
        UniversalTag.NUMERIC_STRING: iso_8859_1,
        UniversalTag.UTF8_STRING: utf8_replace,
        UniversalTag.BMP_STRING: ucs2,
        UniversalTag.TELETEX_STRING: iso_8859_1,
    },
    gn_decoder=iso_8859_1,
    crldp_decoder=control_chars_to_dot,
    dn_escape=EscapeStyle.NONE,
    gn_escape=EscapeStyle.NONE,
    duplicate_cn="first",
    gn_text_representation=True,
    gn_forgery_exploitable=True,
    supports_san=True,
    supports_ian=True,
    supports_aia=True,
    supports_sia=False,
    supports_crldp=True,
)
