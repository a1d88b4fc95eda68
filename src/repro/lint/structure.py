"""Invalid Structure (2 lints) and Discouraged Field (2 lints) — T3.

Structural rules: the CN must be mirrored in the SAN (CA/B BRs), and DN
attribute types must not repeat.  Discouraged fields: CN use itself is
deprecated in favour of SANs, and URIs in SANs of TLS certs are
non-recommended.
"""

from __future__ import annotations

from ..asn1.oid import OID_COMMON_NAME
from ..uni.idna import domain_to_ascii
from ..uni.normalization import case_fold_equal
from ..uni.errors import IDNAError, PunycodeError
from ..x509.certificate import Certificate
from ..x509.general_name import GeneralNameKind
from .compiled import ScanSpec
from .framework import (
    CABF_BR_DATE,
    NoncomplianceType,
    RFC5280_DATE,
    Severity,
    Source,
)
from .helpers import register_lint, san_names

# ---------------------------------------------------------------------------
# Invalid Structure
# ---------------------------------------------------------------------------


def _cn_matches_san(cn: str, san_values: list[str]) -> bool:
    # A verbatim copy case-folds equal to itself: skip the IDNA pass.
    if cn in san_values:
        return True
    candidates = {cn}
    try:
        candidates.add(domain_to_ascii(cn, validate=False))
    except (IDNAError, PunycodeError):
        pass
    return any(
        case_fold_equal(candidate, value)
        for candidate in candidates
        for value in san_values
    )


def _check_cn_in_san(cert: Certificate) -> tuple[bool, str]:
    san = cert.san
    san_values = (
        [gn.value for gn in san.names] if san is not None else []
    )
    for cn in cert.subject_common_names:
        if not _cn_matches_san(cn, san_values):
            return False, f"Subject CN {cn!r} not present in SAN"
    return True, ""


register_lint(
    name="w_cab_subject_common_name_not_in_san",
    description="When present, the Subject CN MUST be repeated in the SAN",
    citation="CA/B BR 7.1.4.2.2(a)",
    source=Source.CABF_BR,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_STRUCTURE,
    effective_date=CABF_BR_DATE,
    new=False,
    applies=lambda cert: bool(cert.subject_common_names),
    check=_check_cn_in_san,
    scan=ScanSpec("cn_san", ("CN_NOT_IN_SAN",)),
)


def _check_duplicate_attrs(cert: Certificate) -> tuple[bool, str]:
    seen: dict[str, int] = {}
    for attr in cert.subject.attributes():
        seen[attr.oid.dotted] = seen.get(attr.oid.dotted, 0) + 1
    duplicated = [oid for oid, count in seen.items() if count > 1]
    if duplicated:
        from ..asn1.oid import OID_NAMES

        names = ", ".join(OID_NAMES.get(oid, oid) for oid in duplicated)
        return False, f"duplicate Subject attribute type(s): {names}"
    return True, ""


register_lint(
    name="e_subject_dn_duplicate_attribute",
    description="Subject DN attribute types must not repeat",
    citation="ITU-T X.501 9.3 + CA/B BR 7.1.4.2",
    source=Source.CABF_BR,
    severity=Severity.ERROR,
    nc_type=NoncomplianceType.INVALID_STRUCTURE,
    effective_date=CABF_BR_DATE,
    new=False,
    applies=lambda cert: not cert.subject.is_empty,
    check=_check_duplicate_attrs,
    scan=ScanSpec("subject", ("DUP_OID",)),
)

# ---------------------------------------------------------------------------
# Discouraged Field
# ---------------------------------------------------------------------------


def _check_extra_cn(cert: Certificate) -> tuple[bool, str]:
    cns = cert.subject_common_names
    if len(cns) > 1:
        return False, f"Subject carries {len(cns)} CommonNames; CN use is discouraged"
    return True, ""


register_lint(
    name="w_cab_subject_contain_extra_common_name",
    description="Subject SHOULD NOT carry more than one CommonName",
    citation="CA/B BR 7.1.4.2.2 (CN discouraged)",
    source=Source.CABF_BR,
    severity=Severity.WARN,
    nc_type=NoncomplianceType.DISCOURAGED_FIELD,
    effective_date=CABF_BR_DATE,
    new=False,
    applies=lambda cert: bool(cert.subject_common_names),
    check=_check_extra_cn,
    scan=ScanSpec(("s", OID_COMMON_NAME.dotted), ("EXTRA_CN",)),
)


def _check_san_uri(cert: Certificate) -> tuple[bool, str]:
    uris = san_names(cert, GeneralNameKind.URI)
    if uris:
        return False, f"SAN contains {len(uris)} URI entries; discouraged for TLS"
    return True, ""


register_lint(
    name="w_ext_san_uri_discouraged",
    description="SANs of TLS server certificates SHOULD NOT carry URIs",
    citation="CA/B BR 7.1.4.2.1 (only dNSName/iPAddress permitted)",
    source=Source.CABF_BR,
    severity=Severity.WARN,
    nc_type=NoncomplianceType.DISCOURAGED_FIELD,
    effective_date=CABF_BR_DATE,
    new=False,
    applies=lambda cert: cert.san is not None,
    check=_check_san_uri,
    scan=ScanSpec("san_entries", ("SAN_HAS_URI",)),
)
