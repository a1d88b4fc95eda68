"""The 95 frozen constraint rules (the RFCGPT extraction output).

The paper's Section 3.1.1 pipeline prompts an LLM to produce, per
certificate field, (1) permitted data structures and encoding types and
(2) encoding/format constraints, then manually reviews and freezes them
into lints.  This module is the frozen artifact: one
:class:`ConstraintRule` per lint, carrying the structured fields the
prompt templates of Appendix C request (structures, encodings,
requirement text, source document).

The deterministic extraction pipeline that regenerates these records
from spec text lives in :mod:`repro.lint.rfc_analyzer`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .framework import REGISTRY, NoncomplianceType, Severity

# Ensure the registry is populated even when this module is imported
# directly (the package __init__ normally does this).
from . import character as _character  # noqa: F401
from . import normalization as _normalization  # noqa: F401
from . import format as _format  # noqa: F401
from . import encoding as _encoding  # noqa: F401
from . import structure as _structure  # noqa: F401


@dataclass(frozen=True)
class ConstraintRule:
    """One extracted requirement in the Appendix C output shape."""

    rule_id: str
    lint_name: str
    field: str
    structures: str
    requirement: str
    source_document: str
    requirement_level: str  # MUST / SHOULD
    new: bool
    nc_type: NoncomplianceType


#: The certificate field each scope reads.  A tuple scope
#: ``(side, oid_dotted)`` is filed under its side.
_FIELD_BY_SCOPE = {
    "s": "Subject",
    "subject": "Subject",
    "ps": "Subject",
    "utf8": "Subject",
    "dn": "Subject",
    "i": "Issuer",
    "issuer": "Issuer",
    "dns": "SubjectAltName",
    "xn": "SubjectAltName",
    "san_dns": "SubjectAltName",
    "san_email": "SubjectAltName",
    "san_uri": "SubjectAltName",
    "san_entries": "SubjectAltName",
    "cn_san": "SubjectAltName",
    "ian_dns": "IssuerAltName",
    "ian_email": "IssuerAltName",
    "ian_uri": "IssuerAltName",
    "email_all": "RFC822Name/SmtpUTF8Mailbox",
    "smtp": "RFC822Name/SmtpUTF8Mailbox",
    "uri_all": "URI",
    "uris_scheme": "URI",
    "crldp": "CRLDistributionPoints",
    "aia_uris": "AuthorityInfoAccess",
    "sia_uris": "SubjectInfoAccess",
    "cp_text": "CertificatePolicies",
    "cps_uris": "CertificatePolicies",
}


def _field_of(lint) -> str:
    scope = lint.scan.scope
    return _FIELD_BY_SCOPE[scope[0] if isinstance(scope, tuple) else scope]


def _structures_of(lint) -> str:
    field = _field_of(lint)
    if field in ("Subject", "Issuer"):
        return "DistinguishedName-->RDNSequence-->DirectoryString"
    if field in ("SubjectAltName", "IssuerAltName"):
        return "GeneralNames-->GeneralName-->IA5String"
    if field == "CRLDistributionPoints":
        return "DistributionPoint-->GeneralName-->IA5String"
    if field in ("AuthorityInfoAccess", "SubjectInfoAccess"):
        return "AccessDescription-->GeneralName-->IA5String"
    if field == "CertificatePolicies":
        return "PolicyInformation-->PolicyQualifierInfo-->DisplayText"
    if field == "RFC822Name/SmtpUTF8Mailbox":
        return "GeneralName-->otherName-->SmtpUTF8Mailbox (UTF8String)"
    return "GeneralName-->IA5String"


def _build_rules() -> list[ConstraintRule]:
    rules = []
    for index, lint in enumerate(
        sorted(REGISTRY.all(), key=lambda l: l.metadata.name), start=1
    ):
        meta = lint.metadata
        rules.append(
            ConstraintRule(
                rule_id=f"UC-{index:03d}",
                lint_name=meta.name,
                field=_field_of(lint),
                structures=_structures_of(lint),
                requirement=meta.description,
                source_document=meta.source.value,
                requirement_level="MUST" if meta.severity is Severity.ERROR else "SHOULD",
                new=meta.new,
                nc_type=meta.nc_type,
            )
        )
    return rules


#: The frozen 95-rule set, 1:1 with the lint registry.
CONSTRAINT_RULES: list[ConstraintRule] = _build_rules()

_BY_LINT = {rule.lint_name: rule for rule in CONSTRAINT_RULES}


def rules_for_lint(lint_name: str) -> ConstraintRule:
    """Look up the constraint rule backing a lint."""
    return _BY_LINT[lint_name]
