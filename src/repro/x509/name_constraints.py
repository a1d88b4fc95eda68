"""NameConstraints (RFC 5280 4.2.1.10) — model, codec, and checking.

The paper cites CVE-2021-44533: ambiguous field transformations can be
exploited to bypass name-constraint checks.  This module provides the
*correct* structured checker plus a deliberately naive text-based
checker that consumes a library's single-string SAN representation —
the pair demonstrates the bypass end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asn1.der import Element, parse_node
from ..asn1.errors import ASN1Error
from ..asn1.tags import Tag, TagClass
from ..asn1.oid import OID_EXT_NAME_CONSTRAINTS
from .certificate import Certificate
from .extensions import Extension
from .general_name import GeneralName, GeneralNameKind


@dataclass
class NameConstraints:
    """Permitted/excluded dNSName subtrees (the form CAs actually use)."""

    permitted_dns: list[str] = field(default_factory=list)
    excluded_dns: list[str] = field(default_factory=list)

    # -- codec ------------------------------------------------------------

    def _subtrees(self, names: list[str], strict: bool) -> Element:
        # GeneralSubtree ::= SEQUENCE { base GeneralName, ... }
        subtrees = [
            Element.constructed(
                Tag.universal(16), [GeneralName.dns(name).encode(strict=strict)]
            )
            for name in names
        ]
        return Element.constructed(Tag.universal(16), subtrees)

    def encode(self, strict: bool = False) -> bytes:
        children = []
        if self.permitted_dns:
            permitted = self._subtrees(self.permitted_dns, strict)
            children.append(
                Element(
                    tag=Tag(TagClass.CONTEXT, True, 0), children=permitted.children
                )
            )
        if self.excluded_dns:
            excluded = self._subtrees(self.excluded_dns, strict)
            children.append(
                Element(tag=Tag(TagClass.CONTEXT, True, 1), children=excluded.children)
            )
        return Element.constructed(Tag.universal(16), children).encode()

    @classmethod
    def parse(cls, der: bytes) -> "NameConstraints":
        constraints = cls()
        for child in parse_node(der, strict=False)[4]:
            if child[0].cls is not TagClass.CONTEXT:
                continue
            target = (
                constraints.permitted_dns
                if child[0].number == 0
                else constraints.excluded_dns
            )
            for subtree in child[4]:
                if not subtree[4]:
                    continue
                gn = GeneralName.from_node(der, subtree[4][0], strict=False)
                if gn.kind is GeneralNameKind.DNS_NAME:
                    target.append(gn.value)
        return constraints

    def to_extension(self, critical: bool = True) -> Extension:
        return Extension(OID_EXT_NAME_CONSTRAINTS, critical, self.encode())

    # -- checking ----------------------------------------------------------

    @staticmethod
    def _within(name: str, base: str) -> bool:
        """RFC 5280 dNSName subtree matching."""
        name = name.rstrip(".").casefold()
        base = base.rstrip(".").casefold().lstrip(".")
        return name == base or name.endswith("." + base)

    def permits(self, dns_name: str) -> bool:
        """Whether one dNSName satisfies these constraints."""
        for base in self.excluded_dns:
            if self._within(dns_name, base):
                return False
        if self.permitted_dns:
            return any(self._within(dns_name, base) for base in self.permitted_dns)
        return True


def constraints_of(cert: Certificate) -> NameConstraints | None:
    """Parse the NameConstraints extension of a CA certificate."""
    ext = cert.get_extension(OID_EXT_NAME_CONSTRAINTS)
    if ext is None:
        return None
    try:
        return NameConstraints.parse(ext.value_der)
    except ASN1Error:
        return None


def check_chain_name_constraints(leaf: Certificate, ca: Certificate) -> list[str]:
    """Structured checking: every leaf dNSName against the CA's subtrees.

    Returns the list of violating names (empty = compliant).  Names are
    taken from the parsed SAN structure, one GeneralName at a time —
    never from a flattened text representation.
    """
    from ..uni.dns import is_valid_dns_name

    constraints = constraints_of(ca)
    if constraints is None:
        return []
    violations = []
    san = leaf.san
    names = [gn.value for gn in san.names if gn.kind is GeneralNameKind.DNS_NAME] if san else []
    if not names:
        names = list(leaf.subject_common_names)
    for name in names:
        # A syntactically invalid dNSName can never satisfy a subtree:
        # suffix matching on the raw string would otherwise let a
        # crafted "evil.com, DNS:x.a.com" ride on its trailing ".a.com".
        if not is_valid_dns_name(name):
            violations.append(name)
            continue
        if not constraints.permits(name):
            violations.append(name)
    return violations


def naive_text_check_permits(san_text: str | None, ca: Certificate) -> bool:
    """The vulnerable pattern (CVE-2021-44533's shape).

    The buggy implementation splits the library's SAN *string* on
    ``", "`` and asks "is this certificate within the CA's namespace?"
    as *any entry permitted* — so an attacker hides a forbidden name
    next to a permitted one inside a single crafted DNSName.  Pairing
    this with a text-based hostname matcher completes the bypass: the
    forged entry matches the victim hostname while the constraint check
    is satisfied by the decoy entry.
    """
    constraints = constraints_of(ca)
    if constraints is None:
        return True
    if not san_text:
        return False
    for part in san_text.split(", "):
        value = part.split(":", 1)[1] if ":" in part else part
        if constraints.permits(value):
            return True  # the any() bug
    return False


def naive_text_hostname_match(san_text: str | None, hostname: str) -> bool:
    """A string-based hostname matcher over the flattened SAN text."""
    if not san_text:
        return False
    for part in san_text.split(", "):
        value = part.split(":", 1)[1] if ":" in part else part
        if value.casefold() == hostname.casefold():
            return True
    return False
