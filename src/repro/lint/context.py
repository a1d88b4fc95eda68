"""Run-scoped extraction context for one certificate.

:func:`~repro.lint.runner.run_lints` attaches a :class:`LintContext` to
the certificate (``cert._lint_ctx``) for the duration of one lint run.
The helper extractors in :mod:`repro.lint.helpers` consult it when
present, so the ~95 lints share one SAN/IAN kind-bucketing pass, one
deduplicated DNS-name list, one A-label scan, and one punycode decode
per distinct label — instead of each lint re-deriving them.  When no
context is attached (direct helper calls, and the reference oracle
:func:`repro.lint.reference.reference_run_lints`) every helper computes
from the certificate directly, so the context is purely an
accelerator, never a source of truth.
"""

from __future__ import annotations

from ..uni import is_xn_label
from ..x509 import Certificate

# Family keys for the registry index.  A certificate's present-family
# set is compared against the families each lint's scope gives
# (:data:`repro.lint.compiled.SCOPES`).  Beside these names, a DN
# attribute of OID ``oid`` gives ``("s", oid.dotted)``/``("i", ...)``,
# its declared string type ``("spec", type_name)``, and a SAN/IAN
# GeneralName of kind ``k`` gives ``("san", int(k))``/``("ian", ...)``.
FAMILY_SUBJECT_ANY = "s*"
FAMILY_ISSUER_ANY = "i*"
FAMILY_SAN_PRESENT = "san!"
FAMILY_IAN_PRESENT = "ian!"
FAMILY_DNS = "dns"
FAMILY_XN = "xn"
FAMILY_AIA = "e:aia"
FAMILY_SIA = "e:sia"
FAMILY_CRLDP = "e:crldp"
FAMILY_CP = "e:cp"


class LintContext:
    """Memoized per-run derived views of one certificate."""

    __slots__ = (
        "cert",
        "_san_by_kind",
        "_ian_by_kind",
        "_all_dns",
        "_xn_labels",
        "_alabel_memo",
        "_alabel_list",
        "_families",
    )

    def __init__(self, cert: Certificate):
        self.cert = cert
        self._san_by_kind = None
        self._ian_by_kind = None
        self._all_dns = None
        self._xn_labels = None
        self._alabel_memo: dict = {}
        self._alabel_list = None
        self._families = None

    # -- SAN / IAN buckets -------------------------------------------------

    @staticmethod
    def _bucket(general_names) -> dict:
        by_kind: dict = {}
        if general_names is not None:
            for gn in general_names.names:
                by_kind.setdefault(gn.kind, []).append(gn)
        return by_kind

    def san_names(self, kind) -> list:
        by_kind = self._san_by_kind
        if by_kind is None:
            by_kind = self._san_by_kind = self._bucket(self.cert.san)
        return by_kind.get(kind, [])

    def ian_names(self, kind) -> list:
        by_kind = self._ian_by_kind
        if by_kind is None:
            by_kind = self._ian_by_kind = self._bucket(self.cert.ian)
        return by_kind.get(kind, [])

    # -- DNS names and IDN labels ------------------------------------------

    def all_dns_names(self) -> list[str]:
        names = self._all_dns
        if names is None:
            from .helpers import compute_all_dns_names

            names = self._all_dns = compute_all_dns_names(self.cert)
        return names

    def xn_labels(self) -> list[str]:
        labels = self._xn_labels
        if labels is None:
            labels = self._xn_labels = [
                label
                for dns_name in self.all_dns_names()
                for label in dns_name.split(".")
                if is_xn_label(label)
            ]
        return labels

    def alabel_decodings(self) -> list[tuple]:
        """``(label, ulabel | None, error | None)`` per A-label, in order.

        Punycode decoding is memoized per distinct label so the four IDN
        lints (decodable / permitted / NFC / roundtrip) share one decode.
        """
        decodings = self._alabel_list
        if decodings is None:
            from .helpers import decode_alabel

            memo = self._alabel_memo
            decodings = []
            for label in self.xn_labels():
                entry = memo.get(label)
                if entry is None:
                    entry = memo[label] = decode_alabel(label)
                decodings.append(entry)
            self._alabel_list = decodings
        return decodings

    # -- family presence ----------------------------------------------------

    def families(self, field_families: set | None = None) -> frozenset:
        """The certificate's present-field families (for index skipping).

        The DN part (``s*``/``i*`` plus the per-OID and per-spec keys of
        both DNs) and the AIA/SIA/CRLDP/CP presence keys come from
        :func:`repro.lint.compiled.walk_fields`, which the runner calls
        anyway for those fields' scope masks and passes in as
        ``field_families``; the set is extended in place.  SAN and IAN
        are per-certificate content and are read here.
        """
        fams = self._families
        if fams is None:
            cert = self.cert
            present = field_families
            if present is None:
                from .compiled import walk_fields  # compiled imports this module

                present = walk_fields(cert, {})
            san = cert.san
            if san is not None:
                present.add(FAMILY_SAN_PRESENT)
                for gn in san.names:
                    present.add(("san", int(gn.kind)))
            ian = cert.ian
            if ian is not None:
                present.add(FAMILY_IAN_PRESENT)
                for gn in ian.names:
                    present.add(("ian", int(gn.kind)))
            if self.all_dns_names():
                present.add(FAMILY_DNS)
                if self.xn_labels():
                    present.add(FAMILY_XN)
            fams = self._families = frozenset(present)
        return fams
