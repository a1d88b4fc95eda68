"""CT monitor behaviour models (Table 6).

Each monitor indexes log entries by certificate fields and answers
field-based queries, with the feature matrix the paper measured: case
handling, fuzzy search, Unicode input support, U-label validation,
Punycode handling, and special-character indexing failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..uni.dns import is_xn_label
from ..uni.idna import alabel_violations, domain_to_ascii
from ..uni.errors import IDNAError
from ..x509.certificate import Certificate
from ..asn1.oid import OID_COMMON_NAME, OID_EMAIL_ADDRESS, OID_ORGANIZATIONAL_UNIT, OID_ORGANIZATION_NAME

#: Characters that break fragile monitor indexers (paper P1.4).
_SPECIAL = frozenset(chr(cp) for cp in (*range(0x00, 0x20), 0x7F))


@dataclass(frozen=True)
class MonitorFeatures:
    """The Table 6 feature columns."""

    case_insensitive: bool = True
    unicode_search: bool = False
    fuzzy_search: bool = False
    ulabel_check: bool = False
    punycode_idn: bool = True
    punycode_idn_cctld: bool = True
    #: Whether certificates with special Unicode fail to be indexed.
    fails_on_special_unicode: bool = False
    #: SSLMate quirks: CN truncated at '/', CN with space ignored.
    cn_truncate_at_slash: bool = False
    cn_skip_on_space: bool = False


@dataclass
class QueryResult:
    """The outcome of one monitor query."""

    matches: list[int] = field(default_factory=list)  # entry indexes
    refused: bool = False
    reason: str = ""


class CTMonitor:
    """One monitor: an index over submitted certificates plus search."""

    def __init__(self, name: str, query_fields: tuple[str, ...], features: MonitorFeatures):
        self.name = name
        self.query_fields = query_fields
        self.features = features
        #: term -> set of entry ids
        self._index: dict[str, set[int]] = {}
        self._count = 0

    # -- indexing --------------------------------------------------------

    def _terms_for(self, cert: Certificate) -> list[str]:
        terms: list[str] = []
        if "CN" in self.query_fields:
            for cn in cert.subject.get(OID_COMMON_NAME):
                term = cn
                if self.features.cn_skip_on_space and " " in term:
                    continue
                if self.features.cn_truncate_at_slash and "/" in term:
                    term = term.split("/", 1)[0]
                terms.append(term)
        if "SAN" in self.query_fields:
            terms.extend(cert.san_dns_names)
        if "O" in self.query_fields:
            terms.extend(cert.subject.get(OID_ORGANIZATION_NAME))
        if "OU" in self.query_fields:
            terms.extend(cert.subject.get(OID_ORGANIZATIONAL_UNIT))
        if "emailAddress" in self.query_fields:
            terms.extend(cert.subject.get(OID_EMAIL_ADDRESS))
        return terms

    def _normalize(self, term: str) -> str:
        return term.casefold() if self.features.case_insensitive else term

    def _indexable(self, term: str) -> bool:
        if self.features.fails_on_special_unicode and any(ch in _SPECIAL for ch in term):
            return False
        if not self.features.punycode_idn_cctld:
            labels = term.split(".")
            if labels and is_xn_label(labels[-1]):
                return False
        return True

    def submit(self, cert: Certificate) -> int:
        """Index one certificate; return its entry id."""
        entry_id = self._count
        self._count += 1
        for term in self._terms_for(cert):
            if not self._indexable(term):
                continue
            self._index.setdefault(self._normalize(term), set()).add(entry_id)
        return entry_id

    def submit_all(self, certs: list[Certificate]) -> list[int]:
        return [self.submit(cert) for cert in certs]

    def sync_from_log(self, log, include_precerts: bool = False) -> int:
        """Ingest a :class:`~repro.ct.log.CTLog`'s entries.

        Real monitors index final certificates; ``include_precerts``
        mirrors the paper's precertificate-filtering step.  Returns the
        number of entries indexed.
        """
        count = 0
        for entry in log.entries(include_precerts=include_precerts):
            self.submit(entry.certificate)
            count += 1
        return count

    # -- querying ------------------------------------------------------------

    def search(self, query: str) -> QueryResult:
        """Answer a field-value query with the monitor's semantics."""
        if not self.features.unicode_search and any(ord(ch) > 0x7E for ch in query):
            # Unicode (U-label) input: monitors that validate convert or
            # refuse; the rest reject the input form outright.
            if self.features.ulabel_check:
                try:
                    query = domain_to_ascii(query, validate=True)
                except (IDNAError, Exception):
                    return QueryResult(refused=True, reason="invalid U-label input")
            else:
                try:
                    query = domain_to_ascii(query, validate=False)
                except Exception:
                    return QueryResult(refused=True, reason="non-ASCII input unsupported")
        if self.features.ulabel_check:
            for label in query.split("."):
                if is_xn_label(label) and alabel_violations(label):
                    return QueryResult(
                        refused=True, reason=f"A-label {label!r} fails U-label checks"
                    )
        if not self.features.punycode_idn_cctld:
            labels = query.split(".")
            if labels and is_xn_label(labels[-1]):
                return QueryResult(refused=True, reason="punycode ccTLD unsupported")
        needle = self._normalize(query)
        if self.features.fuzzy_search:
            matches: set[int] = set()
            for term, ids in self._index.items():
                if needle in term:
                    matches.update(ids)
            return QueryResult(matches=sorted(matches))
        return QueryResult(matches=sorted(self._index.get(needle, set())))


def _build_monitors() -> list[CTMonitor]:
    return [
        CTMonitor(
            "Crt.sh",
            ("CN", "O", "OU", "emailAddress", "SAN"),
            MonitorFeatures(fuzzy_search=True),
        ),
        CTMonitor(
            "SSLMate Spotter",
            ("CN", "SAN"),
            MonitorFeatures(
                ulabel_check=True,
                fails_on_special_unicode=True,
                cn_truncate_at_slash=True,
                cn_skip_on_space=True,
            ),
        ),
        CTMonitor(
            "Facebook Monitor",
            ("CN", "SAN"),
            MonitorFeatures(ulabel_check=True),
        ),
        CTMonitor(
            "Entrust Search",
            ("CN", "SAN"),
            MonitorFeatures(punycode_idn_cctld=False),
        ),
        CTMonitor(
            "MerkleMap",
            ("CN", "SAN"),
            MonitorFeatures(fuzzy_search=True),
        ),
    ]


#: Fresh monitor instances in the Table 6 row order.
def ALL_MONITORS() -> list[CTMonitor]:
    """Fresh monitor instances in the Table 6 row order."""
    return _build_monitors()


def MONITORS_BY_NAME() -> dict[str, CTMonitor]:
    """Fresh monitor instances keyed by name."""
    return {monitor.name: monitor for monitor in _build_monitors()}
