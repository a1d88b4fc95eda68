"""Synthetic CT corpus calibrated to the paper's published marginals.

The paper's dataset (34.8 M Unicerts filtered from a 70 B-certificate
QiAnXin CT collection) is proprietary; this generator plants the same
*defect classes* at the same *proportions* so that running the real
linter over the synthetic corpus reproduces the shape of Tables 1, 2, 3,
11 and Figures 2, 3, 4.  Every number cited in a comment below comes
from the paper.

Scaling: ``scale`` multiplies the paper's absolute counts (default
1/1000, i.e. ~34.8 K certificates with ~249 noncompliant).  The three
Bad Normalization certificates are planted as an absolute count — the
paper reports exactly 3.
"""

from __future__ import annotations

import datetime as _dt
import enum
import random
from dataclasses import dataclass, field

from ..asn1 import BMP_STRING, IA5_STRING, PRINTABLE_STRING, TELETEX_STRING, UTF8_STRING
from ..asn1.oid import (
    OID_BUSINESS_CATEGORY,
    OID_COMMON_NAME,
    OID_COUNTRY_NAME,
    OID_CP_DOMAIN_VALIDATED,
    OID_JURISDICTION_COUNTRY,
    OID_JURISDICTION_LOCALITY,
    OID_JURISDICTION_STATE,
    OID_LOCALITY_NAME,
    OID_ORGANIZATION_NAME,
    OID_ORGANIZATIONAL_UNIT,
    OID_POSTAL_CODE,
    OID_QT_UNOTICE,
    OID_SERIAL_NUMBER,
    OID_STATE_OR_PROVINCE,
    OID_STREET_ADDRESS,
)
from ..uni import punycode, ulabel_to_alabel
from ..x509 import (
    Certificate,
    CertificateBuilder,
    GeneralName,
    Name,
    PolicyInformation,
    PolicyQualifier,
    SimPrivateKey,
    UserNotice,
    certificate_policies,
    generate_keypair,
    subject_alt_name,
)


class TrustStatus(enum.Enum):
    """Trust classification of an issuer (Table 2's marker column)."""
    PUBLIC = "publicly trusted"
    LIMITED = "limited trust"
    NONE = "not trusted"


@dataclass(frozen=True)
class IssuerSpec:
    """One issuer organization with paper-calibrated volumes."""

    org: str
    region: str
    #: Trust at issuance time (footnote 3: ignoring later deprecation).
    issuance_trust: TrustStatus
    #: Current trust status (the Table 2 display column).
    current_trust: TrustStatus
    #: Paper-scale Unicert volume.
    volume: int
    #: Paper-scale noncompliant count.
    nc_count: int
    #: Paper-scale noncompliant certs issued 2024-2025.
    recent_nc: int = 0
    #: Whether the issuer only produces IDNCerts (automated DV).
    idn_only: bool = False
    #: Subject fields that carry internationalized content (Figure 4).
    unicode_fields: tuple[str, ...] = ("DNSName",)


#: Calibrated issuer table (Table 2 + Section 4.2 volumes).
ISSUERS: list[IssuerSpec] = [
    IssuerSpec("Let's Encrypt", "US", TrustStatus.PUBLIC, TrustStatus.PUBLIC,
               25_100_000, 15_484, recent_nc=7_091, idn_only=True),
    IssuerSpec("COMODO CA Limited", "GB", TrustStatus.PUBLIC, TrustStatus.NONE,
               4_800_000, 11_870, unicode_fields=("DNSName", "O")),
    IssuerSpec("cPanel, Inc.", "US", TrustStatus.PUBLIC, TrustStatus.PUBLIC,
               1_300_000, 2_600, idn_only=True),
    IssuerSpec("Sectigo Limited", "GB", TrustStatus.PUBLIC, TrustStatus.PUBLIC,
               900_000, 2_200, recent_nc=600, unicode_fields=("DNSName", "O", "L")),
    IssuerSpec("DigiCert Inc", "US", TrustStatus.PUBLIC, TrustStatus.PUBLIC,
               508_000, 17_276, recent_nc=40, unicode_fields=("DNSName", "O", "L", "ST")),
    IssuerSpec("ZeroSSL", "AT", TrustStatus.PUBLIC, TrustStatus.PUBLIC,
               443_636, 11_224, recent_nc=4_094, idn_only=True),
    IssuerSpec("GEANT Vereniging", "NL", TrustStatus.PUBLIC, TrustStatus.PUBLIC,
               215_000, 900, unicode_fields=("DNSName", "O", "L")),
    IssuerSpec("DOMENY.PL sp. z o.o.", "PL", TrustStatus.LIMITED, TrustStatus.LIMITED,
               49_000, 2_400, unicode_fields=("DNSName", "O")),
    IssuerSpec("Dreamcommerce S.A.", "PL", TrustStatus.LIMITED, TrustStatus.LIMITED,
               38_571, 17_291, unicode_fields=("O", "L", "CN")),
    IssuerSpec("Symantec Corporation", "US", TrustStatus.PUBLIC, TrustStatus.NONE,
               35_151, 18_092, unicode_fields=("O", "OU", "CN")),
    IssuerSpec("Česká pošta, s.p.", "CZ", TrustStatus.NONE, TrustStatus.NONE,
               23_798, 22_939, unicode_fields=("O", "OU", "CN", "L")),
    IssuerSpec("StartCom Ltd.", "IL", TrustStatus.PUBLIC, TrustStatus.NONE,
               19_416, 14_168, unicode_fields=("O", "CN")),
    IssuerSpec("VeriSign, Inc.", "US", TrustStatus.PUBLIC, TrustStatus.PUBLIC,
               12_707, 7_513, unicode_fields=("O", "OU")),
    IssuerSpec("Government of Korea", "KR", TrustStatus.LIMITED, TrustStatus.NONE,
               11_927, 10_416, unicode_fields=("O", "OU", "CN")),
    IssuerSpec("IPS CA", "ES", TrustStatus.NONE, TrustStatus.NONE,
               3_000, 400, unicode_fields=("O", "CN")),
    IssuerSpec("Thawte Consulting", "ZA", TrustStatus.PUBLIC, TrustStatus.NONE,
               5_000, 300, unicode_fields=("O", "CN")),
]

#: Aggregate tail issuers ("Other" row of Table 2), split by trust so
#: the corpus lands on the paper's 65.3% / 21.1% / 13.6% NC trust split.
OTHER_SPECS: list[IssuerSpec] = [
    IssuerSpec("Other (trusted pool)", "--", TrustStatus.PUBLIC, TrustStatus.PUBLIC,
               1_000_000, 8_321, recent_nc=1_200, unicode_fields=("DNSName", "O")),
    IssuerSpec("Other (limited pool)", "--", TrustStatus.LIMITED, TrustStatus.LIMITED,
               200_000, 22_437, unicode_fields=("O", "CN", "L")),
    IssuerSpec("Other (untrusted pool)", "--", TrustStatus.NONE, TrustStatus.NONE,
               144_794, 10_609, unicode_fields=("O", "CN")),
]

PAPER_TOTAL_UNICERTS = 34_800_000
PAPER_TOTAL_NC = 249_281

# ---------------------------------------------------------------------------
# Defect classes (Table 11 + Sections 4.4, 5.1)
# ---------------------------------------------------------------------------

#: (class name, paper count, recent fraction) — counts from Table 11.
DEFECT_PLAN: list[tuple[str, int, float]] = [
    ("cp_text_not_utf8", 117_471, 0.0),
    ("cn_not_in_san", 93_664, 0.015),
    ("idn_unpermitted", 26_701, 0.40),
    ("org_bad_encoding", 25_751, 0.0),
    ("cn_bad_encoding", 25_081, 0.0),
    ("locality_bad_encoding", 17_825, 0.0),
    ("dn_control_chars", 13_320, 0.02),
    ("ou_bad_encoding", 11_654, 0.0),
    ("jurisdiction_locality_bad_encoding", 4_213, 0.0),
    ("cp_text_too_long", 2_988, 0.004),
    ("jurisdiction_state_bad_encoding", 2_829, 0.0),
    ("cp_text_ia5", 2_550, 0.0),
    ("jurisdiction_country_bad_encoding", 1_744, 0.0),
    ("state_bad_encoding", 1_671, 0.0),
    ("printable_badalpha", 1_561, 0.0),
    ("trailing_whitespace", 1_356, 0.02),
    ("postal_bad_encoding", 1_262, 0.0),
    ("street_bad_encoding", 990, 0.0),
    ("extra_cn", 589, 0.002),
    ("serial_not_printable", 461, 0.0),
    ("leading_whitespace", 437, 0.02),
    ("country_not_printable", 409, 0.0),
    ("idn_malformed", 401, 0.05),
    ("dns_bad_label_char", 326, 0.03),
    ("san_unpermitted_unichar", 109, 0.05),
    ("nul_interval_insertion", 400, 0.0),  # IPS CA / Thawte (F4)
    ("asn1_undecodable_subject", 150, 0.0),  # Section 5.1
]

#: Defects with an absolute (unscaled) count: the paper reports exactly
#: three Bad Normalization Unicerts.
ABSOLUTE_DEFECTS: list[tuple[str, int]] = [("idn_not_nfc", 3)]

#: Latent defects: violate only rules whose effective dates postdate the
#: issuance window, producing the paper's footnote-4 gap (249K -> 1.8M).
LATENT_PLAN: list[tuple[str, int]] = [
    ("latent_smtp_ascii_mailbox", 1_250_000),  # pre-2024 vs RFC 9598
    ("latent_whitespace", 310_000),  # pre-2015 vs community lints
]

#: Defects that only make sense for IDN-only (automated DV) issuers.
IDN_DEFECTS = frozenset(
    {"idn_unpermitted", "idn_malformed", "dns_bad_label_char", "san_unpermitted_unichar",
     "idn_not_nfc", "cn_not_in_san"}
)

#: Issuers whose NC certs are the NUL-interval F4 case.
NUL_ISSUERS = ("IPS CA", "Thawte Consulting")

# ---------------------------------------------------------------------------
# Internationalized value pools
# ---------------------------------------------------------------------------

_IDN_WORDS = ["münchen", "köln", "straße", "中国银行", "россия", "ελλάδα",
              "한국", "日本語", "côté", "señal"]
_ORG_WORDS = ["Störi AG", "Peddy Shield GmbH", "Česká spořitelna",
              "株式会社 中国銀行", "ООО Ромашка", "Ğüven Bilişim",
              "Société Générale", "Łąka Media", "한국전자인증", "Grupo Eñe"]
_CITY_WORDS = ["Île-de-France", "München", "São Paulo", "Kraków", "서울",
               "Praha", "Zürich", "Århus", "Αθήνα", "東京"]
_TLDS = [".com", ".de", ".pl", ".cz", ".net", ".org", ".kr", ".jp"]

#: Issuance-year weights, 2012..2025 (Figure 2's growth curve).
YEAR_WEIGHTS = {
    2012: 0.0005, 2013: 0.001, 2014: 0.003, 2015: 0.008, 2016: 0.02,
    2017: 0.04, 2018: 0.06, 2019: 0.08, 2020: 0.10, 2021: 0.13,
    2022: 0.15, 2023: 0.18, 2024: 0.18, 2025: 0.05,
}

#: Noncompliant issuance is flatter and older-heavy (Figure 2).
NC_YEAR_WEIGHTS = {
    2012: 0.03, 2013: 0.05, 2014: 0.08, 2015: 0.10, 2016: 0.11,
    2017: 0.11, 2018: 0.10, 2019: 0.09, 2020: 0.08, 2021: 0.07,
    2022: 0.06, 2023: 0.05, 2024: 0.04, 2025: 0.03,
}

#: The analysis cut-off the paper uses ("as of April 2025").
ANALYSIS_DATE = _dt.datetime(2025, 4, 1)


def aia_url_for(org: str) -> str:
    """The simulated caIssuers URL for an issuer organization."""
    import hashlib

    token = hashlib.sha256(org.encode("utf-8")).hexdigest()[:12]
    return f"http://ca.sim/{token}.crt"


@dataclass
class CorpusRecord:
    """One certificate plus the ground-truth metadata the paper tracks."""

    certificate: Certificate
    issuer_org: str
    region: str
    issuance_trust: TrustStatus
    current_trust: TrustStatus
    issued_at: _dt.datetime
    defect: str | None = None
    latent: str | None = None
    is_idn: bool = False
    unicode_fields: tuple[str, ...] = ()

    @property
    def trusted_at_issuance(self) -> bool:
        return self.issuance_trust is TrustStatus.PUBLIC

    @property
    def alive(self) -> bool:
        return self.certificate.not_after >= ANALYSIS_DATE - _dt.timedelta(days=456)

    @property
    def valid_now(self) -> bool:
        return self.certificate.is_valid_at(ANALYSIS_DATE)

    @property
    def recent(self) -> bool:
        return self.issued_at.year >= 2024


@dataclass
class Corpus:
    """The generated corpus."""

    records: list[CorpusRecord] = field(default_factory=list)
    scale: float = 1.0
    #: Self-signed CA certificate per distinct issuer organization name,
    #: enabling the Section 5.1 chain reconstruction.
    ca_certificates: dict[str, Certificate] = field(default_factory=dict)
    #: Fingerprints of the publicly trusted roots.
    trust_anchors: set[str] = field(default_factory=set)

    def ca_pool(self):
        """A CertificatePool of issuer certs keyed by their AIA URLs."""
        from ..x509 import CertificatePool

        pool = CertificatePool()
        for org, cert in self.ca_certificates.items():
            pool.add(cert, url=aia_url_for(org))
        return pool

    @property
    def noncompliant_planted(self) -> list[CorpusRecord]:
        return [r for r in self.records if r.defect is not None]

    @property
    def compliant_planted(self) -> list[CorpusRecord]:
        return [r for r in self.records if r.defect is None and r.latent is None]

    def by_issuer(self) -> dict[str, list[CorpusRecord]]:
        grouped: dict[str, list[CorpusRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.issuer_org, []).append(record)
        return grouped

    def to_store(self, path):
        """Serialize this corpus to a memory-mapped substrate file.

        Returns the written path.  Reopening it with
        :class:`repro.corpusstore.CorpusStore` feeds the engine the
        zero-copy form: ``Engine.run_corpus(store, jobs=N)`` dispatches
        ``(path, start, stop)`` shard references instead of pickled DER
        and yields the byte-identical summary.
        """
        from ..corpusstore import write_store

        return write_store(self, path)

    def __len__(self) -> int:
        return len(self.records)


class CorpusGenerator:
    """Seeded generator producing a calibrated Corpus."""

    def __init__(self, seed: int = 2025, scale: float = 1 / 1000):
        self.scale = scale
        self._rng = random.Random(seed)
        self._issuer_keys: dict[str, SimPrivateKey] = {}
        self._serial = 10_000
        self._org_counter = 0
        self._ca_certs: dict[str, Certificate] = {}
        self._trust_anchors: set[str] = set()

    # -- helpers --------------------------------------------------------

    def _key_for(self, org: str) -> SimPrivateKey:
        if org not in self._issuer_keys:
            self._issuer_keys[org] = generate_keypair(seed=f"issuer:{org}")
        return self._issuer_keys[org]

    def _next_serial(self) -> int:
        self._serial += 1
        return self._serial

    def _scaled(self, count: int) -> int:
        exact = count * self.scale
        floor = int(exact)
        return floor + (1 if self._rng.random() < exact - floor else 0)

    def _sample_year(self, weights: dict[int, float], recent: bool = False) -> int:
        if recent:
            return self._rng.choice([2024, 2024, 2024, 2025])
        years = list(weights)
        return self._rng.choices(years, weights=[weights[y] for y in years])[0]

    def _issue_date(self, year: int) -> _dt.datetime:
        day = self._rng.randrange(1, 360)
        return _dt.datetime(year, 1, 1) + _dt.timedelta(days=day)

    def _validity_days(self, is_idn: bool, noncompliant: bool) -> int:
        roll = self._rng.random()
        if noncompliant:
            # ~50% last a year+, >20% exceed 700 days (Figure 3).
            if roll < 0.22:
                return self._rng.randrange(700, 3650)
            if roll < 0.50:
                return self._rng.randrange(365, 700)
            if roll < 0.75:
                return self._rng.randrange(180, 365)
            return self._rng.randrange(90, 180)
        if is_idn:
            # 89.6% follow the 90-day automation trend.
            if roll < 0.896:
                return 90
            return self._rng.choice([180, 365, 398])
        # Other Unicerts: >10.7% exceed 398 days.
        if roll < 0.107:
            return self._rng.randrange(399, 1200)
        if roll < 0.45:
            return 398
        if roll < 0.75:
            return 365
        return self._rng.choice([90, 180])

    def _random_idn_domain(self) -> str:
        word = self._rng.choice(_IDN_WORDS)
        label = f"{word}{self._rng.randrange(1, 9999)}"
        alabel = ulabel_to_alabel(label, validate=False)
        return alabel + self._rng.choice(_TLDS)

    def _random_ascii_domain(self) -> str:
        return f"host{self._rng.randrange(1, 10_000_000)}" + self._rng.choice(_TLDS)

    def _issuer_name(self, spec: IssuerSpec) -> Name:
        from ..x509 import AttributeTypeAndValue, RelativeDistinguishedName

        self._last_org = self._org_name(spec)
        country = spec.region if len(spec.region) == 2 else "US"
        return Name(
            rdns=[
                RelativeDistinguishedName(
                    [AttributeTypeAndValue(OID_COUNTRY_NAME, country, PRINTABLE_STRING)]
                ),
                RelativeDistinguishedName(
                    [AttributeTypeAndValue(OID_ORGANIZATION_NAME, self._last_org, UTF8_STRING)]
                ),
                RelativeDistinguishedName(
                    [AttributeTypeAndValue(OID_COMMON_NAME, f"{self._last_org} CA", UTF8_STRING)]
                ),
            ]
        )

    def _org_name(self, spec: IssuerSpec) -> str:
        if not spec.org.startswith("Other ("):
            return spec.org
        # The tail pools synthesize many distinct regional organizations
        # (the paper's 698 issuer organizations / 505 with NC certs).
        pool_size = max(3, int(200 * self.scale * 1000))
        index = self._rng.randrange(pool_size)
        return f"{spec.org[7:-6].title()} Regional CA {index:03d}"

    # -- certificate builders -------------------------------------------

    def _base_builder(self, spec: IssuerSpec, cn: str, san_name: str | None) -> CertificateBuilder:
        builder = (
            CertificateBuilder()
            .serial(self._next_serial())
            .subject_cn(cn)
        )
        if san_name is not None:
            builder.add_extension(subject_alt_name(GeneralName.dns(san_name)))
        return builder

    def _compliant_builder(self, spec: IssuerSpec, rng: random.Random) -> tuple[CertificateBuilder, bool, tuple[str, ...]]:
        """A standard-compliant Unicert for this issuer."""
        fields: list[str] = []
        if spec.idn_only or "DNSName" in spec.unicode_fields and rng.random() < 0.8:
            domain = self._random_idn_domain()
            builder = self._base_builder(spec, domain, domain)
            fields.append("DNSName")
            is_idn = True
        else:
            domain = self._random_ascii_domain()
            builder = self._base_builder(spec, domain, domain)
            is_idn = False
        if not spec.idn_only:
            for attr_field in spec.unicode_fields:
                if attr_field == "DNSName":
                    continue
                oid = {
                    "O": OID_ORGANIZATION_NAME,
                    "OU": OID_ORGANIZATIONAL_UNIT,
                    "CN": None,  # CN already set
                    "L": OID_LOCALITY_NAME,
                    "ST": OID_STATE_OR_PROVINCE,
                }.get(attr_field)
                if oid is None:
                    continue
                pool = _CITY_WORDS if attr_field in ("L", "ST") else _ORG_WORDS
                builder.subject_attr(oid, rng.choice(pool), UTF8_STRING)
                fields.append(attr_field)
        return builder, is_idn, tuple(fields) or ("DNSName",)

    # Each defect builder returns (builder, is_idn, fields).

    def _defect_builder(self, defect: str, spec: IssuerSpec, rng: random.Random):
        domain = self._random_idn_domain() if spec.idn_only else self._random_ascii_domain()
        org = rng.choice(_ORG_WORDS)
        city = rng.choice(_CITY_WORDS)
        bad_spec = rng.choice([BMP_STRING, TELETEX_STRING])

        if defect == "cp_text_not_utf8":
            builder = self._base_builder(spec, domain, domain)
            text_spec = rng.choice([BMP_STRING, PRINTABLE_STRING])
            policy = PolicyInformation(
                OID_CP_DOMAIN_VALIDATED,
                qualifiers=[PolicyQualifier(OID_QT_UNOTICE, user_notice=UserNotice("Zásady certifikace", text_spec))],
            )
            builder.add_extension(certificate_policies(policy))
            return builder, False, ("CertificatePolicies",)
        if defect == "cn_not_in_san":
            cn = self._random_idn_domain() if spec.idn_only else domain
            builder = self._base_builder(spec, cn, self._random_ascii_domain())
            return builder, spec.idn_only, ("DNSName",)
        if defect == "idn_unpermitted":
            # A-label decoding to a bidi-control-bearing U-label (P1.3).
            bad = "xn--www-hn0a" + rng.choice(_TLDS)
            builder = self._base_builder(spec, bad, bad)
            return builder, True, ("DNSName",)
        if defect == "idn_malformed":
            bad = "xn--" + "9" * rng.randrange(9, 14) + rng.choice(_TLDS)
            builder = self._base_builder(spec, bad, bad)
            return builder, True, ("DNSName",)
        if defect == "dns_bad_label_char":
            bad = f"bad_label{rng.randrange(100)}.example" + rng.choice(_TLDS)
            builder = self._base_builder(spec, bad, bad)
            return builder, False, ("DNSName",)
        if defect == "san_unpermitted_unichar":
            bad = f"te{rng.choice('中文русский')}st{rng.randrange(100)}.com"
            builder = self._base_builder(spec, bad, bad)
            return builder, True, ("DNSName",)
        if defect == "idn_not_nfc":
            # Punycode of a non-NFC (NFD) U-label.
            nfd = "cafe\u0301" + str(rng.randrange(10))
            bad = "xn--" + punycode.encode(nfd) + ".com"
            builder = self._base_builder(spec, bad, bad)
            return builder, True, ("DNSName",)
        if defect == "dn_control_chars":
            control = rng.choice(["\x00", "\x1b", "\x7f"])
            mangled = org[:4] + control + org[4:]
            builder = self._base_builder(spec, domain, domain)
            builder.subject_attr(OID_ORGANIZATION_NAME, mangled, UTF8_STRING)
            return builder, False, ("O",)
        if defect == "nul_interval_insertion":
            # "[NUL]C[NUL]&[NUL]I[NUL]S" -> "C&IS" (finding F4).
            text = rng.choice(["C&IS", "SMART", "PRIME"])
            mangled = "".join("\x00" + ch for ch in text)
            builder = self._base_builder(spec, domain, domain)
            builder.subject_attr(OID_ORGANIZATION_NAME, mangled, UTF8_STRING)
            return builder, False, ("O",)
        if defect == "printable_badalpha":
            builder = self._base_builder(spec, domain, domain)
            builder.subject_attr(OID_ORGANIZATION_NAME, f"Acme@{rng.randrange(10)}", PRINTABLE_STRING)
            return builder, False, ("O",)
        if defect == "trailing_whitespace":
            builder = self._base_builder(spec, domain, domain)
            builder.subject_attr(OID_ORGANIZATION_NAME, org + " ", UTF8_STRING)
            return builder, False, ("O",)
        if defect == "leading_whitespace":
            builder = self._base_builder(spec, domain, domain)
            builder.subject_attr(OID_ORGANIZATION_NAME, " " + org, UTF8_STRING)
            return builder, False, ("O",)
        if defect == "extra_cn":
            builder = self._base_builder(spec, domain, domain)
            builder.subject_cn(domain)  # duplicate CN
            return builder, False, ("DNSName",)
        if defect == "serial_not_printable":
            builder = self._base_builder(spec, domain, domain)
            builder.subject_attr(OID_SERIAL_NUMBER, str(rng.randrange(10**8)), UTF8_STRING)
            return builder, False, ("serialNumber",)
        if defect == "country_not_printable":
            builder = self._base_builder(spec, domain, domain)
            builder.subject_attr(OID_COUNTRY_NAME, spec.region if len(spec.region) == 2 else "US", UTF8_STRING)
            return builder, False, ("C",)
        if defect == "cp_text_too_long":
            builder = self._base_builder(spec, domain, domain)
            policy = PolicyInformation(
                OID_CP_DOMAIN_VALIDATED,
                qualifiers=[PolicyQualifier(OID_QT_UNOTICE, user_notice=UserNotice("Política " * 30, UTF8_STRING))],
            )
            builder.add_extension(certificate_policies(policy))
            return builder, False, ("CertificatePolicies",)
        if defect == "cp_text_ia5":
            builder = self._base_builder(spec, domain, domain)
            policy = PolicyInformation(
                OID_CP_DOMAIN_VALIDATED,
                qualifiers=[PolicyQualifier(OID_QT_UNOTICE, user_notice=UserNotice("Policy notice", IA5_STRING))],
            )
            builder.add_extension(certificate_policies(policy))
            return builder, False, ("CertificatePolicies",)
        if defect == "asn1_undecodable_subject":
            builder = self._base_builder(spec, domain, domain)
            builder.subject_attr(OID_ORGANIZATION_NAME, "", UTF8_STRING, raw=b"St\xf6ri AG")
            return builder, False, ("O",)
        # The *_bad_encoding family: DirectoryString attrs in BMP/Teletex.
        family = {
            "org_bad_encoding": (OID_ORGANIZATION_NAME, org, "O"),
            "cn_bad_encoding": (None, org, "CN"),
            "locality_bad_encoding": (OID_LOCALITY_NAME, city, "L"),
            "ou_bad_encoding": (OID_ORGANIZATIONAL_UNIT, org, "OU"),
            "state_bad_encoding": (OID_STATE_OR_PROVINCE, city, "ST"),
            "street_bad_encoding": (OID_STREET_ADDRESS, city, "street"),
            "postal_bad_encoding": (OID_POSTAL_CODE, str(rng.randrange(10000, 99999)), "postalCode"),
            "jurisdiction_locality_bad_encoding": (OID_JURISDICTION_LOCALITY, city, "jurisdictionL"),
            "jurisdiction_state_bad_encoding": (OID_JURISDICTION_STATE, city, "jurisdictionST"),
            "jurisdiction_country_bad_encoding": (OID_JURISDICTION_COUNTRY, "DE", "jurisdictionC"),
        }
        if defect in family:
            oid, value, label = family[defect]
            safe_value = value
            if bad_spec is TELETEX_STRING:
                # T.61 cannot carry CJK; stay within Latin-1.
                safe_value = "".join(ch for ch in value if ord(ch) < 0x100) or "Acme"
            if defect == "cn_bad_encoding":
                builder = (
                    CertificateBuilder()
                    .serial(self._next_serial())
                    .subject_cn(safe_value, spec=bad_spec)
                )
                builder.add_extension(subject_alt_name(GeneralName.dns(domain)))
                return builder, False, ("CN",)
            builder = self._base_builder(spec, domain, domain)
            builder.subject_attr(oid, safe_value, bad_spec)
            return builder, False, (label,)
        raise ValueError(f"unknown defect class {defect!r}")

    def _latent_builder(self, latent: str, spec: IssuerSpec, rng: random.Random):
        domain = self._random_ascii_domain()
        if latent == "latent_smtp_ascii_mailbox":
            builder = (
                CertificateBuilder()
                .serial(self._next_serial())
                .subject_cn(domain)
                .add_extension(
                    subject_alt_name(
                        GeneralName.dns(domain),
                        GeneralName.smtp_utf8_mailbox(f"admin{rng.randrange(999)}@{domain}"),
                    )
                )
            )
            return builder, ("RFC822Name",)
        if latent == "latent_whitespace":
            builder = self._base_builder(spec, domain, domain)
            builder.subject_attr(
                OID_ORGANIZATION_NAME, rng.choice(_ORG_WORDS) + " ", UTF8_STRING
            )
            return builder, ("O",)
        raise ValueError(f"unknown latent class {latent!r}")

    # -- assembly ----------------------------------------------------------

    def _ensure_ca(self, org: str, issuer_name: Name, spec: IssuerSpec) -> None:
        if org in self._ca_certs:
            return
        from ..x509 import basic_constraints

        ca_cert = (
            CertificateBuilder()
            .serial(self._next_serial())
            .subject_name(issuer_name)
            .not_before(_dt.datetime(2010, 1, 1))
            .validity_days(20 * 365)
            .add_extension(basic_constraints(ca=True))
            .sign(self._key_for(spec.org))
        )
        self._ca_certs[org] = ca_cert
        if spec.issuance_trust is TrustStatus.PUBLIC:
            self._trust_anchors.add(ca_cert.fingerprint())

    def _finalize(
        self,
        builder: CertificateBuilder,
        spec: IssuerSpec,
        year: int,
        is_idn: bool,
        noncompliant: bool,
    ) -> tuple[Certificate, _dt.datetime]:
        from ..asn1.oid import OID_AD_CA_ISSUERS
        from ..x509 import AccessDescription, authority_info_access

        issued_at = self._issue_date(year)
        builder.not_before(issued_at)
        builder.validity_days(self._validity_days(is_idn, noncompliant))
        issuer_name = self._issuer_name(spec)
        org = self._last_org
        self._ensure_ca(org, issuer_name, spec)
        builder.add_extension(
            authority_info_access(
                AccessDescription(OID_AD_CA_ISSUERS, GeneralName.uri(aia_url_for(org)))
            )
        )
        cert = builder.issuer_name(issuer_name).sign(self._key_for(spec.org))
        return cert, issued_at

    def _pick_nc_issuer(self, defect: str) -> IssuerSpec:
        """Sample an issuer for one noncompliant certificate."""
        if defect == "nul_interval_insertion":
            candidates = [s for s in ISSUERS if s.org in NUL_ISSUERS]
        elif defect in IDN_DEFECTS:
            pool = ISSUERS + OTHER_SPECS
            candidates = [s for s in pool if s.idn_only or "DNSName" in s.unicode_fields]
        else:
            pool = ISSUERS + OTHER_SPECS
            candidates = [s for s in pool if not s.idn_only]
        weights = [max(s.nc_count, 1) for s in candidates]
        return self._rng.choices(candidates, weights=weights)[0]

    def _pick_volume_issuer(self, exclude_idn_only: bool = False) -> IssuerSpec:
        pool = ISSUERS + OTHER_SPECS
        if exclude_idn_only:
            pool = [s for s in pool if not s.idn_only]
        return self._rng.choices(pool, weights=[s.volume for s in pool])[0]

    def generate(self) -> Corpus:
        """Build the full corpus: compliant + noncompliant + latent."""
        corpus = Corpus(scale=self.scale)

        # Noncompliant certificates, per the defect plan.
        for defect, paper_count, recent_fraction in DEFECT_PLAN:
            for _ in range(self._scaled(paper_count)):
                self._emit_nc(corpus, defect, recent_fraction)
        for defect, absolute_count in ABSOLUTE_DEFECTS:
            for _ in range(absolute_count):
                self._emit_nc(corpus, defect, 0.0)

        # Latent (pre-effective-date) certificates.
        for latent, paper_count in LATENT_PLAN:
            cutoff_year = 2023 if latent == "latent_smtp_ascii_mailbox" else 2014
            for _ in range(self._scaled(paper_count)):
                # Automated DV issuers never emit customized subject
                # attributes or mailboxes, so latent defect classes go
                # to full-service issuers only.
                spec = self._pick_volume_issuer(exclude_idn_only=True)
                builder, fields = self._latent_builder(latent, spec, self._rng)
                year = self._rng.randrange(2013, cutoff_year + 1)
                cert, issued_at = self._finalize(builder, spec, year, False, False)
                corpus.records.append(
                    CorpusRecord(
                        certificate=cert,
                        issuer_org=self._last_org,
                        region=spec.region,
                        issuance_trust=spec.issuance_trust,
                        current_trust=spec.current_trust,
                        issued_at=issued_at,
                        latent=latent,
                        unicode_fields=fields,
                    )
                )

        # Compliant Unicerts fill the remaining volume.
        target_total = self._scaled(PAPER_TOTAL_UNICERTS)
        while len(corpus.records) < target_total:
            spec = self._pick_volume_issuer()
            builder, is_idn, fields = self._compliant_builder(spec, self._rng)
            year = self._sample_year(YEAR_WEIGHTS)
            cert, issued_at = self._finalize(builder, spec, year, is_idn, False)
            corpus.records.append(
                CorpusRecord(
                    certificate=cert,
                    issuer_org=self._last_org,
                    region=spec.region,
                    issuance_trust=spec.issuance_trust,
                    current_trust=spec.current_trust,
                    issued_at=issued_at,
                    is_idn=is_idn,
                    unicode_fields=fields,
                )
            )
        self._rng.shuffle(corpus.records)
        corpus.ca_certificates = dict(self._ca_certs)
        corpus.trust_anchors = set(self._trust_anchors)
        return corpus

    _last_org: str = ""

    def _emit_nc(self, corpus: Corpus, defect: str, recent_fraction: float) -> None:
        spec = self._pick_nc_issuer(defect)
        builder, is_idn, fields = self._defect_builder(defect, spec, self._rng)
        recent = self._rng.random() < recent_fraction
        year = self._sample_year(NC_YEAR_WEIGHTS, recent=recent)
        cert, issued_at = self._finalize(builder, spec, year, is_idn, True)
        corpus.records.append(
            CorpusRecord(
                certificate=cert,
                issuer_org=self._last_org,
                region=spec.region,
                issuance_trust=spec.issuance_trust,
                current_trust=spec.current_trust,
                issued_at=issued_at,
                defect=defect,
                is_idn=is_idn,
                unicode_fields=fields,
            )
        )
