"""The CT-monitor-misleading experiment (Section 6.1).

A malicious or compromised CA issues a certificate for a victim domain
crafted so the domain owner's monitor queries do not surface it, even
though it is correctly logged.  The experiment crafts one forged
certificate per concealment technique, indexes everything in each
monitor model, replays the queries a vigilant domain owner would run,
and reports which (monitor, technique) pairs conceal the forgery.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

from ..ct.monitors import ALL_MONITORS, CTMonitor
from ..uni import punycode
from ..x509.builder import CertificateBuilder
from ..x509.certificate import Certificate
from ..x509.extensions import subject_alt_name
from ..x509.general_name import GeneralName
from ..x509.keys import SimPrivateKey, generate_keypair

#: The concealment techniques the paper's P1.2-P1.4 findings enable.
TECHNIQUES = (
    "nul_in_cn",
    "space_in_cn",
    "slash_suffix_cn",
    "zero_width_label",
    "subdomain_variant",
    "case_variation",
)


def craft_forged_certificates(
    victim_domain: str,
    key: SimPrivateKey | None = None,
) -> dict[str, Certificate]:
    """One forged certificate per concealment technique."""
    key = key or generate_keypair(seed=f"forge:{victim_domain}")
    when = _dt.datetime(2024, 9, 1)

    def build(cn: str, san: str) -> Certificate:
        return (
            CertificateBuilder()
            .subject_cn(cn)
            .not_before(when)
            .validity_days(90)
            .add_extension(subject_alt_name(GeneralName.dns(san)))
            .sign(key)
        )

    head, _, tail = victim_domain.partition(".")
    zero_width_label = head + "​"  # ZERO WIDTH SPACE
    zero_width_alabel = "xn--" + punycode.encode(zero_width_label)
    return {
        # NUL byte splits the CN for naive indexers.
        "nul_in_cn": build(f"{victim_domain}\x00.attacker.com", victim_domain + "\x00x"),
        # SSLMate ignores CNs containing spaces.
        "space_in_cn": build(f"{victim_domain} ", f"{victim_domain} "),
        # SSLMate indexes only the substring before '/'.
        "slash_suffix_cn": build(f"{victim_domain}/forged", f"{victim_domain}/forged"),
        # Deceptive IDN: victim label plus an invisible character.
        "zero_width_label": build(
            f"{zero_width_alabel}.{tail}", f"{zero_width_alabel}.{tail}"
        ),
        # Exact-match monitors miss sub-domain variants.
        "subdomain_variant": build(
            f"login.{victim_domain}", f"login.{victim_domain}"
        ),
        # Case variation — defeated everywhere (P1.1), kept as control.
        "case_variation": build(victim_domain.upper(), victim_domain.upper()),
    }


@dataclass
class ConcealmentResult:
    """One (monitor, technique) outcome."""

    monitor: str
    technique: str
    concealed: bool
    query_refused: bool
    detail: str = ""


def owner_queries(victim_domain: str) -> list[str]:
    """The queries a vigilant domain owner runs against a monitor."""
    return [victim_domain]


def run_experiment(
    victim_domain: str = "victim.example.com",
    monitors: list[CTMonitor] | None = None,
) -> list[ConcealmentResult]:
    """Execute the full Section 6.1 experiment."""
    monitors = monitors if monitors is not None else ALL_MONITORS()
    forged = craft_forged_certificates(victim_domain)
    results: list[ConcealmentResult] = []
    for monitor in monitors:
        entry_ids = {
            technique: monitor.submit(cert) for technique, cert in forged.items()
        }
        # A handful of benign certificates as background noise.
        noise_key = generate_keypair(seed="noise")
        for i in range(3):
            monitor.submit(
                CertificateBuilder()
                .subject_cn(f"benign{i}.example.net")
                .not_before(_dt.datetime(2024, 1, 1))
                .add_extension(
                    subject_alt_name(GeneralName.dns(f"benign{i}.example.net"))
                )
                .sign(noise_key)
            )
        for technique, entry_id in entry_ids.items():
            found = False
            refused = False
            for query in owner_queries(victim_domain):
                result = monitor.search(query)
                refused = refused or result.refused
                if entry_id in result.matches:
                    found = True
            results.append(
                ConcealmentResult(
                    monitor=monitor.name,
                    technique=technique,
                    concealed=not found,
                    query_refused=refused,
                )
            )
    return results


def concealment_matrix(results: list[ConcealmentResult]) -> dict[str, dict[str, bool]]:
    """Pivot results into {technique: {monitor: concealed}}."""
    matrix: dict[str, dict[str, bool]] = {}
    for result in results:
        matrix.setdefault(result.technique, {})[result.monitor] = result.concealed
    return matrix


#: The Table 6 feature columns, in paper order.
TABLE6_COLUMNS = (
    "case_insensitive",
    "unicode_search",
    "fuzzy_search",
    "ulabel_check",
    "punycode_idn",
    "punycode_idn_cctld",
    "fails_special_unicode",
)


def derive_monitor_matrix(
    monitors: list[CTMonitor] | None = None,
) -> dict[str, dict[str, bool]]:
    """Re-derive the Table 6 feature matrix by black-box probing.

    Like the differential TLS harness, this only exercises each
    monitor's public submit/search API; the configuration is inferred
    from observable behaviour, not read from the model.
    """
    import datetime as dt

    from ..x509.builder import CertificateBuilder
    from ..x509.extensions import subject_alt_name
    from ..x509.keys import generate_keypair

    key = generate_keypair(seed="probe")

    def cert(cn: str, san: str | None = None) -> Certificate:
        return (
            CertificateBuilder()
            .subject_cn(cn)
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(
                subject_alt_name(GeneralName.dns(san if san is not None else cn))
            )
            .sign(key)
        )

    matrix: dict[str, dict[str, bool]] = {}
    for monitor in monitors if monitors is not None else ALL_MONITORS():
        features: dict[str, bool] = {}
        # Case handling (P1.1).
        monitor.submit(cert("Probe-Case.Example.COM"))
        features["case_insensitive"] = bool(monitor.search("probe-case.example.com").matches)
        # Unicode search support: can a raw multilingual field value be
        # retrieved with a Unicode query (not an IDN conversion)?
        monitor.submit(cert("Ästhetik Praxis Münster"))
        unicode_result = monitor.search("Ästhetik Praxis Münster")
        features["unicode_search"] = bool(unicode_result.matches) and not unicode_result.refused
        # Fuzzy search (P1.2).
        monitor.submit(cert("deep.probe-fuzzy.example.com"))
        features["fuzzy_search"] = bool(monitor.search("probe-fuzzy.example.com").matches)
        # U-label validation (P1.3): deceptive A-label query refused?
        features["ulabel_check"] = monitor.search("xn--www-hn0a.example.com").refused
        # Punycode support.
        monitor.submit(cert("xn--fiqs8s.example.com"))
        features["punycode_idn"] = bool(monitor.search("xn--fiqs8s.example.com").matches)
        # Punycode ccTLD (Entrust's gap).
        monitor.submit(cert("probe.xn--p1ai"))
        cctld = monitor.search("probe.xn--p1ai")
        features["punycode_idn_cctld"] = bool(cctld.matches) and not cctld.refused
        # Special-Unicode indexing failures (P1.4).
        monitor.submit(cert("probe\x00special.example.com", san="probe\x00special.example.com"))
        features["fails_special_unicode"] = not bool(
            monitor.search("probe\x00special.example.com").matches
        )
        matrix[monitor.name] = features
    return matrix
