"""Full differential-testing campaign (the paper's RQ2 measurement).

Runs the Section 3.2 test-Unicert generator across the nine parser
profiles, collecting per-(field, string type, library) anomaly counts:
parse failures, silent acceptance of out-of-charset characters, and
value mismatches between libraries (the differential signal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asn1.strings import spec_for_tag
from ..testgen.generator import TestCase, TestCertGenerator
from ..x509.general_name import GeneralNameKind
from .base import ParseOutcome, ParserProfile
from .profiles import ALL_PROFILES


@dataclass
class AnomalyCounts:
    """Counters for one (field, spec, library) cell."""

    cases: int = 0
    parse_failures: int = 0
    silent_acceptances: int = 0
    value_mismatches: int = 0

    @property
    def anomalies(self) -> int:
        return self.parse_failures + self.silent_acceptances + self.value_mismatches


@dataclass
class CampaignReport:
    """Aggregated campaign results."""

    cells: dict[tuple[str, str, str], AnomalyCounts] = field(default_factory=dict)
    total_cases: int = 0

    def cell(self, field_name: str, spec_name: str, library: str) -> AnomalyCounts:
        key = (field_name, spec_name, library)
        if key not in self.cells:
            self.cells[key] = AnomalyCounts()
        return self.cells[key]

    def per_library(self) -> dict[str, AnomalyCounts]:
        totals: dict[str, AnomalyCounts] = {}
        for (_field, _spec, library), counts in self.cells.items():
            agg = totals.setdefault(library, AnomalyCounts())
            agg.cases += counts.cases
            agg.parse_failures += counts.parse_failures
            agg.silent_acceptances += counts.silent_acceptances
            agg.value_mismatches += counts.value_mismatches
        return totals

    def libraries_with_anomalies(self) -> list[str]:
        return sorted(
            library
            for library, counts in self.per_library().items()
            if counts.anomalies
        )


def _profile_outcome(profile: ParserProfile, case: TestCase) -> ParseOutcome:
    """Parse the mutated field of ``case`` with one profile."""
    cert = case.certificate
    if case.field.startswith("subject:"):
        attr = cert.subject.attributes()[0]
        raw = attr.raw if attr.raw is not None else attr.spec.encode(attr.value, strict=False)
        return profile.decode_dn_attribute(attr.spec.tag_number, raw)
    san = cert.san
    if san is None or not san.names:
        return ParseOutcome(error="no SAN")
    return profile.decode_gn(san.names[0].raw or b"")


def _in_standard_charset(case: TestCase) -> bool:
    """Whether the mutated character is legal for the declared type."""
    from ..asn1.strings import STRING_SPECS_BY_NAME

    if case.field.startswith("san:"):
        # GeneralName alternatives are IA5String on the wire.
        return ord(case.char) <= 0x7F
    spec = STRING_SPECS_BY_NAME[case.spec_name]
    return spec.allowed(case.char)


def run_campaign(
    profiles: list[ParserProfile] | None = None,
    chars: list[str] | None = None,
    fields: str = "both",
    seed: int = 0,
) -> CampaignReport:
    """Execute the differential campaign.

    ``chars`` defaults to a compact probe set; pass
    :func:`repro.testgen.generator.sample_characters` output for the paper's full
    sweep (U+0000..U+00FF plus one char per Unicode block).
    """
    profiles = profiles if profiles is not None else ALL_PROFILES
    if chars is None:
        chars = [chr(cp) for cp in (0x00, 0x01, 0x0A, 0x20, 0x40, 0x7F, 0xE9, 0xFF)]
        chars += ["中", "Ω", "я", "‮", "​"]
    generator = TestCertGenerator(seed=seed)
    report = CampaignReport()

    cases: list[TestCase] = []
    if fields in ("subject", "both"):
        cases.extend(generator.iter_subject_cases(chars=chars))
    if fields in ("gn", "both"):
        cases.extend(generator.iter_gn_cases(chars=chars))

    for case in cases:
        report.total_cases += 1
        outcomes = {
            profile.name: _profile_outcome(profile, case) for profile in profiles
        }
        ok_values = {
            outcome.text for outcome in outcomes.values() if outcome.ok
        }
        legal = _in_standard_charset(case)
        for profile in profiles:
            outcome = outcomes[profile.name]
            cell = report.cell(case.field, case.spec_name, profile.name)
            cell.cases += 1
            if not outcome.ok:
                if legal:
                    cell.parse_failures += 1
                continue
            if not legal and outcome.text == case.value:
                # Out-of-charset character accepted verbatim: no error,
                # no escaping, no replacement.
                cell.silent_acceptances += 1
            if len(ok_values) > 1 and outcome.text != case.value:
                cell.value_mismatches += 1
    return report
