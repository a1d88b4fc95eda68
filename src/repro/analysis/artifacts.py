"""Text renderings of the paper artifacts the linter's verdicts drive.

Table 1, Table 11, Figure 4 and the three ablations are rendered here,
once: the artifact benchmarks (``benchmarks/``, at the default scale)
and the tier-1 twin (``tests/analysis/test_artifact_twin.py``, at a
small committed scale) write the same lines from the same code.  Each
function returns the artifact's lines; the ablations also return the
counts the benchmarks assert on.
"""

from __future__ import annotations

from ..engine.windows import FIELD_COLUMNS
from ..lint.framework import REGISTRY, NoncomplianceType
from ..lint.runner import run_lints
from .compliance import Table1


def table1_lines(corpus, table: Table1) -> list[str]:
    """Table 1: the noncompliance taxonomy (``table1_taxonomy.txt``)."""
    lines = [
        "Table 1: Overview of noncompliance types "
        f"(scale={corpus.scale:g}, n={table.total_certs})",
        f"{'Type':<22}{'#Lints':>8}{'(New)':>7}{'#NC':>7}{'(New)':>7}"
        f"{'Error':>7}{'Warn':>7}{'Trusted':>9}{'Recent':>8}{'Alive':>7}",
    ]
    for nc_type in NoncomplianceType:
        row = table.rows[nc_type]
        lines.append(
            f"{nc_type.value:<22}{row.lints_total:>8}{row.lints_new:>7}"
            f"{row.nc_certs:>7}{row.nc_certs_new_lints:>7}"
            f"{row.error_level:>7}{row.warning_level:>7}"
            f"{row.trusted_share:>8.1%}{row.recent:>8}{row.alive:>7}"
        )
    lines += [
        f"{'All':<22}{95:>8}{50:>7}{table.nc_certs:>7}"
        f"{'':>7}{table.nc_error_level:>7}{table.nc_warning_level:>7}"
        f"{table.trusted_share:>8.1%}{table.nc_recent:>8}{table.nc_alive:>7}",
        "",
        f"NC rate: {table.nc_rate:.2%} (paper: 0.72%)",
        f"Trusted share of NC: {table.trusted_share:.1%} (paper: 65.3%)",
        f"Limited-trust share: {table.limited_share:.1%} (paper: 21.1%)",
        f"NC ignoring effective dates: {table.nc_certs_ignoring_dates} "
        f"vs {table.nc_certs} (paper: 1.8M vs 249.3K, ~7.2x)",
    ]
    return lines


def table11_lines(ranked: list[tuple[str, int]]) -> list[str]:
    """Table 11: the top lints by NC certificates (``table11_top_lints.txt``)."""
    lines = [
        "Table 11: Top lints identifying noncompliant cases",
        f"{'Lint':<58}{'Type':<20}{'New':>4}{'#NC':>7}",
    ]
    for name, count in ranked:
        meta = REGISTRY.get(name).metadata
        lines.append(
            f"{name:<58}{meta.nc_type.value:<20}{'yes' if meta.new else 'no':>4}{count:>7}"
        )
    return lines


def fig4_lines(matrix) -> list[str]:
    """Figure 4: Unicode content and deviations per (issuer, field)
    (``fig4_field_matrix.txt``)."""
    lines = [
        "Figure 4: internationalized content per (issuer, field)",
        "Legend: '.' Unicode content, '+' deviation from standards, ' ' neither",
        f"{'Issuer':<34}" + "".join(f"{col[:10]:>12}" for col in FIELD_COLUMNS),
    ]
    for issuer in matrix.issuers[:15]:
        lines.append(
            f"{issuer[:33]:<34}"
            + "".join(f"{matrix.cell(issuer, col).marker:>12}" for col in FIELD_COLUMNS)
        )
    return lines


def ablation_new_lints(corpus) -> tuple[list[str], tuple[int, int, int]]:
    """The 50 new lints' share of detection (``ablation_new_lints.txt``).

    Returns the lines and ``(NC certificates, NC with a new-lint
    finding, NC that only new lints find)``.
    """
    old_names = {l.metadata.name for l in REGISTRY.all() if not l.metadata.new}
    new_names = {l.metadata.name for l in REGISTRY.all() if l.metadata.new}
    nc_full = detected_by_new = unique_new = 0
    for record in corpus.records:
        report = run_lints(record.certificate, issued_at=record.issued_at)
        if not report.noncompliant:
            continue
        nc_full += 1
        fired = set(report.fired_lints())
        if fired & new_names:
            detected_by_new += 1
            if not fired & old_names:
                # Invisible to pre-existing linters entirely.
                unique_new += 1
    share = detected_by_new / nc_full if nc_full else 0
    unique_share = unique_new / nc_full if nc_full else 0
    lines = [
        "Ablation: contribution of the 50 new lints",
        f"NC Unicerts (full registry): {nc_full}",
        f"NC with >=1 new-lint finding: {detected_by_new} ({share:.1%}; paper: 33.3%)",
        f"NC invisible to pre-existing lints: {unique_new} ({unique_share:.1%})",
    ]
    return lines, (nc_full, detected_by_new, unique_new)


def ablation_effective_dates(corpus) -> tuple[list[str], tuple[int, int]]:
    """NC with and without effective-date gating
    (``ablation_effective_dates.txt``); returns the lines and the two
    counts."""
    gated = ungated = 0
    for record in corpus.records:
        with_dates = run_lints(record.certificate, issued_at=record.issued_at)
        without_dates = run_lints(
            record.certificate,
            issued_at=record.issued_at,
            respect_effective_dates=False,
        )
        gated += with_dates.noncompliant
        ungated += without_dates.noncompliant
    lines = [
        "Ablation: effective-date gating",
        f"NC with effective dates: {gated}",
        f"NC without: {ungated} ({ungated / max(gated, 1):.1f}x; paper: 249.3K -> 1.8M, 7.2x)",
    ]
    return lines, (gated, ungated)


def ablation_severity(corpus) -> tuple[list[str], tuple[int, int]]:
    """NC at any level versus error level (``ablation_severity.txt``);
    returns the lines and the two counts."""
    any_finding = error_only = 0
    for record in corpus.records:
        report = run_lints(record.certificate, issued_at=record.issued_at)
        if report.noncompliant:
            any_finding += 1
            if report.has_error_level():
                error_only += 1
    lines = [
        "Ablation: severity levels",
        f"NC at any level: {any_finding}",
        f"NC with error-level findings: {error_only} "
        f"({error_only / max(any_finding, 1):.1%}; paper: 73.8% error-level)",
    ]
    return lines, (any_finding, error_only)
