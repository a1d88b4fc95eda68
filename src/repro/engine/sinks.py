"""Sink stage: fold per-shard results into one run outcome.

:func:`merge_shard_results` is the exact :class:`CorpusSummary` merge
over per-shard results (Tables 1/11 aggregation), preserving corpus
order for per-certificate outputs.  Those outputs — report objects, or
the ``repro lint`` JSON and text bodies
(:func:`repro.lint.serialization.report_to_json`,
:func:`~repro.lint.serialization.render_text_report`) — are rendered in
the worker by :func:`repro.lint.parallel.lint_shard`, where the decoded
certificate is.
"""

from __future__ import annotations

from typing import Iterable

from ..lint.parallel import ParallelLintOutcome, ShardOutput, ShardResult
from ..lint.runner import CorpusSummary


def merge_shard_results(
    results: Iterable[ShardResult],
    jobs: int,
    output: ShardOutput = ShardOutput.SUMMARY,
) -> ParallelLintOutcome:
    """Fold per-shard results into one exact corpus outcome.

    Results are re-ordered by shard index before merging, so streaming
    completion order (``as_completed``) never leaks into the output —
    the merge algebra plus this canonical ordering is what makes
    ``--jobs N`` byte-identical to ``--jobs 1``.  ``reports`` holds every
    shard's outputs in corpus order, or ``None`` for
    ``ShardOutput.SUMMARY``.
    """
    ordered = sorted(results, key=lambda r: r.index)
    summary = CorpusSummary.merged(r.summary for r in ordered)
    reports = None
    if output is not ShardOutput.SUMMARY:
        reports = [report for shard in ordered for report in shard.reports or []]
    return ParallelLintOutcome(
        summary=summary, reports=reports, jobs=jobs, shards=len(ordered)
    )
