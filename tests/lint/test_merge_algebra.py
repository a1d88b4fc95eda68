"""Property tests for the ``CorpusSummary.merge`` algebra.

The incremental engine's windowed aggregation silently depends on
``merge`` being a commutative monoid over summaries: tumbling windows
fold batches in arrival order, checkpoint resume replays a prefix, and
the equivalence proofs compare against one-shot runs that sharded the
same records completely differently.  These properties pin all three
laws — identity, commutativity, associativity — over randomized shard
splits of real lint reports, in the canonical byte-comparison form
(:func:`summary_to_json`).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ct.corpus import CorpusGenerator
from repro.engine.pipeline import run_corpus
from repro.lint.parallel import ShardOutput
from repro.lint.runner import CorpusSummary
from repro.lint.serialization import summary_to_json


@pytest.fixture(scope="module")
def reports():
    corpus = CorpusGenerator(seed=23, scale=0.00001).generate()
    outcome = run_corpus(corpus, jobs=1, output=ShardOutput.REPORTS)
    return outcome.reports


@pytest.fixture(scope="module")
def reference(reports):
    return summary_to_json(CorpusSummary.from_reports(reports))


def _summaries_for(reports, cut_points):
    """Per-shard summaries over the split induced by ``cut_points``."""
    bounds = [0, *sorted(cut_points), len(reports)]
    shards = []
    for start, stop in zip(bounds, bounds[1:]):
        shards.append(CorpusSummary.from_reports(reports[start:stop]))
    return shards


@st.composite
def cut_point_sets(draw, max_size=6):
    count = draw(st.integers(min_value=0, max_value=max_size))
    return draw(
        st.sets(
            st.integers(min_value=0, max_value=340),
            min_size=count,
            max_size=count,
        )
    )


class TestMergeLaws:
    @settings(max_examples=25, deadline=None)
    @given(cuts=cut_point_sets())
    def test_any_shard_split_merges_to_the_sequential_summary(
        self, reports, reference, cuts
    ):
        shards = _summaries_for(reports, cuts)
        assert summary_to_json(CorpusSummary.merged(shards)) == reference

    @settings(max_examples=25, deadline=None)
    @given(cuts=cut_point_sets(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_commutativity_any_permutation_merges_identically(
        self, reports, reference, cuts, seed
    ):
        import random

        shards = _summaries_for(reports, cuts)
        random.Random(seed).shuffle(shards)
        assert summary_to_json(CorpusSummary.merged(shards)) == reference

    @settings(max_examples=25, deadline=None)
    @given(
        cuts=cut_point_sets(max_size=5),
        pivot=st.integers(min_value=0, max_value=6),
    )
    def test_associativity_any_grouping_merges_identically(
        self, reports, reference, cuts, pivot
    ):
        shards = _summaries_for(reports, cuts)
        pivot = min(pivot, len(shards))
        left = CorpusSummary.merged(shards[:pivot])
        right = CorpusSummary.merged(shards[pivot:])
        assert summary_to_json(left.merge(right)) == reference

    @settings(max_examples=10, deadline=None)
    @given(cuts=cut_point_sets(max_size=3))
    def test_identity_empty_summary_is_neutral_on_both_sides(
        self, reports, reference, cuts
    ):
        shards = _summaries_for(reports, cuts)
        folded = CorpusSummary()
        for shard in shards:
            folded.merge(shard)
            folded.merge(CorpusSummary())
        seeded = CorpusSummary()
        seeded.merge(CorpusSummary())
        for shard in shards:
            seeded.merge(shard)
        assert summary_to_json(folded) == reference
        assert summary_to_json(seeded) == reference
