"""Statistical validation of the corpus generator's calibration.

Uses scipy to test that the generator's samples actually follow the
configured marginals (year weights, validity mixes, NC rate) rather
than merely eyeballing counts — the corpus is only a valid stand-in for
the paper's dataset if its distributions are right.
"""

import math

import pytest
from scipy import stats

from repro.ct.corpus import (
    CorpusGenerator,
    PAPER_TOTAL_NC,
    PAPER_TOTAL_UNICERTS,
    NC_YEAR_WEIGHTS,
    YEAR_WEIGHTS,
)

SCALE = 1 / 5000  # ~7K records: large enough for distribution tests


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=77, scale=SCALE).generate()


class TestYearDistribution:
    def test_compliant_years_match_weights(self, corpus):
        observed: dict[int, int] = {}
        for record in corpus.compliant_planted:
            observed[record.issued_at.year] = observed.get(record.issued_at.year, 0) + 1
        total = sum(observed.values())
        years = sorted(YEAR_WEIGHTS)
        weight_sum = sum(YEAR_WEIGHTS.values())
        expected = [YEAR_WEIGHTS[y] / weight_sum * total for y in years]
        counts = [observed.get(y, 0) for y in years]
        # Merge tiny-expectation bins (chi-square validity condition).
        merged_obs, merged_exp = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(counts, expected):
            acc_o += o
            acc_e += e
            if acc_e >= 5:
                merged_obs.append(acc_o)
                merged_exp.append(acc_e)
                acc_o = acc_e = 0.0
        if acc_e:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        result = stats.chisquare(merged_obs, merged_exp)
        assert result.pvalue > 0.001, f"year distribution drifted: p={result.pvalue:.2g}"

    def test_nc_years_use_nc_weights(self, corpus):
        # NC certs are older-heavy: their mean year is below the
        # compliant mean (the Figure 2 divergence).
        nc_years = [r.issued_at.year for r in corpus.noncompliant_planted]
        ok_years = [r.issued_at.year for r in corpus.compliant_planted]
        assert sum(nc_years) / len(nc_years) < sum(ok_years) / len(ok_years)


class TestNCRate:
    def test_nc_count_within_binomial_interval(self, corpus):
        # The planted NC count should be consistent with the scaled
        # plan as a Poisson-binomial draw (within 5 sigma).
        expected = PAPER_TOTAL_NC * SCALE * 1.35  # plan overshoot factor
        observed = len(corpus.noncompliant_planted)
        sigma = math.sqrt(expected)
        assert abs(observed - expected) < 5 * sigma

    def test_total_within_interval(self, corpus):
        expected = PAPER_TOTAL_UNICERTS * SCALE
        assert abs(len(corpus.records) - expected) / expected < 0.02


class TestValidityDistributions:
    def test_idn_90_day_share_binomial(self, corpus):
        idn = [r for r in corpus.compliant_planted if r.is_idn]
        short = sum(1 for r in idn if r.certificate.validity_days <= 90)
        # Two-sided binomial test against the calibrated 89.6%.
        result = stats.binomtest(short, len(idn), p=0.896)
        assert result.pvalue > 0.001

    def test_nc_long_tail_heavier(self, corpus):
        # Mann-Whitney U: NC validity periods stochastically dominate
        # compliant IDN ones.
        nc_days = [r.certificate.validity_days for r in corpus.noncompliant_planted]
        idn_days = [
            r.certificate.validity_days
            for r in corpus.compliant_planted
            if r.is_idn
        ]
        result = stats.mannwhitneyu(nc_days, idn_days, alternative="greater")
        assert result.pvalue < 1e-6


class TestSeedIndependence:
    def test_two_seeds_same_marginals(self):
        a = CorpusGenerator(seed=1, scale=1 / 20000).generate()
        b = CorpusGenerator(seed=2, scale=1 / 20000).generate()
        rate_a = len(a.noncompliant_planted) / len(a.records)
        rate_b = len(b.noncompliant_planted) / len(b.records)
        assert abs(rate_a - rate_b) < 0.01
