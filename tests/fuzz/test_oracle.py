"""Unit tests for the differential oracle and its coverage map."""

import pytest

from repro.asn1.tags import UniversalTag
from repro.fuzz.mutators import MutantSpec, encode_text
from repro.fuzz.oracle import (
    LIBRARIES,
    CoverageMap,
    Observation,
    baseline_coverage,
    baseline_specs,
    evaluate,
    evaluate_batch,
    evaluate_batch_timed,
    fingerprint_of,
    value_classes,
)

UTF8 = int(UniversalTag.UTF8_STRING)
BMP = int(UniversalTag.BMP_STRING)
IA5 = int(UniversalTag.IA5_STRING)


def dn(value: bytes, tag: int = UTF8) -> MutantSpec:
    return MutantSpec(context="dn", field="subject:CN", tag=tag, value=value)


def gn(value: bytes) -> MutantSpec:
    return MutantSpec(context="gn", field="san:dns", tag=IA5, value=value)


class TestVector:
    def test_nine_columns_in_profile_order(self):
        observation = evaluate(dn(b"plain"))
        assert len(observation.vector) == len(LIBRARIES) == 9
        assert LIBRARIES[0] == "OpenSSL"

    def test_ascii_dn_value_is_all_agrees(self):
        observation = evaluate(dn(b"plain"))
        assert observation.vector == ("A",) * 9

    def test_gn_unsupported_columns(self):
        # OpenSSL and BouncyCastle expose no SAN decoding surface.
        observation = evaluate(gn(b"test.com"))
        unsupported = {
            lib
            for lib, sym in zip(LIBRARIES, observation.vector)
            if sym == "-"
        }
        assert unsupported == {"OpenSSL", "BouncyCastle"}

    def test_partition_letters_group_equal_outputs(self):
        # A latin-1 high byte under IA5String splits the libraries into
        # Latin-1-decoders vs UTF-8-replacers vs rejecters; libraries
        # in the same group must share a letter.
        observation = evaluate(dn(b"high\xffbyte", tag=IA5))
        by_symbol = {}
        for lib, sym in zip(LIBRARIES, observation.vector):
            by_symbol.setdefault(sym, []).append(lib)
        lowercase = [s for s in by_symbol if s.islower()]
        assert lowercase, "expected at least one divergence partition"

    def test_disagreement_flag(self):
        assert not evaluate(dn(b"plain")).disagreement
        assert evaluate(dn(b"high\xffbyte", tag=IA5)).disagreement

    def test_unsupported_only_is_not_disagreement(self):
        observation = Observation(
            fingerprint=("dn", "X", ()), vector=("-",) * 8 + ("E",)
        )
        assert not observation.disagreement


class TestFingerprint:
    def test_classes_for_plain_ascii_empty(self):
        assert value_classes(dn(b"plain")) == ()

    def test_classes_for_empty_value(self):
        assert value_classes(dn(b"")) == ("empty",)

    def test_classes_for_astral_utf8(self):
        value = encode_text(UTF8, "\U0001f600")
        assert "astral" in value_classes(dn(value, tag=UTF8))

    def test_astral_in_bmpstring_is_undecodable(self):
        # BMPString's standard decode is strict UCS-2: a surrogate pair
        # is a decode error, not an astral character (Table 4's
        # over-tolerance rows come from the *profiles*, not the
        # reference).
        value = encode_text(BMP, "\U0001f600")
        classes = value_classes(dn(value, tag=BMP))
        assert "undecodable" in classes

    def test_classes_for_undecodable(self):
        classes = value_classes(dn(b"\xc1\xa1"))  # overlong UTF-8
        assert "undecodable" in classes
        assert "high-byte" in classes

    def test_classes_for_invalid_punycode(self):
        classes = value_classes(dn(b"xn--0.com", tag=IA5))
        assert "xn-label" in classes
        assert "xn-invalid" in classes

    def test_fingerprint_ignores_mutation_history(self):
        spec = dn(b"plain")
        with_ops = MutantSpec(
            context="dn",
            field="subject:CN",
            tag=UTF8,
            value=b"plain",
            ops=("byte-flip",),
        )
        assert fingerprint_of(spec) == fingerprint_of(with_ops)


class TestCoverageMap:
    def test_observe_reports_novelty_once(self):
        coverage = CoverageMap()
        observation = evaluate(dn(b"plain"))
        assert coverage.observe(observation) is True
        assert coverage.observe(observation) is False
        assert len(coverage) == 1

    def test_disagreement_cells_counted(self):
        coverage = CoverageMap()
        coverage.observe(evaluate(dn(b"plain")))
        coverage.observe(evaluate(dn(b"high\xffbyte", tag=IA5)))
        assert coverage.disagreement_cells == 1

    def test_baseline_contains_tables_4_and_5(self):
        specs = baseline_specs()
        contexts = {spec.context for spec in specs}
        assert contexts == {"dn", "gn"}
        assert any(spec.value == b"evil\x01name.com" for spec in specs)
        coverage = baseline_coverage()
        assert len(coverage) > 0

    def test_baseline_marks_known_cells_as_seen(self):
        coverage = baseline_coverage()
        for spec in baseline_specs():
            assert coverage.observe(evaluate(spec)) is False


class TestBatch:
    def test_batch_preserves_order(self):
        specs = [dn(b"plain"), gn(b"test.com"), dn(b"")]
        observations = evaluate_batch(specs)
        assert observations == [evaluate(spec) for spec in specs]

    def test_timed_batch_matches_and_accounts(self):
        specs = [dn(b"plain"), dn(b"high\xffbyte", tag=IA5)]
        observations, timings = evaluate_batch_timed(specs)
        assert observations == evaluate_batch(specs)
        assert timings.items.get("evaluate") == 2
        assert timings.wall.get("evaluate", 0.0) >= 0.0
