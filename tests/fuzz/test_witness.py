"""Witness corpus tests: DER round-trips, file format, replay."""

import json
import os
from pathlib import Path

import pytest

from repro.asn1.tags import UniversalTag
from repro.fuzz.mutators import MutantSpec, encode_text
from repro.fuzz.oracle import evaluate
from repro.fuzz.witness import (
    Witness,
    build_witness_der,
    cell_hash,
    extract_spec,
    load_witnesses,
    replay_witness,
    replay_witnesses,
    witness_from_spec,
    write_witness,
)

UTF8 = int(UniversalTag.UTF8_STRING)
BMP = int(UniversalTag.BMP_STRING)
IA5 = int(UniversalTag.IA5_STRING)


def dn(value: bytes, tag: int = UTF8) -> MutantSpec:
    return MutantSpec(context="dn", field="subject:CN", tag=tag, value=value)


def gn(value: bytes, field: str = "san:dns") -> MutantSpec:
    return MutantSpec(context="gn", field=field, tag=IA5, value=value)


class TestDERRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            dn(b"plain"),
            dn(b"high\xffbyte", tag=IA5),
            dn(b"\xc1\xa1"),  # undecodable UTF-8
            dn(encode_text(BMP, "\U0001f600"), tag=BMP),
            dn(b"", tag=BMP),
            gn(b"evil\x01name.com"),
            gn(b"user@\xfftest.com", field="san:rfc822"),
            gn(b""),
        ],
        ids=lambda s: f"{s.context}-{s.tag}-{len(s.value)}",
    )
    def test_octets_survive_build_and_extract(self, spec):
        der = build_witness_der(spec)
        recovered = extract_spec(der, spec.context, spec.field)
        assert recovered.value == spec.value
        if spec.context == "dn":
            assert recovered.tag == spec.tag

    def test_witness_der_is_deterministic(self):
        spec = dn(b"high\xffbyte", tag=IA5)
        assert build_witness_der(spec) == build_witness_der(spec)


class TestWitnessFormat:
    def test_file_round_trip(self, tmp_path):
        spec = dn(b"high\xffbyte", tag=IA5)
        witness = witness_from_spec(spec, evaluate(spec), campaign_seed=7)
        path = write_witness(str(tmp_path), witness)
        assert os.path.basename(path) == witness.filename
        (loaded,) = load_witnesses(str(tmp_path))
        assert loaded == witness

    def test_filename_is_content_addressed(self):
        spec = dn(b"high\xffbyte", tag=IA5)
        observation = evaluate(spec)
        witness = witness_from_spec(spec, observation)
        assert witness.filename == f"cell-{cell_hash(observation)}.json"

    def test_json_is_stable(self, tmp_path):
        # sort_keys + fixed indent + trailing newline: two writes of
        # the same witness are byte-identical (the determinism gate
        # diffs whole directories).
        spec = dn(b"plain")
        witness = witness_from_spec(spec, evaluate(spec))
        first = write_witness(str(tmp_path / "a"), witness)
        second = write_witness(str(tmp_path / "b"), witness)
        assert Path(first).read_bytes() == Path(second).read_bytes()
        doc = json.loads(Path(first).read_text(encoding="utf-8"))
        assert doc["version"] == 1
        assert list(doc) == sorted(doc)


class TestReplay:
    def test_replay_succeeds_for_fresh_witness(self):
        spec = dn(b"high\xffbyte", tag=IA5)
        witness = witness_from_spec(spec, evaluate(spec))
        result = replay_witness(witness)
        assert result.ok, result.problems

    def test_replay_detects_vector_drift(self):
        from dataclasses import replace

        spec = dn(b"high\xffbyte", tag=IA5)
        witness = witness_from_spec(spec, evaluate(spec))
        tampered = replace(witness, vector=("E",) * 9)
        result = replay_witness(tampered)
        assert not result.ok
        assert any("vector" in p or "cell" in p for p in result.problems)

    def test_replay_detects_der_tampering(self):
        spec = dn(b"high\xffbyte", tag=IA5)
        witness = witness_from_spec(spec, evaluate(spec))
        from dataclasses import replace

        swapped = replace(witness, der=build_witness_der(dn(b"other")))
        result = replay_witness(swapped)
        assert not result.ok

    def test_replay_directory(self, tmp_path):
        for value, tag in ((b"high\xffbyte", IA5), (b"\xc1\xa1", UTF8)):
            spec = dn(value, tag=tag)
            write_witness(
                str(tmp_path), witness_from_spec(spec, evaluate(spec))
            )
        results = replay_witnesses(str(tmp_path))
        assert len(results) == 2
        assert all(r.ok for r in results)
