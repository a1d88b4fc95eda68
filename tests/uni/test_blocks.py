"""Tests for the Unicode block registry."""

import unicodedata

from repro.uni.blocks import BLOCKS, block_by_name, block_of, sample_block_characters


class TestRegistry:
    def test_substantial_coverage(self):
        # The curated registry carries the BMP plus major SMP blocks.
        assert len(BLOCKS) >= 280

    def test_sorted_and_disjoint(self):
        for prev, cur in zip(BLOCKS, BLOCKS[1:]):
            assert prev.end < cur.start

    def test_ranges_within_unicode(self):
        for block in BLOCKS:
            assert 0 <= block.start <= block.end <= 0x10FFFF

    def test_block_of_basic_latin(self):
        assert block_of("a").name == "Basic Latin"
        assert block_of(0x41).name == "Basic Latin"

    def test_block_of_cjk(self):
        assert block_of("中").name == "CJK Unified Ideographs"

    def test_block_of_gap(self):
        # 0x2FE0-0x2FEF is an unallocated gap between blocks.
        assert block_of(0x2FE5) is None

    def test_block_by_name(self):
        block = block_by_name("Cyrillic")
        assert block.start == 0x0400

    def test_contains(self):
        block = block_by_name("Hebrew")
        assert "א" in block
        assert "a" not in block

    def test_surrogate_flags(self):
        assert block_by_name("High Surrogates").is_surrogate
        assert not block_by_name("Hebrew").is_surrogate

    def test_private_use_flags(self):
        assert block_by_name("Private Use Area").is_private_use


class TestSampling:
    def test_excludes_surrogates(self):
        samples = sample_block_characters()
        assert all(not 0xD800 <= ord(ch) <= 0xDFFF for ch in samples)

    def test_samples_are_assigned_or_private(self):
        for ch in sample_block_characters():
            category = unicodedata.category(ch)
            assert category != "Cn" or block_of(ch).is_private_use

    def test_one_per_block_at_most(self):
        samples = sample_block_characters()
        blocks = [block_of(ch).name for ch in samples]
        assert len(blocks) == len(set(blocks))

    def test_count_close_to_paper(self):
        # The paper samples 323 blocks; our curated registry is close.
        assert len(sample_block_characters()) >= 250

    def test_exclude_private_use(self):
        samples = sample_block_characters(exclude_private_use=True)
        assert all(not block_of(ch).is_private_use for ch in samples)
