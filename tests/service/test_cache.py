"""Unit tests for the DER-content-addressed LRU result cache."""

import hashlib

from repro.service.cache import ResultCache, cache_key


class TestCacheKey:
    def test_is_sha256_of_der(self):
        der = b"\x30\x03\x02\x01\x01"
        assert cache_key(der) == hashlib.sha256(der).hexdigest()

    def test_distinct_ders_distinct_keys(self):
        assert cache_key(b"a") != cache_key(b"b")


class TestLruSemantics:
    def test_get_put_roundtrip(self):
        cache = ResultCache(capacity=2)
        cache.put("k1", "body1")
        assert cache.get("k1") == "body1"
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = ResultCache(capacity=2)
        assert cache.get("absent") is None
        assert cache.misses == 1 and cache.hits == 0

    def test_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == "A"  # refresh a; b is now LRU
        cache.put("c", "C")
        assert "b" not in cache
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        assert cache.evictions == 1

    def test_overwrite_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        cache.put("a", "A")
        cache.put("b", "B")
        cache.put("a", "A2")  # refresh by overwrite; b is LRU
        cache.put("c", "C")
        assert "b" not in cache and cache.get("a") == "A2"

    def test_capacity_bound_holds(self):
        cache = ResultCache(capacity=8)
        for i in range(100):
            cache.put(f"k{i}", "v")
        assert len(cache) == 8
        assert cache.evictions == 92

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", "A")
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_hit_rate_and_stats(self):
        cache = ResultCache(capacity=4)
        cache.put("a", "A")
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1 and stats["capacity"] == 4

    def test_hit_rate_empty(self):
        assert ResultCache().hit_rate == 0.0
