"""Unit tests for membership filters and state shard actors."""

import pytest

from cloud_crawler_ray.state.filters import BloomFilter, CuckooFilter


def test_bloom_membership_and_merge():
    b = BloomFilter(n_bits=100_000)
    keys = [f"http://h{i}.com/p{i}" for i in range(1000)]
    b.add_many(keys)
    assert all(b.contains_many(keys))
    # false-positive rate sanity on absent keys
    absent = [f"http://absent{i}.com/x" for i in range(1000)]
    fp = sum(b.contains_many(absent))
    assert fp < 50  # well under 5% at this load

    b2 = BloomFilter(n_bits=100_000)
    b2.add("http://only-in-b2.com/")
    b.merge(b2)
    assert "http://only-in-b2.com/" in b


def test_bloom_no_false_negatives_deterministic():
    b1, b2 = BloomFilter(), BloomFilter()
    b1.add("x")
    b2.add("x")
    assert (b1.bits == b2.bits).all()  # fixed seed → identical layout


def test_bloom_batched_equals_per_key():
    """add_many / contains_many set and test exactly the bits of the per-key
    add / in — non-ASCII and repeated keys included."""
    keys = [f"http://h{i % 7}.com/p{i}" for i in range(4_990)]
    keys += ["http://ü.com/ø", "http://例え.jp/パス", "", "x", "x", keys[3]] * 2
    assert len(keys) == 5_002
    one, many = BloomFilter(n_bits=1 << 16), BloomFilter(n_bits=1 << 16)
    for k in keys:
        one.add(k)
    many.add_many(keys)
    assert (one.bits == many.bits).all()
    probe = keys + [f"http://absent{i}.com/é" for i in range(5_000)]
    assert many.contains_many(probe) == [k in one for k in probe]
    assert many.contains_many([]) == []


def test_partition_add_keeps_first_occurrence_order():
    from cloud_crawler_ray.state.shards import StatePartition

    p = StatePartition(0)
    p.add(["b", "a"])
    p.take_fresh()
    assert p.add(["c", "a", "d", "c", "b", "e"]) == 5
    assert p.take_fresh() == ["c", "d", "e"]
    assert p.check(["a", "z", "e"]) == [False, True, False]


def test_cuckoo_add_contains_delete():
    c = CuckooFilter(n_buckets=1 << 12)
    keys = [f"url-{i}" for i in range(2000)]
    ok = [c.add(k) for k in keys]
    assert all(ok)
    assert all(k in c for k in keys)
    assert c.delete("url-5")
    # deletion removes one fingerprint copy
    fp_hits = sum(1 for k in ("url-5",) if k in c)
    assert fp_hits <= 1  # may collide with another fp; usually 0
    absent_fp = sum(1 for i in range(2000, 4000) if f"url-{i}" in c)
    assert absent_fp < 60  # ~1.6% expected at 16-bit fingerprints


def test_shards_check_add_and_clocks(ray_session):
    from cloud_crawler_ray.state.shards import ShardedState

    state = ShardedState(n_shards=3)
    try:
        keys = [f"http://h{i % 7}.com/p{i}" for i in range(100)]
        assert state.check(keys) == [True] * 100
        state.add(keys[:50])
        out = state.check(keys)
        assert out == [False] * 50 + [True] * 50
        assert state.seen_count() == 50

        state.advance_clocks({"a.com": 100, "b.com": 200})
        state.advance_clocks({"a.com": 50})  # monotonic: no regression
        assert state.get_clocks(["a.com", "b.com", "c.com"]) == {
            "a.com": 100,
            "b.com": 200,
            "c.com": 0,
        }

        blobs = state.snapshots()
        state2 = ShardedState(n_shards=3)
        try:
            state2.restore(blobs)
            assert state2.check(keys) == out
            assert state2.get_clocks(["a.com"]) == {"a.com": 100}
        finally:
            state2.shutdown()
    finally:
        state.shutdown()


def test_cookie_store_merge_expiry():
    import datetime

    from cloud_crawler_ray.stages.cookies import CookieStore

    cs = CookieStore()
    cs.merge("h.com", ["a=1; Path=/", "b=2"])
    cs.merge("h.com", ["a=9"])  # last write wins
    assert cs.cookie_header("h.com") == "a=9; b=2"
    cs.merge("h.com", ["old=x; expires=Mon, 01 Jan 2001 00:00:00 GMT"])
    assert "old=" not in cs.cookie_header("h.com")
    assert cs.cookie_header("other.com") == ""


def test_random_agent_seeded():
    from cloud_crawler_ray.functions.agents import agent_for, random_agent

    assert random_agent(7, 1) == random_agent(7, 1)
    assert random_agent(7, 1) != random_agent(7, 2)
    assert agent_for("fixed-ua", 7, 1) == "fixed-ua"
    assert agent_for("random", 7, 3).startswith("Mozilla/5.0")


def test_shards_of_context_independent_routing():
    """Regression: pandas' categorizing hasher truncates object keys at NUL,
    making the SAME key route differently depending on its neighbors. Our
    composite keys therefore use non-NUL separators; this pins that the
    chosen separators route context-independently."""
    from cloud_crawler_ray.state.shards import shards_of

    for sep in ("\x1f", " ", "|"):
        key = f"179{sep}2523"
        alone = int(shards_of([key], 64)[0])
        with_prefix_sibling = int(shards_of([f"179{sep}2063", key], 64)[1])
        crowded = int(shards_of([f"{i}{sep}{i+1}" for i in range(50)] + [key], 64)[-1])
        assert alone == with_prefix_sibling == crowded, sep

    # document the NUL hazard itself: same key, different neighbors → the
    # routing CAN differ (this is why no engine key uses \x00)
    key = "179\x002523"
    a = int(shards_of([key], 64)[0])
    b = int(shards_of(["179\x002063", key], 64)[1])
    # not asserting inequality (it depends on pandas internals) — only that
    # the safe separators above are stable; if pandas ever fixes NUL
    # handling this stays green either way
    assert isinstance(a, int) and isinstance(b, int)
