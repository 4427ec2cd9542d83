"""Probabilistic membership summaries: Bloom and Cuckoo filters.

The reference hosts a single fixed-parameter Bloom filter in Redis
(items=100_000, bits/item=5 → 500_000 bits, hashes=7, seed=1364249661;
redis_url_bloomfilter.rb:42-47). Here each URL-seen shard holds a summary
(bloom or cuckoo, per north_rule) next to an exact set: the summary gives the
memory posture for 10^10 URLs, the exact set gives test-scale exactness.

Memory math at 10^10 URLs (documented per SURVEY §7.4): at 1% FP a Bloom
filter needs ~9.6 bits/URL → 12 GB total → 47 MB per shard at 256 shards
(one shard per cluster core-group). A cuckoo filter at 0.1% FP with 16-bit
fingerprints needs ~2.4 B/URL → 24 GB total, and supports deletion. Both
shard cleanly by hash(canonical_url) % n_shards.
"""

from __future__ import annotations

import hashlib

import numpy as np

_DEFAULT_SEED = 1364249661  # the reference's fixed seed (redis_url_bloomfilter.rb:47)


def _hash128(key: str, seed: int) -> tuple[int, int]:
    d = hashlib.blake2b(
        key.encode("utf-8"), digest_size=16, salt=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(d[:8], "little"), int.from_bytes(d[8:], "little")


def _hash128_many(keys: list[str], seed: int) -> np.ndarray:
    """``_hash128`` of every key as an (n, 2) uint64 array: one digest per
    key, read in one ``frombuffer``."""
    salt = seed.to_bytes(8, "little")
    blake2b = hashlib.blake2b
    buf = b"".join(
        blake2b(k.encode("utf-8"), digest_size=16, salt=salt).digest() for k in keys
    )
    return np.frombuffer(buf, dtype="<u8").reshape(len(keys), 2)


class BloomFilter:
    """Double-hashing Bloom filter over a numpy bit array. A key with
    digest halves (h1, h2) sets bits (h1 + i * h2) mod n_bits, i < n_hashes,
    in wrapping uint64 arithmetic. The batched methods compute the whole
    (keys, n_hashes) index matrix at once and set or test the same bits as
    the per-key ones."""

    def __init__(self, n_bits: int = 500_000, n_hashes: int = 7, seed: int = _DEFAULT_SEED):
        self.n_bits = int(n_bits)
        self.n_hashes = int(n_hashes)
        self.seed = seed
        self.bits = np.zeros((self.n_bits + 7) // 8, dtype=np.uint8)

    def _indices(self, key: str) -> np.ndarray:
        h1, h2 = _hash128(key, self.seed)
        i = np.arange(self.n_hashes, dtype=np.uint64)
        return (h1 + i * h2) % np.uint64(self.n_bits)

    def _index_matrix(self, keys: list[str]) -> np.ndarray:
        h = _hash128_many(keys, self.seed)
        i = np.arange(self.n_hashes, dtype=np.uint64)
        return (h[:, :1] + i * h[:, 1:]) % np.uint64(self.n_bits)

    def add(self, key: str) -> None:
        idx = self._indices(key)
        np.bitwise_or.at(self.bits, idx >> 3, (1 << (idx & 7)).astype(np.uint8))

    def __contains__(self, key: str) -> bool:
        idx = self._indices(key)
        return bool(np.all(self.bits[idx >> 3] & (1 << (idx & 7))))

    def add_many(self, keys: list[str]) -> None:
        if not keys:
            return
        idx = self._index_matrix(keys).ravel()
        np.bitwise_or.at(self.bits, idx >> 3, (1 << (idx & 7)).astype(np.uint8))

    def contains_many(self, keys: list[str]) -> list[bool]:
        if not keys:
            return []
        idx = self._index_matrix(keys)
        return np.all(self.bits[idx >> 3] & (1 << (idx & 7)), axis=1).tolist()

    def merge(self, other: "BloomFilter") -> None:
        assert (self.n_bits, self.n_hashes, self.seed) == (
            other.n_bits,
            other.n_hashes,
            other.seed,
        )
        np.bitwise_or(self.bits, other.bits, out=self.bits)


class CuckooFilter:
    """Standard (2,4)-cuckoo filter with 16-bit fingerprints.

    Supports delete (unlike Bloom) — relevant for recrawl/expiry policies.
    Deterministic eviction via a seeded RNG so snapshots reproduce."""

    BUCKET = 4
    MAX_KICKS = 500

    def __init__(self, n_buckets: int = 1 << 16, seed: int = _DEFAULT_SEED):
        assert n_buckets & (n_buckets - 1) == 0, "n_buckets must be a power of two"
        self.n_buckets = n_buckets
        self.seed = seed
        self.table = np.zeros((n_buckets, self.BUCKET), dtype=np.uint16)
        self.rng = np.random.default_rng(seed)
        self.count = 0

    def _fp_and_bucket(self, key: str) -> tuple[int, int]:
        h1, h2 = _hash128(key, self.seed)
        fp = (h2 & 0xFFFF) or 1  # fingerprint 0 reserved for empty
        return fp, h1 % self.n_buckets

    def _alt(self, bucket: int, fp: int) -> int:
        h, _ = _hash128(str(fp), self.seed ^ 0x5BD1)
        return (bucket ^ (h % self.n_buckets)) % self.n_buckets

    def _try_insert(self, bucket: int, fp: int) -> bool:
        row = self.table[bucket]
        empties = np.where(row == 0)[0]
        if len(empties):
            row[empties[0]] = fp
            return True
        return False

    def add(self, key: str) -> bool:
        fp, b1 = self._fp_and_bucket(key)
        b2 = self._alt(b1, fp)
        if self._try_insert(b1, fp) or self._try_insert(b2, fp):
            self.count += 1
            return True
        bucket = b1 if self.rng.integers(2) else b2
        for _ in range(self.MAX_KICKS):
            slot = int(self.rng.integers(self.BUCKET))
            fp, self.table[bucket][slot] = int(self.table[bucket][slot]), fp
            bucket = self._alt(bucket, fp)
            if self._try_insert(bucket, fp):
                self.count += 1
                return True
        return False  # filter full

    def __contains__(self, key: str) -> bool:
        fp, b1 = self._fp_and_bucket(key)
        b2 = self._alt(b1, fp)
        return bool(np.any(self.table[b1] == fp) or np.any(self.table[b2] == fp))

    def delete(self, key: str) -> bool:
        fp, b1 = self._fp_and_bucket(key)
        for b in (b1, self._alt(b1, fp)):
            idx = np.where(self.table[b] == fp)[0]
            if len(idx):
                self.table[b][idx[0]] = 0
                self.count -= 1
                return True
        return False
