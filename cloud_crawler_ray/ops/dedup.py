"""Deduplication operators — exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine. All Ray-Data-first: vectorized signatures in map_batches,
band/bucket groupbys for candidate generation, integer-arithmetic outputs
where a DuckDB oracle hash-compares results.

Scale notes (10^10-doc posture, exercised at 10^3-10^5):
- signatures are fixed-width per doc → shuffle volume is O(docs), not O(text)
- candidate generation caps hot buckets/shingles (logged, never silent)
- NOTHING materializes the corpus on the driver: pair verification reaches
  content via keyed_attach (size-gated: object-store broadcast under the
  cap, hash-repartition join above it — both exact, the join path
  test-forced); duplicate components come from the bounded pair graph
  (driver union-find under a cap, distributed hash-min label propagation
  above it); exact embedding near-dup is a block-pair cross product over
  object-store block refs
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions import text as T

_MERSENNE = (1 << 61) - 1
_N_SHARDS = 64


def cluster_shards() -> int:
    """Shard count scaled to the cluster: at least _N_SHARDS, at least two
    per CPU so sharded map_groups stages never cap parallelism below the
    machine (the fixed 64 default would be the ceiling on a >32-CPU
    cluster)."""
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return max(_N_SHARDS, 2 * ncpu)


def _add_shard(batch: pa.Table, col: str, n_shards: int = _N_SHARDS) -> pa.Table:
    """Attach shard = hash(key) % n_shards. Grouping by the SHARD instead of
    the raw key turns millions of tiny map_groups calls into n_shards calls
    whose bodies do a local pandas groupby — same result, none of the
    per-group scheduling overhead. This is the standard 'hash-partition then
    aggregate locally' shape every dedup op here uses.

    Vectorized: integer keys take a modulo; strings go through pandas'
    vectorized hasher (shard routing only needs within-run consistency, and
    results are independent of the routing)."""
    key_col = batch.column(col)
    if pa.types.is_integer(key_col.type):
        vals = key_col.to_numpy(zero_copy_only=False).astype(np.int64)
        shards = np.mod(vals, n_shards).astype(np.int32)
    else:
        arr = np.asarray(key_col.to_pylist(), dtype=object)
        shards = (pd.util.hash_array(arr) % n_shards).astype(np.int32)
    return batch.append_column("shard", pa.array(shards, pa.int32()))


def _sorted_intersect_count(sa: np.ndarray, sb: np.ndarray) -> int:
    """|sa ∩ sb| for shingle-hash sets via one searchsorted — O(m log n)
    without intersect1d's concatenate-and-resort. The sets are
    ``np.unique(uint64 hashes).view(int64)`` (minhash_signatures), i.e.
    sorted in UNSIGNED order — compare in uint64 space."""
    sa = sa.view(np.uint64)
    sb = sb.view(np.uint64)
    if len(sa) > len(sb):
        sa, sb = sb, sa
    if len(sa) == 0 or len(sb) == 0:
        return 0
    idx = np.searchsorted(sb, sa)
    valid = idx < len(sb)
    return int(np.count_nonzero(sb[idx[valid]] == sa[valid]))


def _list_views(col) -> list[np.ndarray]:
    """Arrow list<int64> column → per-row numpy views over the flat values
    buffer — no per-element Python-int materialization (the r4 verify-stage
    cost was exactly this ``to_pylist`` conversion)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    values = col.flatten().to_numpy(zero_copy_only=False)
    offs = col.offsets.to_numpy(zero_copy_only=False)
    base = offs[0]
    return [values[s - base : e - base] for s, e in zip(offs[:-1], offs[1:])]


def _shard_on_pair(t: pa.Table, n_shards: int = _N_SHARDS) -> pa.Table:
    """pshard = hash(a, b) % n_shards for pair-keyed dedup — vectorized
    (pandas' hasher covers string ids without a per-row loop; routing only
    needs within-run consistency)."""
    ha = pd.util.hash_array(np.asarray(t.column("a").to_pandas()))
    hb = pd.util.hash_array(np.asarray(t.column("b").to_pandas()))
    mixed = (ha.astype(np.uint64) * np.uint64(0x100000001B3)) ^ hb.astype(np.uint64)
    return t.append_column(
        "pshard", pa.array((mixed % np.uint64(n_shards)).astype(np.int32))
    )


def _collect_arrow(ds: rd.Dataset, columns: list[str]) -> list[pa.Table]:
    """Collect a (small, pair-bounded) Dataset's non-empty blocks as Arrow
    tables with the given columns. Zero-row pandas blocks from upstream
    map_groups stages can pass through map_batches untransformed — they are
    dropped here."""
    out = []
    for t in ray.get(ds.to_arrow_refs()):
        if isinstance(t, pd.DataFrame):
            if not len(t):
                continue
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows and set(columns) <= set(t.column_names):
            out.append(t.select(columns))
    return out


def keyed_attach(
    left: rd.Dataset,
    right: rd.Dataset,
    key: str,
    payload_cols: list[str],
    n_shards: int | None = None,
    right_count: int | None = None,
    broadcast_cap: int = 500_000,
    salt: int = 1,
) -> rd.Dataset:
    """Equi-join: attach *right*'s payload columns to *left* rows on ``key``
    (right unique per key; unmatched left rows get nulls).

    Hybrid, like the wave planner: when the right side is known to be small
    (right_count ≤ broadcast_cap) it is collected once into the object store
    and read per task (ray.put-style broadcast — worker memory O(right),
    driver holds only refs); otherwise the fully distributed path:
    union-with-tag → shard by crc(key) → per-shard pandas merge. Neither
    path materializes the corpus on the driver. Tests force the join path
    via broadcast_cap=0.

    ``salt`` > 1 splits every hash shard into ``salt`` sub-shards on the
    join path: left rows spread round-robin across their key's sub-shards,
    right rows REPLICATE into all of them — so one hot key's probe rows
    divide over ``salt`` merge tasks instead of serializing into one. The
    result is identical (each left row still meets its key's full right
    side exactly once); the cost is right-side duplication, which is why
    salting is an explicit knob, not the default. Pytest pins salted ==
    unsalted byte-for-byte on a hot-key fixture."""
    if left.schema() is None:  # fully empty left: nothing to attach to
        return left
    if right.schema() is None:  # fully empty right: left-join semantics —
        # every left row keeps, payload all-null (types unknowable)
        def _all_null(t: pa.Table) -> pa.Table:
            for c in payload_cols:
                t = t.append_column(c, pa.nulls(t.num_rows, pa.null()))
            return t

        return left.map_batches(_all_null, batch_format="pyarrow")
    if right_count is not None and right_count <= broadcast_cap:
        return _broadcast_attach(left, right, key, payload_cols)
    if n_shards is None:
        # data-size-aware shard count: at least one shard per 2 CPUs (keep
        # the merge stage parallel) and at most ~500k right rows per shard
        # (bound the per-shard pandas merge) — the fixed 64 default capped
        # parallelism AND per-shard size at real scale
        n_shards = cluster_shards()
        if right_count is not None:
            n_shards = max(n_shards, right_count // 500_000 + 1)
    lschema, rschema = left.schema(), right.schema()
    lonly = [n for n in lschema.names if n != key]
    _rt = dict(zip(rschema.names, rschema.types))
    _lt = dict(zip(lschema.names, lschema.types))
    rtypes = {n: _rt[n] for n in payload_cols}
    ltypes = {n: _lt[n] for n in lonly}

    def _resalt(t: pa.Table, sub: np.ndarray) -> pa.Table:
        sh = t.column("shard").to_numpy(zero_copy_only=False).astype(np.int64)
        sh = sh * salt + sub
        return t.drop_columns(["shard"]).append_column(
            "shard", pa.array(sh.astype(np.int32), pa.int32())
        )

    def tag_left(t: pa.Table) -> pa.Table:
        t = _add_shard(t, key, n_shards)
        if salt > 1:
            t = _resalt(t, np.arange(t.num_rows, dtype=np.int64) % salt)
        t = t.append_column("_side", pa.array(np.zeros(t.num_rows, dtype=np.int8)))
        for c in payload_cols:
            t = t.append_column(c, pa.nulls(t.num_rows, type=rtypes[c]))
        return t.select([key] + lonly + list(payload_cols) + ["shard", "_side"])

    def tag_right(t: pa.Table) -> pa.Table:
        t = t.select([key] + payload_cols)
        t = _add_shard(t, key, n_shards)
        if salt > 1:
            t = pa.concat_tables(
                _resalt(t, np.full(t.num_rows, s, dtype=np.int64))
                for s in range(salt)
            )
        t = t.append_column("_side", pa.array(np.ones(t.num_rows, dtype=np.int8)))
        for c in lonly:
            t = t.append_column(c, pa.nulls(t.num_rows, type=ltypes[c]))
        return t.select([key] + lonly + list(payload_cols) + ["shard", "_side"])

    both = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    out_schema = pa.schema(
        [(key, _lt[key])]
        + [(c, ltypes[c]) for c in lonly]
        + [(c, rtypes[c]) for c in payload_cols]
    )

    def merge(g: pd.DataFrame) -> pa.Table:
        l = g[g["_side"] == 0].drop(columns=list(payload_cols))
        r = g[g["_side"] == 1][[key] + list(payload_cols)]
        out = l.merge(r, on=key, how="left").drop(columns=["_side", "shard"])
        # rebuild against the declared schema: pandas null-padding turned
        # int columns float; every output block must carry identical types
        return pa.table(
            {
                f.name: pa.Array.from_pandas(out[f.name], type=f.type, safe=False)
                for f in out_schema
            },
            schema=out_schema,
        )

    return both.groupby("shard").map_groups(merge, batch_format="pandas")


def _broadcast_attach(
    left: rd.Dataset, right: rd.Dataset, key: str, payload_cols: list[str]
) -> rd.Dataset:
    """Small-right join: one object-store copy of the right table, vectorized
    hash-probe inside map_batches (pc.index_in → pc.take; a null index takes
    a null payload, so unmatched left rows get nulls — exactly the join-path
    semantics, no per-row Python)."""
    rschema = dict(zip(right.schema().names, right.schema().types))
    tables = [t for t in ray.get(right.to_arrow_refs()) if t.num_rows]
    if tables:
        rt = pa.concat_tables(
            [t.select([key] + list(payload_cols)) for t in tables]
        ).combine_chunks()
    else:
        rt = pa.table(
            {c: pa.array([], type=rschema[c]) for c in [key] + list(payload_cols)}
        )
    ref = ray.put(rt)

    def attach(t: pa.Table) -> pa.Table:
        r = ray.get(ref)
        idx = pc.index_in(t.column(key), value_set=r.column(key).combine_chunks())
        for c in payload_cols:
            t = t.append_column(c, pc.take(r.column(c), idx))
        return t

    return left.map_batches(attach, batch_format="pyarrow")


def exact_dedup(ds: rd.Dataset) -> rd.Dataset:
    """Keep the lowest doc_id per identical normalized text (hash-partition
    by fingerprint + per-group first — the page-store last-write analog
    turned deterministic, redis_page_store.rb:43-46)."""

    def add_fp(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return batch.append_column(
            "fp", pa.array([T.fingerprint(t) for t in texts], pa.string())
        )

    def first_per_fp(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values("doc_id").drop_duplicates("fp", keep="first")

    with_fp = ds.map_batches(add_fp, batch_format="pyarrow", batch_size=8192)
    sharded = with_fp.map_batches(
        lambda t: _add_shard(t, "fp"), batch_format="pyarrow"
    )
    return (
        sharded.groupby("shard")
        .map_groups(first_per_fp, batch_format="pandas")
        .drop_columns(["fp", "shard"])
    )


def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


_SHINGLE_CACHE: dict[str, int] = {}


def _shingle_hash_one(s: str) -> int:
    """Memoized blake2b-64 string hash — used for TOKEN hashing (ops/
    curation n-gram decontamination), where tokens repeat heavily (Zipfian)
    and the bounded cache pays for itself. Char-shingle hashing below no
    longer goes through here (vectorized splitmix fold instead)."""
    h = _SHINGLE_CACHE.get(s)
    if h is None:
        if len(_SHINGLE_CACHE) > 2_000_000:
            _SHINGLE_CACHE.clear()
        h = int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "little")
        _SHINGLE_CACHE[s] = h
    return h


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Unique k-char-shingle hash set of the normalized text, sorted uint64.

    Same shingle semantics as functions/text.char_shingles (unique k-char
    windows over normalize_text; shorter-than-k text is one shingle), but
    hashed as a vectorized splitmix64 fold over a sliding window of UTF-32
    code points — the r4 per-shingle blake2b loop was the signature pass's
    cost. Window-content equality ⇔ hash equality (modulo negligible 64-bit
    collisions, consistent across engine and serial twin — shared kernel)."""
    s = T.normalize_text(text)
    if not s:
        return np.array([0], dtype=np.uint64)
    cps = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    if len(cps) < k:
        w = cps[None, :]
    else:
        w = np.lib.stride_tricks.sliding_window_view(cps, k)
    h = np.zeros(len(w), np.uint64)
    for j in range(w.shape[1]):
        h = (h * _BH_MULT) ^ _splitmix64(np.ascontiguousarray(w[:, j]))
    return np.unique(h)


def minhash_signatures(
    ds: rd.Dataset, num_perm: int = 64, shingle_k: int = 5, with_hashes: bool = False
) -> rd.Dataset:
    """doc_id → MinHash signature (list<uint64 as int64>), vectorized per
    doc: sig_i = min((a_i·h + b_i) mod p) over shingle hashes h.

    with_hashes=True also emits ``hs`` — the sorted unique shingle-hash set
    (list<int64>) — so a downstream exact-Jaccard verify can reuse the
    shingle work instead of recomputing it from text. Trade: hs is ~8 bytes
    per shingle (same order as the text itself) flowing through the object
    store; callers that never verify should leave it off."""
    a, b = _perm_params(num_perm)

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = len(texts)
        sig_rows = np.empty((n, num_perm), dtype=np.int64)
        hs_views: list[np.ndarray] = []
        for i, t in enumerate(texts):
            h = _shingle_hashes(t, shingle_k)  # unique sorted uint64
            vals = (a[:, None] * h[None, :] + b[:, None]) % np.uint64(_MERSENNE)
            sig_rows[i] = vals.min(axis=1).astype(np.int64)
            if with_hashes:
                hs_views.append(h.view(np.int64))
        # assemble list columns from flat buffers — no Python-int lists
        sig_offsets = pa.array(
            np.arange(0, (n + 1) * num_perm, num_perm, dtype=np.int32)
        )
        cols = {
            "doc_id": batch.column("doc_id"),
            "sig": pa.ListArray.from_arrays(
                sig_offsets, pa.array(sig_rows.reshape(-1))
            ),
        }
        if with_hashes:
            lens = np.fromiter(
                (len(v) for v in hs_views), dtype=np.int64, count=n
            )
            hs_offsets = np.zeros(n + 1, dtype=np.int32)
            hs_offsets[1:] = np.cumsum(lens).astype(np.int32)
            flat = (
                np.concatenate(hs_views)
                if hs_views
                else np.array([], dtype=np.int64)
            )
            cols["hs"] = pa.ListArray.from_arrays(
                pa.array(hs_offsets), pa.array(flat)
            )
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=2048)


_SM_C1 = np.uint64(0x9E3779B97F4A7C15)
_SM_C2 = np.uint64(0xBF58476D1CE4E5B9)
_SM_C3 = np.uint64(0x94D049BB133111EB)
_BH_MULT = np.uint64(0x100000001B3)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain mixer; uint64 wraps)."""
    x = x + _SM_C1
    x = (x ^ (x >> np.uint64(30))) * _SM_C2
    x = (x ^ (x >> np.uint64(27))) * _SM_C3
    return x ^ (x >> np.uint64(31))


def _band_keys(sig_mat: np.ndarray, bands: int) -> np.ndarray:
    """(n, num_perm) signature matrix → (n, bands) int64 LSH bucket keys.

    Equality-preserving by construction (identical band slices in the same
    band position fold to identical keys; the accumulator is seeded with
    the band index so band i and band j never share key space). Replaces
    the per-row × per-band blake2b loop that made the minhash family the
    suite's slow tail — one mixed multiply-xor fold per band column, fully
    vectorized over all docs. 64-bit cross-slice collisions are ~n²·b/2⁶⁴
    and only ADD candidate pairs, which the exact-Jaccard verify filters."""
    n, num_perm = sig_mat.shape
    rows = num_perm // bands
    v = sig_mat.astype(np.uint64, copy=False).reshape(n, bands, rows)
    h = np.broadcast_to(
        _splitmix64(np.arange(bands, dtype=np.uint64)), (n, bands)
    ).copy()
    for j in range(rows):
        h = (h * _BH_MULT) ^ _splitmix64(np.ascontiguousarray(v[:, :, j]))
    return h.view(np.int64)


def _sig_matrix(col, num_perm: int) -> np.ndarray:
    """Arrow list<int64> signature column → (n, num_perm) int64 matrix,
    via the flat values buffer (no per-row list materialization)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(col), num_perm)


def _explode_bands_table(
    batch: pa.Table, bands: int, num_perm: int, carry: tuple[str, ...] = ()
) -> pa.Table:
    """doc_id+sig rows → (doc_id, bhash[, carry...]) with one row per
    (doc, band): vectorized take + reshape, no Python row loop. bhash is
    int64, so downstream shard routing uses the integer fast path."""
    n = batch.num_rows
    keys = _band_keys(_sig_matrix(batch.column("sig"), num_perm), bands)
    idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
    cols: dict = {
        "doc_id": batch.column("doc_id").take(idx),
        "bhash": pa.array(keys.reshape(-1), pa.int64()),
    }
    for c in carry:
        cols[c] = batch.column(c).take(idx)
    return pa.table(cols)


def minhash_lsh_pairs(
    ds: rd.Dataset,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.6,
    bucket_cap: int = 200,
    join_broadcast_cap: int = 500_000,
    sig_broadcast_cap: int = 50_000,
) -> tuple[pa.Table, dict]:
    """MinHash → LSH banding → candidate pairs → exact-Jaccard verification.

    Returns (pairs table [a, b, n_common, n_a, n_b, jaccard], stats).
    Buckets larger than bucket_cap are skipped and counted in stats
    (no silent caps)."""
    # with_hashes: the signature pass already enumerates every shingle; keep
    # the per-doc unique hash sets so the exact-Jaccard verify below reuses
    # them instead of re-shingling candidate docs from text (the r2 perf
    # regression). Materialized once — consumed by both banding and verify.
    sigs = minhash_signatures(ds, num_perm, shingle_k, with_hashes=True).materialize()

    banded = sigs.map_batches(
        lambda t: _explode_bands_table(t, bands, num_perm), batch_format="pyarrow"
    ).map_batches(lambda t: _add_shard(t, "bhash"), batch_format="pyarrow")

    def bucket_pairs_shard(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-bucket pair expansion: sort once, slice bucket
        # segments, triu-index each — no Python pair loops, dtype preserved
        g2 = g.sort_values(["bhash", "doc_id"], kind="stable")
        ids = g2["doc_id"].to_numpy()
        bh = g2["bhash"].to_numpy()
        cut = np.nonzero(bh[1:] != bh[:-1])[0] + 1
        starts = np.concatenate([[0], cut])
        ends = np.concatenate([cut, [len(bh)]])
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2 or m > bucket_cap:
                continue
            ii, jj = np.triu_indices(m, 1)
            out_a.append(ids[s + ii])
            out_b.append(ids[s + jj])
        if out_a:
            a, b = np.concatenate(out_a), np.concatenate(out_b)
        else:
            a, b = ids[:0], ids[:0]
        return pd.DataFrame({"a": a, "b": b})

    # A pair sharing k band buckets appears k times (k ≤ bands); instead of
    # a second all-to-all exchange to dedup candidates, let the ≤bands-
    # bounded duplicates ride through the (cheap, searchsorted) verify and
    # drop-duplicate the confirmed graph at collect — one fewer shuffle.
    cand = (
        banded.groupby("shard")
        .map_groups(bucket_pairs_shard, batch_format="pandas")
        .map_batches(
            lambda g: g.drop_duplicates(subset=["a", "b"]), batch_format="pandas"
        )
        .materialize()
    )
    stats = {"candidate_pairs": cand.count()}  # block-local-deduped checks
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "n_common": pa.array([], pa.int64()),
            "n_a": pa.array([], pa.int64()),
            "n_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    if stats["candidate_pairs"] == 0:
        stats["confirmed_pairs"] = 0
        return empty, stats

    # verify WITHOUT gathering docs to the driver: semi-join the signature
    # stage's per-doc shingle-hash sets to the docs that appear in a
    # candidate pair (small candidate-id side), then ship each set to its
    # pairs (broadcast under the cap, keyed joins above) and verify with an
    # exact sorted-array intersection — all inside map stages.
    def rename(cols: dict):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns([cols.get(n, n) for n in t.column_names])

        return fn

    n_sigs = sigs.count()
    if n_sigs <= sig_broadcast_cap:
        # small-corpus fast path: every doc's hash set fits one broadcast —
        # skip the candidate-id distinct + semi-join barriers entirely (the
        # three extra exchanges dominated suite wall-time at bench scale)
        n_cand_ids = n_sigs
        sets = sigs.map_batches(
            lambda t: t.select(["doc_id", "hs"]), batch_format="pyarrow"
        )
    else:
        cand_ids = (
            cand.map_batches(
                lambda t: pa.table(
                    {
                        "doc_id": pa.concat_arrays(
                            [t.column("a").combine_chunks(), t.column("b").combine_chunks()]
                        ),
                        "m": pa.array(np.ones(2 * t.num_rows, dtype=np.int8)),
                    }
                ),
                batch_format="pyarrow",
            )
            .map_batches(lambda t: _add_shard(t, "doc_id"), batch_format="pyarrow")
            .groupby("shard")
            .map_groups(lambda g: g.drop_duplicates("doc_id")[["doc_id", "m"]], batch_format="pandas")
            .materialize()
        )
        n_cand_ids = cand_ids.count()
        sets = keyed_attach(
            sigs.map_batches(
                lambda t: t.select(["doc_id", "hs"]), batch_format="pyarrow"
            ),
            cand_ids, "doc_id", ["m"],
            right_count=n_cand_ids, broadcast_cap=join_broadcast_cap,
        ).map_batches(
            lambda t: t.filter(pc.equal(t.column("m"), 1)).drop_columns(["m"]),
            batch_format="pyarrow",
        ).materialize()

    def _verify_rows(abs_pairs, get_a, get_b) -> pa.Table:
        rows_out = {"a": [], "b": [], "n_common": [], "n_a": [], "n_b": [], "jaccard": []}
        for a_, b_, ha, hb in ((x, y, get_a(x, i), get_b(y, i)) for i, (x, y) in enumerate(abs_pairs)):
            sa = np.asarray(ha, dtype=np.int64)
            sb = np.asarray(hb, dtype=np.int64)
            c = _sorted_intersect_count(sa, sb)
            j = c / max(1, len(sa) + len(sb) - c)
            if j >= threshold:
                rows_out["a"].append(a_)
                rows_out["b"].append(b_)
                rows_out["n_common"].append(c)
                rows_out["n_a"].append(len(sa))
                rows_out["n_b"].append(len(sb))
                rows_out["jaccard"].append(j)
        return pa.table(
            {
                "a": pa.array(rows_out["a"]),
                "b": pa.array(rows_out["b"]),
                "n_common": pa.array(rows_out["n_common"], pa.int64()),
                "n_a": pa.array(rows_out["n_a"], pa.int64()),
                "n_b": pa.array(rows_out["n_b"], pa.int64()),
                "jaccard": pa.array(rows_out["jaccard"], pa.float64()),
            }
        )

    if n_cand_ids <= join_broadcast_cap:
        # broadcast the candidate-doc sets ONCE (object store, bounded by the
        # candidate-id cap) and verify distributed over the pairs — the join
        # path below would ship each set once PER PAIR through the shuffle
        # (at sf0.1: 85k pairs x ~2k-hash sets ≈ GBs), the broadcast ships it
        # once per worker.
        set_lookup: dict = {}
        for t in ray.get(sets.to_arrow_refs()):
            for d, hs in zip(t.column("doc_id").to_pylist(), _list_views(t.column("hs"))):
                set_lookup[d] = hs
        set_ref = ray.put(set_lookup)

        def verify_bcast(t: pa.Table) -> pa.Table:
            lk = ray.get(set_ref)
            ab = list(zip(t.column("a").to_pylist(), t.column("b").to_pylist()))
            return _verify_rows(ab, lambda x, i: lk[x], lambda y, i: lk[y])

        confirmed_ds = cand.map_batches(verify_bcast, batch_format="pyarrow")
    else:
        sets_a = sets.map_batches(rename({"doc_id": "a", "hs": "sh_a"}), batch_format="pyarrow")
        sets_b = sets.map_batches(rename({"doc_id": "b", "hs": "sh_b"}), batch_format="pyarrow")
        with_a = keyed_attach(
            cand, sets_a, "a", ["sh_a"], right_count=n_cand_ids,
            broadcast_cap=join_broadcast_cap,
        )
        with_b = keyed_attach(
            with_a, sets_b, "b", ["sh_b"], right_count=n_cand_ids,
            broadcast_cap=join_broadcast_cap,
        )

        def verify_join(t: pa.Table) -> pa.Table:
            ab = list(zip(t.column("a").to_pylist(), t.column("b").to_pylist()))
            ha = _list_views(t.column("sh_a"))
            hb = _list_views(t.column("sh_b"))
            return _verify_rows(ab, lambda x, i: ha[i], lambda y, i: hb[i])

        confirmed_ds = with_b.map_batches(verify_join, batch_format="pyarrow")
    # the confirmed-duplicate pair set is the (small) output — collecting IT
    # is bounded by the dup graph, not the corpus
    tables = _collect_arrow(confirmed_ds, empty.column_names)
    confirmed = pa.concat_tables(tables) if tables else empty
    if confirmed.num_rows:
        # cross-shard band collisions leave ≤bands exact-duplicate rows per
        # pair (the dedup exchange this op no longer pays for); the
        # confirmed graph is small — drop them here
        df = confirmed.to_pandas().drop_duplicates(subset=["a", "b"])
        confirmed = pa.Table.from_pandas(df, schema=confirmed.schema, preserve_index=False)
        confirmed = confirmed.take(
            pc.sort_indices(confirmed, sort_keys=[("a", "ascending"), ("b", "ascending")])
        )
    stats["confirmed_pairs"] = confirmed.num_rows
    return confirmed, stats


def dedup_groups_from_pairs(pairs: pa.Table, all_ids: list) -> pa.Table:
    """Union-find over confirmed duplicate pairs → (doc_id, group_rep, keep).
    Driver-side: the pair set is the (small) verified-duplicate graph, not
    the corpus."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            if str(ry) < str(rx):
                rx, ry = ry, rx
            parent[ry] = rx

    for a, b in zip(pairs.column("a").to_pylist(), pairs.column("b").to_pylist()):
        union(a, b)
    reps = {}
    for x in list(parent):
        reps[x] = find(x)
    # min id per component as representative
    comp_min: dict = {}
    for x, r in reps.items():
        comp_min[r] = min(comp_min.get(r, x), x)
    rows = {"doc_id": [], "group_rep": [], "keep": []}
    for d in all_ids:
        rep = comp_min.get(reps.get(d, d), d)
        rows["doc_id"].append(d)
        rows["group_rep"].append(rep)
        rows["keep"].append(rep == d)
    return pa.table(rows)


def dedup_groups(
    docs: rd.Dataset, pairs: pa.Table, driver_pair_cap: int = 1_000_000
) -> rd.Dataset:
    """(doc_id, group_rep, keep) for EVERY doc, distributed: the corpus never
    reaches the driver (the r1 take_all anti-pattern). Only the confirmed
    duplicate PAIR GRAPH is inspected centrally — and only while it fits
    driver_pair_cap; above the cap, connected components are computed by
    distributed hash-min label propagation over the pair subgraph (nodes not
    in any pair are their own representative and never enter an iteration).
    """
    if pairs.num_rows <= driver_pair_cap:
        labels = _components_driver(pairs)
    else:
        labels = _components_label_prop(pairs)
    ref, as_arrays = _label_lookup_ref(labels)

    def attach(t: pa.Table) -> pa.Table:
        return _attach_labels(t, ray.get(ref), as_arrays)

    return docs.map_batches(attach, batch_format="pyarrow")


def _label_lookup_ref(labels: dict):
    """Broadcast a node→representative map for map-side attach. Integer ids
    (the common case) ship as SORTED numpy (keys, reps) arrays — memcpy-cheap
    for every worker to read from the object store (vs re-deserializing a
    Python dict per worker) and binary-searchable without per-row Python.
    Non-integer ids fall back to the dict, acceptable for small graphs."""
    if all(isinstance(k, (int, np.integer)) for k in labels):
        keys = np.fromiter(labels.keys(), dtype=np.int64, count=len(labels))
        vals = np.fromiter(labels.values(), dtype=np.int64, count=len(labels))
        order = np.argsort(keys)
        return ray.put((keys[order], vals[order])), True
    return ray.put(labels), False


def _attach_labels(t: pa.Table, payload, as_arrays: bool, col: str = "doc_id") -> pa.Table:
    """(col, group_rep, keep) for one block; unlabeled ids represent
    themselves. Vectorized searchsorted on the array path."""
    if as_arrays:
        keys, vals = payload
        ids = t.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        reps = ids.copy()
        if len(keys):
            pos = np.searchsorted(keys, ids)
            pos[pos == len(keys)] = 0
            hit = keys[pos] == ids
            reps[hit] = vals[pos[hit]]
        return pa.table(
            {
                col: t.column(col),
                "group_rep": pa.array(reps),
                "keep": pa.array(reps == ids),
            }
        )
    lab = payload
    ids = t.column(col).to_pylist()
    reps = [lab.get(d, d) for d in ids]
    return pa.table(
        {
            col: t.column(col),
            "group_rep": pa.array(reps),
            "keep": pa.array([r == d for r, d in zip(reps, ids)], pa.bool_()),
        }
    )


def _components_driver(pairs: pa.Table) -> dict:
    """Union-find over the pair graph (bounded by the dup graph, not the
    corpus); labels = min doc_id per component."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs.column("a").to_pylist(), pairs.column("b").to_pylist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            if str(rb) < str(ra):
                ra, rb = rb, ra
            parent[rb] = ra
    comp_min: dict = {}
    for x in list(parent):
        r = find(x)
        comp_min[r] = min(comp_min.get(r, x), x)
    return {x: comp_min[find(x)] for x in parent}


def _components_label_prop(pairs: pa.Table, max_iters: int = 512) -> dict:
    """Distributed hash-min label propagation over the pair subgraph: per
    round, every edge proposes min(label_a, label_b) to both endpoints,
    sharded label tables take per-node minima; stops at fixpoint. Driver
    sees only per-round changed counts and the final (node, label) pairs of
    the dup subgraph. Hash-min converges in O(component diameter) rounds;
    max_iters is a runaway cap (a duplicate-chain diameter beyond 512 is
    pathological), and exceeding it warns loudly rather than silently
    returning split components."""
    # shard count sized to the pair graph: every join/groupby below emits
    # one block per shard, and an iterative loop at a fixed 64 shards
    # compounds block count until the sort-shuffles cost maps×reduces tasks
    # (a 40-row graph was estimated at 10 GB of driver memory by round 4)
    n_sh = max(8, min(_N_SHARDS, pairs.num_rows // 50_000 + 8))
    edges = rd.from_arrow(pairs.select(["a", "b"])).materialize()
    nodes = (
        rd.from_arrow(
            pa.table({"node": pa.concat_arrays([
                pairs.column("a").combine_chunks(),
                pairs.column("b").combine_chunks(),
            ])})
        )
        .map_batches(lambda t: _add_shard(t, "node", n_sh), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(
            lambda g: g.drop_duplicates("node")[["node"]], batch_format="pandas"
        )
    )
    labels = (
        nodes.map_batches(
            lambda t: pa.table({"node": t.column("node"), "label": t.column("node")}),
            batch_format="pyarrow",
        )
        .repartition(n_sh)
        .materialize()
    )

    prev_checksum: int | None = None
    for _ in range(max_iters):
        lab_a = labels.map_batches(
            lambda t: t.rename_columns(["a", "lab_a"]), batch_format="pyarrow"
        )
        lab_b = labels.map_batches(
            lambda t: t.rename_columns(["b", "lab_b"]), batch_format="pyarrow"
        )
        e = keyed_attach(
            keyed_attach(edges, lab_a, "a", ["lab_a"], n_shards=n_sh),
            lab_b, "b", ["lab_b"], n_shards=n_sh,
        )

        def messages(t: pa.Table) -> pa.Table:
            la = t.column("lab_a").to_pylist()
            lb = t.column("lab_b").to_pylist()
            m = [min(x, y) for x, y in zip(la, lb)]
            return pa.table(
                {
                    "node": pa.concat_arrays(
                        [t.column("a").combine_chunks(), t.column("b").combine_chunks()]
                    ),
                    "label": pa.array(m + m),
                }
            )

        proposals = e.map_batches(messages, batch_format="pyarrow").union(labels)

        def min_label(g: pd.DataFrame) -> pd.DataFrame:
            return g.groupby("node", as_index=False)["label"].min()

        # repartition each round's label table back to n_sh blocks: groupby
        # partitions by INPUT BLOCK COUNT and map_groups emits one block per
        # group, so without the collapse the block count compounds ~6× per
        # round (1 → 8 → 50 → 302 → 1814 measured on a 40-row graph) and
        # shuffle cost with it
        new_labels = (
            proposals.map_batches(lambda t: _add_shard(t, "node", n_sh), batch_format="pyarrow")
            .groupby("shard")
            .map_groups(min_label, batch_format="pandas")
            .repartition(n_sh)
            .materialize()
        )
        # pointer doubling: label ← label(label). Every label value is itself
        # a node of the subgraph (labels are hash-min over node ids), and
        # label(x) ≤ x, so one self-join halves the remaining chain depth —
        # with the one-hop edge step above, convergence is O(log diameter)
        # rounds instead of O(diameter).
        parents = new_labels.map_batches(
            lambda t: t.rename_columns(["label", "label2"]), batch_format="pyarrow"
        )
        doubled = keyed_attach(new_labels, parents, "label", ["label2"], n_shards=n_sh)

        def take_double(t: pa.Table) -> pa.Table:
            l2 = pc.coalesce(t.column("label2"), t.column("label"))
            return pa.table(
                {"node": t.column("node"), "label": pc.min_element_wise(t.column("label"), l2)}
            )

        new_labels = (
            doubled.map_batches(take_double, batch_format="pyarrow")
            .repartition(n_sh)
            .materialize()
        )
        # fixpoint test WITHOUT a join: labels only move toward the
        # component minimum, so any change alters the label multiset — an
        # order- and partition-insensitive checksum (sum of 32-bit row
        # hashes; fits int64 at any row count) detects it in one cheap
        # map+sum pass instead of a keyed self-join per round. A checksum
        # collision (~2^-32/round) could only end the loop one round early
        # on an already-near-converged graph.
        def _block_checksum(t: pa.Table) -> pa.Table:
            h = pd.util.hash_array(
                np.asarray(t.column("label").to_pylist(), dtype=object)
            )
            return pa.table(
                {"h": pa.array([int((h % (1 << 32)).astype(np.int64).sum())], pa.int64())}
            )

        checksum = int(new_labels.map_batches(_block_checksum, batch_format="pyarrow").sum("h"))
        labels = new_labels
        if checksum == prev_checksum:
            break
        prev_checksum = checksum
    else:
        # with pointer doubling convergence is O(log diameter); hitting the
        # cap means a pathological graph, and returning silently would hand
        # back split components.
        import warnings

        warnings.warn(
            f"_components_label_prop did not reach fixpoint in {max_iters} "
            "rounds — component labels may be split; raise max_iters",
            RuntimeWarning,
            stacklevel=2,
        )
    out: dict = {}
    for t in ray.get(labels.to_arrow_refs()):  # dup-subgraph nodes only
        if t.num_rows == 0 or "node" not in t.column_names:
            continue  # empty sort partitions carry no schema
        for n, l in zip(t.column("node").to_pylist(), t.column("label").to_pylist()):
            out[n] = l
    return out


def _str_fold_hashes(strs: list[str], seed: int = 0) -> np.ndarray:
    """Seeded splitmix64 fold over each string's UTF-32 code points —
    h = splitmix(seed), then h = h·MULT ^ splitmix(cp) per code point.
    Vectorized by grouping strings of equal length (token lengths are
    small and few); replaces the per-token blake2b loop so the hash is
    pure arithmetic — vectorizable here AND re-derivable by the DuckDB
    oracle (the minhash-conversion discipline)."""
    n = len(strs)
    out = np.zeros(n, np.uint64)
    if n == 0:
        return out
    lens = np.fromiter((len(s) for s in strs), np.int64, n)
    joined = "".join(strs)
    cps = np.frombuffer(joined.encode("utf-32-le"), np.uint32).astype(np.uint64)
    offs = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    # 1-element array: numpy uint64 ARRAY overflow wraps silently (scalars warn)
    h_seed = _splitmix64(np.array([seed], np.uint64))[0]
    for L in np.unique(lens):
        if L == 0:
            continue
        idx = np.nonzero(lens == L)[0]
        mat = cps[offs[idx][:, None] + np.arange(L)[None, :]]
        h = np.full(len(idx), h_seed, np.uint64)
        for j in range(L):
            h = (h * _BH_MULT) ^ _splitmix64(mat[:, j])
        out[idx] = h
    return out


# acc index i reads bit 8·(i//8) + 7 − (i%8) of the token hash (the byte/
# bit layout the historical unpackbits implementation established)
_SIMHASH_BITPOS = (
    8 * (np.arange(64) // 8) + 7 - (np.arange(64) % 8)
).astype(np.uint64)


def simhash_bits(text: str, seed: int = 11) -> int:
    toks = T.tokenize(text)
    if not toks:
        return 0
    hs = _str_fold_hashes(toks, seed=seed)
    bits = ((hs[:, None] >> _SIMHASH_BITPOS[None, :]) & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def hash64_hamming_pairs(
    sigs: rd.Dataset,
    id_col: str = "doc_id",
    sig_col: str = "sim",
    hamming_threshold: int = 3,
    bucket_cap: int = 500,
) -> pa.Table:
    """Generic 64-bit-signature near-dup core: all (a, b) id pairs whose
    signatures differ in ≤ ``hamming_threshold`` bits. Pigeonhole bucketing
    over ``hamming_threshold + 1`` bit-chunks (d bit flips cannot touch all
    d+1 chunks, so every qualifying pair shares at least one exact chunk),
    then exact Hamming verification inside buckets — the shared engine
    behind SimHash text near-dup and perceptual-hash media near-dup.
    Hot buckets above ``bucket_cap`` are skipped (boilerplate signatures),
    matching the capped-candidate policy of the other dedup ops."""
    n_chunks = hamming_threshold + 1
    width = 64 // n_chunks

    def explode_chunks(batch: pa.Table) -> pa.Table:
        ids, buckets, sims_out = [], [], []
        for did, s in zip(
            batch.column(id_col).to_pylist(), batch.column(sig_col).to_pylist()
        ):
            for c in range(n_chunks):
                lo = c * width
                hi = 64 if c == n_chunks - 1 else lo + width
                ids.append(did)
                buckets.append(f"{c}:{(s >> lo) & ((1 << (hi - lo)) - 1)}")
                sims_out.append(s)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "bucket": pa.array(buckets, pa.string()),
                "sim": pa.array(sims_out, pa.uint64()),
            }
        )

    def bucket_pairs_shard(g: pd.DataFrame) -> pd.DataFrame:
        out = {"a": [], "b": [], "hamming": []}
        for _, grp in g.groupby("bucket"):
            grp = grp.sort_values("doc_id")
            if len(grp) < 2 or len(grp) > bucket_cap:
                continue
            ids = grp["doc_id"].tolist()
            sims = grp["sim"].tolist()
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    d = bin(int(sims[i]) ^ int(sims[j])).count("1")
                    if d <= hamming_threshold:
                        out["a"].append(ids[i])
                        out["b"].append(ids[j])
                        out["hamming"].append(d)
        return pd.DataFrame(
            {
                "a": pd.Series(out["a"], dtype=object),
                "b": pd.Series(out["b"], dtype=object),
                "hamming": pd.Series(out["hamming"], dtype=np.int64),
            }
        )

    pairs = (
        sigs.map_batches(explode_chunks, batch_format="pyarrow")
        .map_batches(lambda t: _add_shard(t, "bucket"), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(bucket_pairs_shard, batch_format="pandas")
        .to_pandas()
    )
    if pairs.empty:
        return pa.table({"a": [], "b": [], "hamming": []})
    pairs = pairs.drop_duplicates(subset=["a", "b"]).sort_values(["a", "b"])
    return pa.Table.from_pandas(pairs, preserve_index=False)


def simhash_pairs(
    ds: rd.Dataset, hamming_threshold: int = 3, bucket_cap: int = 500
) -> pa.Table:
    """SimHash near-dup: 64-bit signatures, bucketed by each of four 16-bit
    chunks (pigeonhole: hamming ≤ 3 ⇒ at least one identical chunk), then
    exact Hamming verification within buckets (hash64_hamming_pairs)."""

    def sig_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sigs = [simhash_bits(t) for t in texts]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "sim": pa.array(sigs, pa.uint64())}
        )

    sigs = ds.map_batches(sig_batch, batch_format="pyarrow", batch_size=2048)
    return hash64_hamming_pairs(
        sigs, "doc_id", "sim",
        hamming_threshold=hamming_threshold, bucket_cap=bucket_cap,
    )


def ngram_jaccard_pairs(
    ds: rd.Dataset,
    k: int = 3,
    num: int = 1,
    den: int = 2,
    shingle_freq_cap: int = 1000,
    join_broadcast_cap: int = 500_000,
) -> rd.Dataset:
    """EXACT n-gram (word k-shingle) Jaccard ≥ num/den — integer arithmetic
    end-to-end so the DuckDB oracle matches bit-for-bit:

        keep (a,b) iff den·n_common ≥ num·(n_a + n_b − n_common)

    Candidate generation is PPJoin-style prefix-filtered (Xiao et al.,
    "Efficient Similarity Joins for Near Duplicate Detection", WWW'08):
    shingles are globally ordered by (document frequency asc, shingle asc);
    a pair with J ≥ t = num/den must share a shingle inside BOTH docs'
    rarity prefixes of length n − ⌈t·n⌉ + 1 (J ≥ t ⇒ overlap ≥ ⌈t·n⌉ on
    each side), so pairs are generated only from prefix occurrences —
    hot shingles almost never sit in a prefix, which removes the O(df²)
    pair loop the all-occurrences self-join paid on every shared shingle.
    Confirmed counts come from an exact per-pair set intersection (semi-
    joined to candidate docs, broadcast under join_broadcast_cap).

    Prefix-shingle groups larger than shingle_freq_cap are skipped
    deterministically (with the default cap this is exact on the test
    corpora — a qualifying pair would need ALL its shared prefix shingles
    inside over-cap groups to be missed)."""

    def doc_sets(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        shs = [
            sorted(T.word_shingles(t, k))
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {"doc_id": ids, "shs": pa.array(shs, pa.list_(pa.string()))}
        )

    # One shingle pass over the corpus, reused by prefix selection and
    # verify. The materialized set table is corpus-sized (≈ the text itself)
    # — an explicit memory-for-CPU trade, spillable by the object store; the
    # alternative re-shingles the corpus twice from text.
    sets = ds.map_batches(doc_sets, batch_format="pyarrow", batch_size=2048).materialize()

    def explode(batch: pa.Table) -> pa.Table:
        col = batch.column("shs")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        counts = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pc.take(
                    batch.column("doc_id"),
                    pa.array(np.repeat(np.arange(len(counts)), counts)),
                ),
                "sh": pc.list_flatten(col),
            }
        )

    sh = sets.map_batches(explode, batch_format="pyarrow")

    def df_shard(g: pd.DataFrame) -> pd.DataFrame:
        # document frequency per shingle, computed AND attached in one
        # shard-by-sh pass (per-doc sets are distinct, so df = group size) —
        # no separate df table or join
        g = g[["doc_id", "sh"]].copy()
        g["df"] = g.groupby("sh")["sh"].transform("size").astype(np.int64)
        return g

    def prefix_shard(g: pd.DataFrame) -> pd.DataFrame:
        # per-doc rarity prefix: order by (df, sh), keep the first
        # n − ⌈t·n⌉ + 1 rows of each doc (vectorized over the whole shard)
        g = g.sort_values(["doc_id", "df", "sh"], kind="stable")
        n = g.groupby("doc_id", sort=False)["sh"].transform("size").to_numpy()
        pos = g.groupby("doc_id", sort=False).cumcount().to_numpy()
        ceil_tn = (num * n + den - 1) // den
        keep = pos < (n - ceil_tn + 1)
        return g.loc[keep, ["doc_id", "sh"]]

    def pair_gen_shard(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-shingle pair expansion (sort once, slice shingle
        # segments, triu-index each — no Python pair loops)
        g2 = g.sort_values(["sh", "doc_id"], kind="stable")
        ids = g2["doc_id"].to_numpy()
        sh_arr = g2["sh"].to_numpy()
        cut = np.nonzero(sh_arr[1:] != sh_arr[:-1])[0] + 1
        starts = np.concatenate([[0], cut])
        ends = np.concatenate([cut, [len(sh_arr)]])
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2 or m > shingle_freq_cap:
                continue
            ii, jj = np.triu_indices(m, 1)
            out_a.append(ids[s + ii])
            out_b.append(ids[s + jj])
        if out_a:
            a, b = np.concatenate(out_a), np.concatenate(out_b)
        else:
            a, b = ids[:0], ids[:0].copy()
        return pd.DataFrame({"a": a, "b": b})

    # no global candidate-dedup exchange (the minhash_lsh_pairs pattern):
    # a pair sharing several prefix shingles repeats ≤ prefix-len times,
    # rides through the cheap exact verify, and the confirmed pairs are
    # drop-duplicated at collect — one fewer all-to-all
    cand = (
        sh.map_batches(lambda t: _add_shard(t, "sh"), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(df_shard, batch_format="pandas")
        .map_batches(lambda t: _add_shard(t, "doc_id"), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(prefix_shard, batch_format="pandas")
        .map_batches(lambda t: _add_shard(t, "sh"), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(pair_gen_shard, batch_format="pandas")
        .map_batches(
            lambda g: g.drop_duplicates(subset=["a", "b"]), batch_format="pandas"
        )
        .materialize()
    )

    if cand.count() == 0:
        # typed like the non-empty path: a/b carry the corpus doc_id type
        id_t = dict(zip(ds.schema().names, ds.schema().types))["doc_id"]
        return rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([], id_t),
                    "b": pa.array([], id_t),
                    "n_common": pa.array([], pa.int64()),
                    "n_a": pa.array([], pa.int64()),
                    "n_b": pa.array([], pa.int64()),
                }
            )
        )

    # exact verify: intersect the candidate docs' shingle sets (semi-join on
    # the small candidate-id side; sets broadcast once under the cap, keyed
    # joins above — the minhash-verify pattern with string sets)
    cand_ids = (
        cand.map_batches(
            lambda t: pa.table(
                {
                    "doc_id": pa.concat_arrays(
                        [t.column("a").combine_chunks(), t.column("b").combine_chunks()]
                    ),
                    "m": pa.array(np.ones(2 * t.num_rows, dtype=np.int8)),
                }
            ),
            batch_format="pyarrow",
        )
        .map_batches(lambda t: _add_shard(t, "doc_id"), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(lambda g: g.drop_duplicates("doc_id")[["doc_id", "m"]], batch_format="pandas")
        .materialize()
    )
    n_cand_ids = cand_ids.count()
    cand_sets = keyed_attach(
        sets, cand_ids, "doc_id", ["m"],
        right_count=n_cand_ids, broadcast_cap=join_broadcast_cap,
    ).map_batches(
        lambda t: t.filter(pc.equal(t.column("m"), 1)).drop_columns(["m"]),
        batch_format="pyarrow",
    )

    def _verify_tbl(ab_pairs, get_a, get_b) -> pa.Table:
        rows = {"a": [], "b": [], "n_common": [], "n_a": [], "n_b": []}
        for i, (a_, b_) in enumerate(ab_pairs):
            sa, sb = get_a(a_, i), get_b(b_, i)
            c = len(sa & sb)
            if den * c >= num * (len(sa) + len(sb) - c):
                rows["a"].append(a_)
                rows["b"].append(b_)
                rows["n_common"].append(c)
                rows["n_a"].append(len(sa))
                rows["n_b"].append(len(sb))
        return pa.table(
            {
                "a": pa.array(rows["a"]),
                "b": pa.array(rows["b"]),
                "n_common": pa.array(rows["n_common"], pa.int64()),
                "n_a": pa.array(rows["n_a"], pa.int64()),
                "n_b": pa.array(rows["n_b"], pa.int64()),
            }
        )

    def dedup_confirmed(ds_pairs: rd.Dataset) -> rd.Dataset:
        # candidate dups (<= prefix-len per pair) survive the verify; dedup
        # the CONFIRMED graph -- orders of magnitude smaller than the
        # candidate set the dropped exchange used to shuffle
        return (
            ds_pairs.map_batches(_shard_on_pair, batch_format="pyarrow")
            .groupby("pshard")
            .map_groups(
                lambda g: g.drop_duplicates(subset=["a", "b"]).drop(columns=["pshard"]),
                batch_format="pandas",
            )
        )

    if n_cand_ids <= join_broadcast_cap:
        set_lookup: dict = {}
        for t in ray.get(cand_sets.to_arrow_refs()):
            for d, ss in zip(t.column("doc_id").to_pylist(), t.column("shs").to_pylist()):
                set_lookup[d] = frozenset(ss)
        set_ref = ray.put(set_lookup)

        def verify_bcast(t: pa.Table) -> pa.Table:
            lk = ray.get(set_ref)
            ab = list(zip(t.column("a").to_pylist(), t.column("b").to_pylist()))
            return _verify_tbl(ab, lambda x, i: lk[x], lambda y, i: lk[y])

        return dedup_confirmed(cand.map_batches(verify_bcast, batch_format="pyarrow"))

    def rename(cols: dict):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns([cols.get(n, n) for n in t.column_names])

        return fn

    sets_a = cand_sets.map_batches(rename({"doc_id": "a", "shs": "sh_a"}), batch_format="pyarrow")
    sets_b = cand_sets.map_batches(rename({"doc_id": "b", "shs": "sh_b"}), batch_format="pyarrow")
    with_b = keyed_attach(
        keyed_attach(
            cand, sets_a, "a", ["sh_a"],
            right_count=n_cand_ids, broadcast_cap=join_broadcast_cap,
        ),
        sets_b, "b", ["sh_b"],
        right_count=n_cand_ids, broadcast_cap=join_broadcast_cap,
    )

    def verify_join(t: pa.Table) -> pa.Table:
        ab = list(zip(t.column("a").to_pylist(), t.column("b").to_pylist()))
        ha = t.column("sh_a").to_pylist()
        hb = t.column("sh_b").to_pylist()
        return _verify_tbl(ab, lambda x, i: set(ha[i]), lambda y, i: set(hb[i]))

    return dedup_confirmed(with_b.map_batches(verify_join, batch_format="pyarrow"))


def ngram_containment_pairs(
    ds: rd.Dataset,
    k: int = 3,
    num: int = 4,
    den: int = 5,
    shingle_freq_cap: int = 1000,
    join_broadcast_cap: int = 500_000,
) -> rd.Dataset:
    """EXACT directed n-gram containment: keep (a → b), a ≠ b, iff

        den·|Sa ∩ Sb| ≥ num·|Sa|

    i.e. at least num/den of a's word k-shingles also occur in b — the
    asymmetric near-dup Jaccard misses (a quote, a syndicated paragraph, a
    boilerplate block CONTAINED in a much larger page scores near-zero
    Jaccard but containment ≈ 1). Integer arithmetic end-to-end so the
    serial brute-force twin matches bit-for-bit.

    Candidate generation prefix-filters the CONTAINED side only: C ≥ t
    forces overlap ≥ ⌈t·n_a⌉, so a must hit a shared shingle inside its
    rarity prefix of length n_a − ⌈t·n_a⌉ + 1 — but the containing side is
    unbounded (nothing relates n_b to the threshold), so a-prefix
    occurrences join against ALL occurrences of the shingle, not just
    prefixes. That asymmetry makes containment inherently pricier than
    PPJoin Jaccard; groups over ``shingle_freq_cap`` are skipped
    deterministically (same guard as ngram_jaccard_pairs). Verify is an
    exact per-pair set intersection via the same broadcast/join hybrid."""

    def doc_sets(batch: pa.Table) -> pa.Table:
        shs = [
            sorted(T.word_shingles(t, k))
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "shs": pa.array(shs, pa.list_(pa.string())),
            }
        )

    sets = ds.map_batches(doc_sets, batch_format="pyarrow", batch_size=2048).materialize()

    def explode(batch: pa.Table) -> pa.Table:
        col = batch.column("shs")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        counts = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pc.take(
                    batch.column("doc_id"),
                    pa.array(np.repeat(np.arange(len(counts)), counts)),
                ),
                "sh": pc.list_flatten(col),
            }
        )

    sh = sets.map_batches(explode, batch_format="pyarrow")

    def df_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["doc_id", "sh"]].copy()
        g["df"] = g.groupby("sh")["sh"].transform("size").astype(np.int64)
        return g

    def prefix_flag_shard(g: pd.DataFrame) -> pd.DataFrame:
        # keep EVERY occurrence, flag the ones inside the doc's rarity
        # prefix (order by df asc, sh asc within doc); carry the doc's set
        # size so pair generation can length-bound the containing side
        g = g.sort_values(["doc_id", "df", "sh"], kind="stable")
        n = g.groupby("doc_id", sort=False)["sh"].transform("size").to_numpy()
        pos = g.groupby("doc_id", sort=False).cumcount().to_numpy()
        ceil_tn = (num * n + den - 1) // den
        g = g[["doc_id", "sh"]].copy()
        g["in_prefix"] = pos < (n - ceil_tn + 1)
        g["n"] = n
        return g

    def pair_gen_shard(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-shingle cross products with the containing-side
        # LENGTH bound: C(a,b) ≥ num/den needs |Sa∩Sb| ≥ ⌈t·n_a⌉ ≤ n_b,
        # so den·n_b ≥ num·n_a — lossless (pure pigeonhole), and it prunes
        # exactly the asymmetric blowup the r4 verdict called the known
        # next lever (short b can never contain a long a).
        g2 = g.sort_values(["sh", "doc_id"], kind="stable")
        ids = g2["doc_id"].to_numpy()
        ns = g2["n"].to_numpy()
        pref = g2["in_prefix"].to_numpy()
        sh_arr = g2["sh"].to_numpy()
        cut = np.nonzero(sh_arr[1:] != sh_arr[:-1])[0] + 1
        starts = np.concatenate([[0], cut])
        ends = np.concatenate([cut, [len(sh_arr)]])
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2 or m > shingle_freq_cap:
                continue
            pa_idx = np.nonzero(pref[s:e])[0]
            if len(pa_idx) == 0:
                continue
            a_ids = ids[s:e][pa_idx]
            a_ns = ns[s:e][pa_idx]
            ii = np.repeat(np.arange(len(a_ids)), m)
            jj = np.tile(np.arange(m), len(a_ids))
            keep = (a_ids[ii] != ids[s:e][jj]) & (
                den * ns[s:e][jj] >= num * a_ns[ii]
            )
            out_a.append(a_ids[ii[keep]])
            out_b.append(ids[s:e][jj[keep]])
        if out_a:
            a, b = np.concatenate(out_a), np.concatenate(out_b)
        else:
            a, b = ids[:0], ids[:0].copy()
        return pd.DataFrame({"a": a, "b": b})

    def dedup_pairs_shard(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=["a", "b"])[["a", "b"]]

    shard_on_pair = _shard_on_pair

    cand = (
        sh.map_batches(lambda t: _add_shard(t, "sh"), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(df_shard, batch_format="pandas")
        .map_batches(lambda t: _add_shard(t, "doc_id"), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(prefix_flag_shard, batch_format="pandas")
        .map_batches(lambda t: _add_shard(t, "sh"), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(pair_gen_shard, batch_format="pandas")
        .map_batches(shard_on_pair, batch_format="pyarrow")
        .groupby("pshard")
        .map_groups(dedup_pairs_shard, batch_format="pandas")
        .materialize()
    )

    empty_schema = {
        "a": None,
        "b": None,
        "n_common": pa.int64(),
        "n_a": pa.int64(),
        "n_b": pa.int64(),
    }
    if cand.count() == 0:
        id_t = dict(zip(ds.schema().names, ds.schema().types))["doc_id"]
        return rd.from_arrow(
            pa.table(
                {
                    c: pa.array([], id_t if t is None else t)
                    for c, t in empty_schema.items()
                }
            )
        )

    cand_ids = (
        cand.map_batches(
            lambda t: pa.table(
                {
                    "doc_id": pa.concat_arrays(
                        [t.column("a").combine_chunks(), t.column("b").combine_chunks()]
                    ),
                    "m": pa.array(np.ones(2 * t.num_rows, dtype=np.int8)),
                }
            ),
            batch_format="pyarrow",
        )
        .map_batches(lambda t: _add_shard(t, "doc_id"), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(lambda g: g.drop_duplicates("doc_id")[["doc_id", "m"]], batch_format="pandas")
        .materialize()
    )
    n_cand_ids = cand_ids.count()
    cand_sets = keyed_attach(
        sets, cand_ids, "doc_id", ["m"],
        right_count=n_cand_ids, broadcast_cap=join_broadcast_cap,
    ).map_batches(
        lambda t: t.filter(pc.equal(t.column("m"), 1)).drop_columns(["m"]),
        batch_format="pyarrow",
    )

    def _verify_tbl(ab_pairs, get_a, get_b) -> pa.Table:
        rows = {"a": [], "b": [], "n_common": [], "n_a": [], "n_b": []}
        for i, (a_, b_) in enumerate(ab_pairs):
            sa, sb = get_a(a_, i), get_b(b_, i)
            c = len(sa & sb)
            if den * c >= num * len(sa):  # directed: a contained in b
                rows["a"].append(a_)
                rows["b"].append(b_)
                rows["n_common"].append(c)
                rows["n_a"].append(len(sa))
                rows["n_b"].append(len(sb))
        return pa.table(
            {
                "a": pa.array(rows["a"]),
                "b": pa.array(rows["b"]),
                "n_common": pa.array(rows["n_common"], pa.int64()),
                "n_a": pa.array(rows["n_a"], pa.int64()),
                "n_b": pa.array(rows["n_b"], pa.int64()),
            }
        )

    if n_cand_ids <= join_broadcast_cap:
        set_lookup: dict = {}
        for t in ray.get(cand_sets.to_arrow_refs()):
            for d, ss in zip(t.column("doc_id").to_pylist(), t.column("shs").to_pylist()):
                set_lookup[d] = frozenset(ss)
        set_ref = ray.put(set_lookup)

        def verify_bcast(t: pa.Table) -> pa.Table:
            lk = ray.get(set_ref)
            ab = list(zip(t.column("a").to_pylist(), t.column("b").to_pylist()))
            return _verify_tbl(ab, lambda x, i: lk[x], lambda y, i: lk[y])

        return cand.map_batches(verify_bcast, batch_format="pyarrow")

    def rename(cols: dict):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns([cols.get(n, n) for n in t.column_names])

        return fn

    sets_a = cand_sets.map_batches(rename({"doc_id": "a", "shs": "sh_a"}), batch_format="pyarrow")
    sets_b = cand_sets.map_batches(rename({"doc_id": "b", "shs": "sh_b"}), batch_format="pyarrow")
    with_b = keyed_attach(
        keyed_attach(
            cand, sets_a, "a", ["sh_a"],
            right_count=n_cand_ids, broadcast_cap=join_broadcast_cap,
        ),
        sets_b, "b", ["sh_b"],
        right_count=n_cand_ids, broadcast_cap=join_broadcast_cap,
    )

    def verify_join(t: pa.Table) -> pa.Table:
        ab = list(zip(t.column("a").to_pylist(), t.column("b").to_pylist()))
        ha = t.column("sh_a").to_pylist()
        hb = t.column("sh_b").to_pylist()
        return _verify_tbl(ab, lambda x, i: set(ha[i]), lambda y, i: set(hb[i]))

    return with_b.map_batches(verify_join, batch_format="pyarrow")


def _emb_matrix(t: pa.Table, id_col: str) -> tuple[np.ndarray, np.ndarray]:
    """(ids, L2-normalized float64 matrix) from an Arrow block, zero-copy
    flatten of the fixed-width list column."""
    ids = np.asarray(t.column(id_col).to_pylist())
    col = t.column("embedding").combine_chunks()
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.float64)
    M = flat.reshape(t.num_rows, flat.size // max(1, t.num_rows))
    M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    return ids, M


@ray.remote(num_cpus=0.5)
def _pack_block(t: pa.Table, id_col: str):
    return _emb_matrix(t, id_col)

@ray.remote(num_cpus=0.5)
def _block_pair_sims(pa_, pb_, threshold: float, same: bool) -> pa.Table:
    ia, A = pa_
    ib, B = pb_
    sims = A @ B.T
    ii, jj = np.where(sims >= threshold)
    if same:
        keep = ii < jj
        ii, jj = ii[keep], jj[keep]
    out_a, out_b, out_c = [], [], []
    for r, c in zip(ii, jj):
        x, y = int(ia[r]), int(ib[c])
        if x == y:
            continue
        if x > y:
            x, y = y, x
        out_a.append(x)
        out_b.append(y)
        out_c.append(float(sims[r, c]))
    return pa.table(
        {
            "a": pa.array(out_a, pa.int64()),
            "b": pa.array(out_b, pa.int64()),
            "cos": pa.array(out_c, pa.float64()),
        }
    )


def embedding_neardup_lsh(
    emb: rd.Dataset,
    threshold: float = 0.8,
    id_col: str = "vec_id",
    n_planes: int = 14,
    n_tables: int = 8,
    seed: int = 13,
    bucket_cap: int = 2000,
    join_broadcast_cap: int = 500_000,
) -> tuple[pa.Table, dict]:
    """Sub-quadratic embedding near-dup — the at-scale path next to the
    exact block-pair join: random-hyperplane LSH (per table, bucket on the
    sign pattern of n_planes projections; cos ≥ t pairs collide in one
    table with prob 1-(θ/π)·n_planes-ish, recall stacked over n_tables),
    candidate pairs from bucket co-membership, exact cosine verify with
    vectors attached via the size-gated keyed join. Over-cap buckets are
    skipped and COUNTED (no silent drops). Returns (pairs, stats); recall
    vs the exact op is pinned in tests."""
    # materialize once: the input chain feeds four consumers below
    # (bucketize, count, both keyed_attach sides) — without this each
    # consumer re-executes the whole upstream pipeline
    emb = emb.materialize()
    first = emb.limit(1).take_all()
    if not first:
        return (
            pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                      "cos": pa.array([], pa.float64())}),
            {"candidate_pairs": 0, "confirmed_pairs": 0, "skipped_buckets": 0},
        )
    dim = len(first[0]["embedding"])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, n_planes, dim))
    planes_ref = ray.put(planes)

    # pack ALL ceil(n_planes/8) sign bytes into the bucket code (packing a
    # fixed 2-byte prefix would silently ignore planes beyond 16 and decouple
    # bucket granularity from the requested parameter)
    if n_planes > 56:
        raise ValueError("n_planes must be <= 56 (bucket code packs into int64)")
    n_bytes = (n_planes + 7) // 8
    byte_shifts = (np.arange(n_bytes, dtype=np.int64) * 8)[None, :]

    def bucketize(t: pa.Table) -> pa.Table:
        P = ray.get(planes_ref)
        ids, M = _emb_matrix(t, id_col)
        ids64 = ids.astype(np.int64)
        out_ids, out_buckets = [], []
        for ti in range(n_tables):
            bits = (M @ P[ti].T) > 0  # (n, n_planes) sign pattern
            keys = np.packbits(bits, axis=1, bitorder="little")[:, :n_bytes]
            codes = (keys.astype(np.int64) << byte_shifts).sum(axis=1)
            out_ids.append(ids64)
            # int64 bucket key (table index in the top byte — codes fit 56
            # bits): same grouping as the old "ti:code" strings, no per-row
            # Python string formatting
            out_buckets.append((np.int64(ti) << np.int64(56)) | codes)
        return pa.table(
            {"doc_id": pa.array(np.concatenate(out_ids), pa.int64()),
             "bucket": pa.array(np.concatenate(out_buckets), pa.int64())}
        )

    def bucket_pairs_shard(g: pd.DataFrame) -> pd.DataFrame:
        # over-cap buckets emit one (-1,-1) sentinel row each — counted,
        # never silently dropped. Pair combos are vectorized (triu_indices).
        frames = []
        skipped = 0
        for _, grp in g.groupby("bucket"):
            ids = np.sort(grp["doc_id"].to_numpy().astype(np.int64))
            m = len(ids)
            if m < 2:
                continue
            if m > bucket_cap:
                skipped += 1
                continue
            i, j = np.triu_indices(m, 1)
            frames.append(pd.DataFrame({"a": ids[i], "b": ids[j]}))
        if skipped:
            frames.append(
                pd.DataFrame(
                    {"a": np.full(skipped, -1, np.int64), "b": np.full(skipped, -1, np.int64)}
                )
            )
        if not frames:
            return pd.DataFrame(
                {"a": pd.Series([], dtype=np.int64), "b": pd.Series([], dtype=np.int64)}
            )
        # shard-local pre-dedup (a pair recurs across buckets of the same
        # shard) — shrinks the pair shuffle before the global dedup
        return pd.concat(frames, ignore_index=True).drop_duplicates(["a", "b"])

    def dedup_pairs_shard(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=["a", "b"])[["a", "b"]]

    def shard_on_pair(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        return t.append_column(
            "pshard", pa.array(((a * 1000003 + b) % _N_SHARDS).astype(np.int32))
        )

    bucketed = emb.map_batches(bucketize, batch_format="pyarrow").map_batches(
        lambda t: _add_shard(t, "bucket"), batch_format="pyarrow"
    )
    raw_pairs = (
        bucketed.groupby("shard")
        .map_groups(bucket_pairs_shard, batch_format="pandas")
        .materialize()
    )
    skipped = int(
        raw_pairs.map_batches(
            lambda t: pa.table(
                {"s": pa.array(
                    [int(pc.sum(pc.cast(pc.equal(t.column("a"), -1), pa.int64())).as_py() or 0)],
                    pa.int64(),
                )}
            ),
            batch_format="pyarrow",
        ).sum("s")
        or 0
    )
    cand = (
        raw_pairs.map_batches(
            lambda t: t.filter(pc.not_equal(t.column("a"), -1)), batch_format="pyarrow"
        )
        .map_batches(shard_on_pair, batch_format="pyarrow")
        .groupby("pshard")
        .map_groups(dedup_pairs_shard, batch_format="pandas")
        .materialize()
    )
    stats = {"candidate_pairs": cand.count(), "skipped_buckets": skipped}

    n_vecs = emb.count()
    emb_a = emb.map_batches(
        lambda t: pa.table({"a": t.column(id_col), "va": t.column("embedding")}),
        batch_format="pyarrow",
    )
    emb_b = emb.map_batches(
        lambda t: pa.table({"b": t.column(id_col), "vb": t.column("embedding")}),
        batch_format="pyarrow",
    )
    with_a = keyed_attach(
        cand, emb_a, "a", ["va"], right_count=n_vecs, broadcast_cap=join_broadcast_cap
    )
    with_b = keyed_attach(
        with_a, emb_b, "b", ["vb"], right_count=n_vecs, broadcast_cap=join_broadcast_cap
    )

    def verify(t: pa.Table) -> pa.Table:
        # vectorized row-wise cosine over the whole batch (a Python loop
        # here costs ~2 µs/pair x millions of candidates)
        if t.num_rows == 0:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "cos": pa.array([], pa.float64())}
            )
        A = np.asarray(t.column("va").to_pylist(), dtype=np.float64)
        B = np.asarray(t.column("vb").to_pylist(), dtype=np.float64)
        num = np.einsum("ij,ij->i", A, B)
        den = np.maximum(
            np.linalg.norm(A, axis=1) * np.linalg.norm(B, axis=1), 1e-12
        )
        cos = num / den
        keep = cos >= threshold
        return pa.table(
            {
                "a": pc.cast(t.column("a"), pa.int64()).filter(pa.array(keep)),
                "b": pc.cast(t.column("b"), pa.int64()).filter(pa.array(keep)),
                "cos": pa.array(cos[keep], pa.float64()),
            }
        )

    tables = _collect_arrow(
        with_b.map_batches(verify, batch_format="pyarrow"), ["a", "b", "cos"]
    )
    if not tables:
        stats["confirmed_pairs"] = 0
        return (
            pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                      "cos": pa.array([], pa.float64())}),
            stats,
        )
    out = pa.concat_tables(tables)
    out = out.take(pc.sort_indices(out, sort_keys=[("a", "ascending"), ("b", "ascending")]))
    stats["confirmed_pairs"] = out.num_rows
    return out, stats


def embedding_neardup_pairs(
    emb: rd.Dataset, threshold: float = 0.95, id_col: str = "vec_id"
) -> pa.Table:
    """EXACT embedding-cosine near-dup as a distributed block-pair join: the
    dataset's materialized blocks stay in the object store; one Ray task per
    block pair (i ≤ j) does the cross matmul and emits a<b pairs with cos ≥
    threshold. Driver memory is O(#blocks + result pairs) — the r1 version's
    whole-table to_pandas + dense broadcast is gone. Exact all-pairs is
    inherently O(n²) compute; the sub-quadratic scale path is knn_ivf-style
    bucketing (similarity.py) at lower recall."""
    mat = emb.materialize()
    n = mat.count()
    # coalesce to matmul-sized blocks: B(B+1)/2 tasks, each an ~8k x 8k
    # cross product — hundreds of tiny parquet blocks would mean 10^4+
    # trivial tasks (scheduling-bound), giant blocks blow worker memory
    target = max(1, min((n + 8191) // 8192, 128))
    if mat.num_blocks() and abs(mat.num_blocks() - target) > max(2, target // 2):
        mat = mat.repartition(target).materialize()
    refs = [
        ref
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in zip(bundle.block_refs, bundle.metadata)
        if meta.num_rows
    ]
    packed = [_pack_block.remote(r, id_col) for r in refs]
    futs = [
        _block_pair_sims.remote(packed[i], packed[j], threshold, i == j)
        for i in range(len(packed))
        for j in range(i, len(packed))
    ]
    tables = [t for t in ray.get(futs) if t.num_rows]
    if not tables:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "cos": pa.array([], pa.float64())}
        )
    out = pa.concat_tables(tables)
    # duplicate (a,b) can only arise from self-comparison symmetry, which
    # `same`/id ordering already excludes — every unordered block pair runs once
    return out.take(pc.sort_indices(out, sort_keys=[("a", "ascending"), ("b", "ascending")]))


def substring_dup_pairs(
    ds: rd.Dataset,
    k: int = 8,
    max_docs_per_gram: int = 1000,
    n_shards: int | None = None,
) -> rd.Dataset:
    """Exact cross-document duplicated-substring detection (the
    suffix-array-style exact-substring dedup signal, windowed to k-token
    grams): every pair of documents sharing at least one exact k-token
    whitespace-gram, with the number of distinct shared grams. Output
    (doc_a, doc_b, n_shared_grams), doc_a < doc_b.

    Shape: per-doc DISTINCT gram strings (map-side; dedup before the
    shuffle) → hash(gram) shards (a gram's postings land in one shard, so
    per-gram doc lists are shard-complete) → per-gram pair expansion capped
    at ``max_docs_per_gram`` docs (an over-cap gram is corpus boilerplate —
    its pairs are quadratic noise; skipped grams are COUNTED in the
    'skipped_grams' attribute of the op via log, never silent) → pair-key
    shards → per-pair summed shared-gram counts. Gram STRINGS are the join
    key so the result is exactly the SQL self-join semantics; at 100 TB
    swap the key for a 128-bit gram hash (collision-free in practice) to
    shrink the shuffle ~5x — the structure is unchanged."""
    from ..functions import text as T

    if n_shards is None:
        n_shards = cluster_shards()

    def grams(t: pa.Table) -> pa.Table:
        out_g: list[str] = []
        out_d: list = []
        for did, txt in zip(
            t.column("doc_id").to_pylist(), t.column("text").to_pylist()
        ):
            txt = txt or ""
            if "\x00" in txt:
                # NUL inside a token would hit pandas' C-string hash
                # truncation in BOTH the shard router and the per-shard
                # groupby (context-dependent routing / gram merging) —
                # scrub to U+FFFD, the same policy as the engine's UTF-8
                # scrub for crawled text
                txt = txt.replace("\x00", "�")
            toks = T.tokenize(txt)
            if len(toks) < k:
                continue
            seen = {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}
            out_g.extend(seen)
            out_d.extend([did] * len(seen))
        id_type = t.schema.field("doc_id").type
        return pa.table(
            {
                "g": pa.array(out_g, pa.string()),
                "doc_id": pa.array(out_d, id_type),
            }
        )

    def shard_pairs(g: "pd.DataFrame") -> "pd.DataFrame":
        import itertools

        from collections import Counter

        pairs: Counter = Counter()
        skipped = 0
        for _, grp in g.groupby("g", sort=False):
            # unique: duplicate doc_id rows (unioned sources, re-added docs)
            # must not produce (a, a) self-pairs or double-counted pairs
            ids = np.unique(grp["doc_id"].to_numpy())
            if len(ids) < 2:
                continue
            if len(ids) > max_docs_per_gram:
                skipped += 1
                continue
            for a, b in itertools.combinations(ids.tolist(), 2):
                pairs[(a, b)] += 1
        if skipped:
            print(f"[substring_dup_pairs] skipped {skipped} over-cap grams")
        import pandas as _pd

        if not pairs:
            # dtype-preserving empty: a float64 [] here would upcast sibling
            # int64 partials on concat, splitting one pair across two string
            # keys ("179" vs "179.0") and double-counting it downstream
            e = g["doc_id"].iloc[:0]
            return _pd.DataFrame(
                {"doc_a": e, "doc_b": e.copy(), "n": _pd.Series([], dtype="int64")}
            )
        ks = list(pairs.keys())
        return _pd.DataFrame(
            {
                "doc_a": [a for a, _ in ks],
                "doc_b": [b for _, b in ks],
                "n": list(pairs.values()),
            }
        )

    def shard_sum(g: "pd.DataFrame") -> "pd.DataFrame":
        out = g.groupby(["doc_a", "doc_b"], as_index=False)["n"].sum()
        out = out.rename(columns={"n": "n_shared_grams"})
        out["n_shared_grams"] = out["n_shared_grams"].astype(np.int64)
        return out

    posting = ds.map_batches(grams, batch_format="pyarrow", batch_size=2048)
    posting = posting.map_batches(
        lambda t: _add_shard(t, "g", n_shards), batch_format="pyarrow"
    )
    part_pairs = (
        posting.groupby("shard")
        .map_groups(
            lambda g: shard_pairs(g.drop(columns=["shard"])), batch_format="pandas"
        )
    )

    def add_pair_shard(t: pa.Table) -> pa.Table:
        # \x1f separator, NEVER \x00: pandas' categorizing hasher factorizes
        # object keys through a C-string hashtable that truncates at NUL, so
        # NUL-separated keys sharing a prefix collapse into one category and
        # the SAME key routes to different shards depending on its block's
        # neighbors — splitting one pair's counts across shards
        keys = [
            f"{a}\x1f{b}"
            for a, b in zip(
                t.column("doc_a").to_pylist(), t.column("doc_b").to_pylist()
            )
        ]
        return _add_shard(
            t.append_column("_pk", pa.array(keys, pa.string())), "_pk", n_shards
        ).drop_columns(["_pk"])

    return (
        part_pairs.map_batches(add_pair_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(
            lambda g: shard_sum(g.drop(columns=["shard"])), batch_format="pandas"
        )
    )


# ---------------------------------------------------------------------------
# SemDeDup-style semantic dedup: k-means cluster, dedup within clusters only
# ---------------------------------------------------------------------------


def semantic_dedup(
    emb: rd.Dataset,
    threshold: float = 0.95,
    k: int = 16,
    n_iter: int = 8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    max_cluster: int = 8192,
) -> rd.Dataset:
    """Semantic near-dedup in the SemDeDup shape (Abbas et al. 2023,
    arXiv:2303.09540): k-means the embedding corpus, then search for
    cosine-similar pairs ONLY within each cluster and keep one
    representative (lowest id) per duplicate group. Returns a Dataset with
    one row per input vector: (id_col, rep_id, keep) — keep is False for
    the rows SemDeDup would drop.

    Scale shape (the reason this beats all-pairs at 10^8+ docs):
    - clustering is the shuffle-free broadcast k-means (ops/similarity.py
      `kmeans`): per-iteration cost is one ray.put of k×dim floats plus one
      map pass emitting k partial rows per block; no join, no groupby.
    - cluster assignment rides a single map pass that KEEPS the vector, so
      vectors arrive at their cluster's task without a join; the only
      shuffle is one groupby("cluster") — k groups, k chosen so n/k ≈
      max_cluster (SemDeDup's own cost model: within-cluster O(m²) with m
      bounded beats corpus O(n²)).
    - a cluster that still exceeds `max_cluster` (skewed corpora) is
      recursively split inside its task by deterministic random-hyperplane
      sign bits before the pairwise pass, bounding per-task memory at
      O(max_cluster²) — near-dups straddling a split plane can be missed,
      the same locality approximation SemDeDup already makes at cluster
      boundaries; split counts are surfaced in the `split_depth` column,
      never silent.
    """
    from .similarity import kmeans

    centers, _ = kmeans(emb, k=k, n_iter=n_iter, id_col=id_col, vec_col=vec_col)
    cent = centers / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    cent_ref = ray.put(cent)

    def tag(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    vec_col: t.column(vec_col),
                    "cluster": pa.array([], pa.int64()),
                }
            )
        c = ray.get(cent_ref)
        ids, M = _emb_matrix(t, id_col)
        # k-means assigns by Euclidean argmin; on normalized centers with
        # normalized rows that is cosine argmax — one matmul per block
        assign = np.argmax(M @ c.T, axis=1).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids.astype(np.int64), pa.int64()),
                vec_col: t.column(vec_col),
                "cluster": pa.array(assign, pa.int64()),
            }
        )

    tagged = emb.map_batches(tag, batch_format="pyarrow")

    def dedup_cluster(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy().astype(np.int64)
        M = np.stack(g[vec_col].to_numpy()).astype(np.float64)
        ids, rep, depth_out = semdedup_members(ids, M, threshold, max_cluster)
        return pd.DataFrame(
            {
                id_col: ids,
                "rep_id": rep,
                "keep": rep == ids,
                "split_depth": depth_out,
            }
        )

    return tagged.groupby("cluster").map_groups(
        lambda g: dedup_cluster(g.drop(columns=["cluster"])), batch_format="pandas"
    )


def semdedup_members(
    ids: np.ndarray, M: np.ndarray, threshold: float, max_cluster: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure per-cluster SemDeDup kernel, shared by the distributed
    map_groups above and the serial twin (serial_twins.py): normalize,
    id-sort, recursive hyperplane split above ``max_cluster``, in-leaf
    union-find with min-id representatives. Returns (sorted_ids, rep_ids,
    split_depth) — a deterministic pure function of the member multiset."""
    M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    order = np.argsort(ids, kind="stable")
    ids, M = ids[order], M[order]

    rep = ids.copy()
    depth_out = np.zeros(len(ids), np.int64)

    def leaf(idx: np.ndarray, depth: int) -> None:
        if len(idx) <= 1:
            return
        if len(idx) > max_cluster:
            # deterministic hyperplane split: seed by depth only, so the
            # same rows split the same way under any partitioning
            plane = np.random.default_rng(1000 + depth).standard_normal(M.shape[1])
            side = (M[idx] @ plane) >= 0.0
            if side.all() or (~side).all():
                side = np.zeros(len(idx), bool)
                side[: len(idx) // 2] = True  # degenerate: halve by id order
            leaf(idx[side], depth + 1)
            leaf(idx[~side], depth + 1)
            depth_out[idx] += 1
            return
        sims = M[idx] @ M[idx].T
        ii, jj = np.where(np.triu(sims >= threshold, k=1))
        if len(ii) == 0:
            return
        # union-find over in-leaf pairs; roots by position (ids sorted
        # ascending, so min-position root == min-id representative)
        parent = np.arange(len(idx))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(ii, jj):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                if ra > rb:
                    ra, rb = rb, ra
                parent[rb] = ra
        roots = np.array([find(i) for i in range(len(idx))])
        rep[idx] = ids[idx[roots]]

    leaf(np.arange(len(ids)), 0)
    return ids, rep, depth_out


# ---------------------------------------------------------------------------
# Content-defined chunking (CDC): shift-resistant sub-document dedup
# ---------------------------------------------------------------------------


def cdc_chunks(
    docs: rd.Dataset,
    target: int = 32,
    min_len: int = 8,
    max_len: int = 128,
) -> rd.Dataset:
    """Split each document's token stream at content-defined boundaries (a
    rolling hash over a 4-token window; boundary where hash % target == 0,
    clamped to [min_len, max_len] tokens) and emit one row per chunk:
    (doc_id, ord, chunk_hash, n_tokens). Because boundaries depend only on
    local content, an insertion near the head of a document shifts ONE
    chunk, not every chunk after it — the property that makes sub-document
    dedup work on near-identical pages (fixed-size chunking loses all
    alignment; pytest pins the shift-resistance). Pure map-side."""

    def chunk_block(df: pd.DataFrame) -> pd.DataFrame:
        out_doc, out_ord, out_hash, out_len = [], [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = text.split()
            if not toks:
                continue
            # arithmetic token hashes (seeded splitmix fold over code
            # points — the simhash-conversion discipline: deterministic,
            # process-independent, AND re-derivable by the DuckDB oracle)
            th = _str_fold_hashes(toks)
            w = th.copy()
            for k, mult in ((1, 0x9E3779B1), (2, 0x85EBCA77), (3, 0xC2B2AE3D)):
                if k < len(th):
                    w[k:] = w[k:] + th[:-k] * np.uint64(mult)
            is_cut = (w % np.uint64(target)) == 0
            cand = np.flatnonzero(is_cut)
            n = len(toks)
            bounds = [0]
            last = 0
            while last < n:  # O(#chunks), not O(#tokens)
                lo, hi = last + min_len - 1, last + max_len - 1
                ci = int(np.searchsorted(cand, lo))
                if ci < len(cand) and cand[ci] <= min(hi, n - 1):
                    cut = int(cand[ci]) + 1
                else:
                    cut = min(hi + 1, n)
                bounds.append(cut)
                last = cut
            # chunk identity = splitmix fold over the chunk's TOKEN-hash
            # sequence (equal token sequences ⇔ equal hash; no string
            # rebuild, same oracle-derivable arithmetic)
            for o, (a, b) in enumerate(zip(bounds, bounds[1:])):
                hv = 0
                for x in _splitmix64(th[a:b]).tolist():
                    hv = ((hv * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF) ^ x
                out_doc.append(doc_id)
                out_ord.append(o)
                out_hash.append(hv & 0x7FFFFFFFFFFFFFFF)
                out_len.append(b - a)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(out_doc, np.int64),
                "ord": np.asarray(out_ord, np.int64),
                "chunk_hash": np.asarray(out_hash, np.int64),
                "n_tokens": np.asarray(out_len, np.int64),
            }
        )

    return docs.map_batches(chunk_block, batch_format="pandas")


def hash_u64(s: str) -> int:
    """Deterministic 64-bit string hash (blake2b-8; Python's hash() is
    salted per process and can NEVER cross a task boundary)."""
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")


def cdc_dedup_stats(docs: rd.Dataset, **chunk_kw) -> pd.DataFrame:
    """Corpus-level storage-dedup estimate over CDC chunks: total chunks,
    distinct chunk hashes, duplicated-chunk count and the duplicated token
    mass. One hash(chunk_hash) shuffle over fixed-width rows — text never
    crosses a stage boundary after chunking."""
    chunks = cdc_chunks(docs, **chunk_kw)
    n_sh = cluster_shards()

    def shard_stats(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("chunk_hash").agg(n=("doc_id", "size"), toks=("n_tokens", "first"))
        dup = agg[agg["n"] > 1]
        return pd.DataFrame(
            {
                "total_chunks": [int(agg["n"].sum())],
                "distinct_chunks": [len(agg)],
                "dup_chunks": [int((dup["n"] - 1).sum())],
                "dup_tokens": [int(((dup["n"] - 1) * dup["toks"]).sum())],
            }
        )

    parts = (
        chunks.map_batches(lambda t: _add_shard(t, "chunk_hash", n_sh), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(
            lambda g: shard_stats(g.drop(columns=["shard"])), batch_format="pandas"
        )
        .to_pandas()
    )
    out = parts.sum().to_frame().T
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.reset_index(drop=True)


def collapse_alias_docs(
    docs: rd.Dataset, edges: rd.Dataset, n_shards: int | None = None
) -> rd.Dataset:
    """Collapse documents by rel=canonical declaration (CrawlHandle
    .alias_edges): each (src → dst) edge says src's content is a duplicate
    of dst by the SITE'S OWN declaration — the zero-false-positive dedup
    signal that complements the content-similarity families above.

    Output: one (doc_id, spans) row per FINAL id, where a src doc's final
    id is its declared dst and everything else keeps its own id; per final
    id the canonical page's own row wins, else the lexicographically first
    alias. Two bounded hash shuffles, Arrow-native end to end (list<struct>
    spans never touch pandas): (1) shard docs+edges by doc_id/src → map
    each doc to its final id via a vectorized index_in probe; (2) shard by
    final id → per-shard sort + first-of-run keep."""
    from ..stages.frontier_ops import _cluster_shards, _first_of_run_mask
    from ..state.shards import shards_of

    if n_shards is None:
        n_shards = _cluster_shards()
    dschema = docs.schema()
    span_t = dschema.types[dschema.names.index("spans")]

    def tag_docs(t: pa.Table) -> pa.Table:
        sh = shards_of(t.column("doc_id").to_pylist(), n_shards)
        return pa.table(
            {
                "key": t.column("doc_id"),
                "spans": t.column("spans"),
                "dst": pa.nulls(t.num_rows, pa.string()),
                "_shard": pa.array(sh, pa.int64()),
                "_side": pa.array(np.zeros(t.num_rows, np.int8)),
            }
        )

    def tag_edges(t: pa.Table) -> pa.Table:
        sh = shards_of(t.column("src").to_pylist(), n_shards)
        return pa.table(
            {
                "key": t.column("src"),
                "spans": pa.nulls(t.num_rows, span_t),
                "dst": t.column("dst"),
                "_shard": pa.array(sh, pa.int64()),
                "_side": pa.array(np.ones(t.num_rows, np.int8)),
            }
        )

    both = docs.map_batches(tag_docs, batch_format="pyarrow").union(
        edges.map_batches(tag_edges, batch_format="pyarrow")
    )

    def resolve(g: pa.Table) -> pa.Table:
        e = g.filter(pc.equal(g.column("_side"), 1))
        d = g.filter(pc.equal(g.column("_side"), 0))
        idx = pc.index_in(d.column("key"), value_set=e.column("key").combine_chunks())
        final = pc.coalesce(pc.take(e.column("dst"), idx), d.column("key"))
        sh2 = shards_of(final.to_pylist(), n_shards)
        return pa.table(
            {
                "final_id": final,
                "orig_id": d.column("key"),
                "spans": d.column("spans"),
                "_shard2": pa.array(sh2, pa.int64()),
            }
        )

    resolved = both.groupby("_shard").map_groups(resolve, batch_format="pyarrow")

    def keep_best(g: pa.Table) -> pa.Table:
        is_alias = pc.cast(
            pc.not_equal(g.column("final_id"), g.column("orig_id")), pa.int8()
        )
        g = g.append_column("_alias", is_alias)
        order = pc.sort_indices(
            g,
            sort_keys=[
                ("final_id", "ascending"),
                ("_alias", "ascending"),   # the canonical page's own row first
                ("orig_id", "ascending"),
            ],
        )
        g = g.take(order)
        g = g.filter(_first_of_run_mask(g.column("final_id")))
        return pa.table({"doc_id": g.column("final_id"), "spans": g.column("spans")})

    return resolved.groupby("_shard2").map_groups(keep_best, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Exact duplicate-SPAN marking + trimming (Lee et al., "Deduplicating
# Training Data Makes Language Models Better", ACL 2022 — the ExactSubstr
# variant, windowed to k-token grams instead of a distributed suffix
# array). Where substring_dup_pairs above reports WHICH documents share
# text, this reports WHERE: the maximal token spans of each document whose
# every k-gram occurs more than once in the corpus — the spans ExactSubstr
# would cut before training.
# ---------------------------------------------------------------------------


def position_grams(batch: pd.DataFrame, k: int) -> pd.DataFrame:
    """All k-token-gram occurrences of a batch of documents as
    (g, doc_id, pos) rows — pos is the gram's FIRST-token index in the
    doc's whitespace token sequence. Vectorized: one explode + k-1 shifted
    string concats per batch, no per-document Python loop. Pure (pandas in,
    pandas out), so the serial twin runs THIS same code over the whole
    corpus at once and must agree row-for-row."""
    txt = batch["text"].fillna("").str.replace("\x00", "�")
    toks = txt.str.lower().str.split(r"\s+", regex=True)
    frame = pd.DataFrame(
        {
            "doc_id": batch["doc_id"].to_numpy(),
            # row, not doc_id, scopes positions and gram windows: a corpus
            # with a repeated doc_id must gram each ROW independently so
            # block structure (engine) and whole-corpus frames (twin) agree
            "row": np.arange(len(batch), dtype=np.int64),
            "tok": toks.to_numpy(),
        }
    ).explode("tok", ignore_index=True)
    frame = frame[frame["tok"].notna() & (frame["tok"] != "")]
    if not len(frame):
        return pd.DataFrame(
            {
                "g": pd.Series([], dtype=object),
                "doc_id": pd.Series([], dtype=batch["doc_id"].dtype),
                "pos": pd.Series([], dtype=np.int64),
            }
        )
    frame["pos"] = frame.groupby("row", sort=False).cumcount().to_numpy()
    g = frame["tok"].astype(object).copy()
    for i in range(1, k):
        g = g + " " + frame["tok"].shift(-i)
    same_row = frame["row"].shift(-(k - 1)) == frame["row"]
    keep = same_row & g.notna()
    return pd.DataFrame(
        {
            "g": g[keep].to_numpy(dtype=object),
            "doc_id": frame.loc[keep, "doc_id"].to_numpy(),
            "pos": frame.loc[keep, "pos"].to_numpy().astype(np.int64),
        }
    )


def dup_spans_kernel(doc_ids: np.ndarray, positions: np.ndarray, k: int) -> pd.DataFrame:
    """Merge duplicated gram positions into maximal per-document token
    spans: gram intervals [p, p+k) merge when overlapping or adjacent.
    Pure numpy over (doc_id, pos) pairs — shared by the distributed
    finalize stage and the serial twin, so span boundaries cannot drift
    between paths. Returns (doc_id, span_start, span_end) with end
    exclusive, sorted by (doc_id, span_start)."""
    if not len(doc_ids):
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=np.int64),
                "span_start": pd.Series([], dtype=np.int64),
                "span_end": pd.Series([], dtype=np.int64),
            }
        )
    order = np.lexsort((positions, doc_ids))
    d, p = doc_ids[order], positions[order]
    brk = np.ones(len(d), dtype=bool)
    brk[1:] = (d[1:] != d[:-1]) | (p[1:] > p[:-1] + k)
    span_id = np.cumsum(brk) - 1
    starts = p[brk]
    ends = np.maximum.reduceat(p, np.flatnonzero(brk)) + k
    return pd.DataFrame(
        {
            "doc_id": d[brk],
            "span_start": starts.astype(np.int64),
            "span_end": ends.astype(np.int64),
        }
    )


def dup_span_trim(
    ds: rd.Dataset, k: int = 8, n_shards: int | None = None
) -> rd.Dataset:
    """Exact duplicated-span detection over a documents Dataset: the
    maximal token spans whose every k-gram occurs >1 time corpus-wide
    (other document OR another position of the same document). Output
    (doc_id, span_start, span_end) — the cut list a trimming pass applies.

    Distributed shape — two linear shuffles, zero driver state:
    1. every gram occurrence (g, doc_id, pos) hash(g)-shards; a gram's
       postings are shard-complete, so group size IS the global count and
       occurrences in >1-sized groups are the duplicated positions;
    2. duplicated (doc_id, pos) rows hash(doc_id)-shard and merge into
       maximal spans via the shared pure kernel.
    Gram STRINGS key the shuffle for oracle-exactness; at 100 TB swap the
    key for a 128-bit gram hash (collision-free in practice) to shrink
    shuffle bytes ~5× — structure unchanged (the substring_dup_pairs
    precedent). Span merging is per-doc and order-free, so the result is a
    pure function of the corpus under any partitioning."""
    if n_shards is None:
        n_shards = cluster_shards()

    grams = ds.map_batches(
        lambda b, k=k: position_grams(b, k), batch_format="pandas"
    )

    def mark_dups(g: pd.DataFrame) -> pd.DataFrame:
        dup = g.groupby("g", sort=False)["g"].transform("size") > 1
        out = g.loc[dup, ["doc_id", "pos"]]
        return out

    dup_pos = (
        grams.map_batches(
            lambda t: _add_shard(t, "g", n_shards), batch_format="pyarrow"
        )
        .groupby("shard")
        .map_groups(
            lambda g: mark_dups(g.drop(columns=["shard"])), batch_format="pandas"
        )
    )

    def finalize(g: pd.DataFrame, k=k) -> pd.DataFrame:
        return dup_spans_kernel(
            g["doc_id"].to_numpy(), g["pos"].to_numpy().astype(np.int64), k
        )

    return (
        dup_pos.map_batches(
            lambda t: _add_shard(t, "doc_id", n_shards), batch_format="pyarrow"
        )
        .groupby("shard")
        .map_groups(
            lambda g: finalize(g.drop(columns=["shard"])), batch_format="pandas"
        )
    )


# ---------------------------------------------------------------------------
# Incremental fuzzy dedup: a NEW document increment vs a PRIOR corpus's
# persisted MinHash signatures — the daily-crawl shape (exact incremental
# dedup is `q_incremental_dedup`; this is its near-duplicate complement).
# The prior corpus is never re-shingled: its (sig, hs) table is an output
# of the previous run. Only cross-set (new × prior) candidate pairs are
# generated — within-set duplicates are the ordinary minhash_lsh_pairs
# job and stay out of this op's contract.
# ---------------------------------------------------------------------------


def minhash_incremental(
    new_docs: rd.Dataset,
    prior_sigs: rd.Dataset,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.6,
    bucket_cap: int = 200,
    join_broadcast_cap: int = 500_000,
    sig_broadcast_cap: int = 50_000,
) -> pa.Table:
    """Near-duplicate matches of new documents against a prior corpus.

    prior_sigs: (doc_id, sig, hs) — minhash_signatures(prior,
    with_hashes=True) persisted by the previous run. Shape: new docs
    signature pass → both sides band-explode with a side flag → hash(bhash)
    shards (bucket membership is shard-complete) → per-bucket CROSS pairs
    only, capped + counted → pair-shard dedup → exact-Jaccard verify on
    the union'd hash sets via keyed_attach (broadcast under the cap).
    Output (new_id, prior_id, n_common, n_new, n_prior) — integer-exact:
    the threshold test j ≥ t is evaluated as den·c ≥ num·(n_a+n_b−c).
    Sorted (new_id, prior_id)."""
    from fractions import Fraction

    frac = Fraction(threshold).limit_denominator(1000)
    num, den = frac.numerator, frac.denominator

    new_sigs = minhash_signatures(
        new_docs, num_perm, shingle_k, with_hashes=True
    ).materialize()

    def tag(flag: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "is_new", pa.array(np.full(t.num_rows, flag, np.int8))
            )

        return fn

    sigs_all = (
        new_sigs.map_batches(tag(1), batch_format="pyarrow")
        .union(prior_sigs.map_batches(tag(0), batch_format="pyarrow"))
        .materialize()
    )

    # id types stay type-agnostic (crawl corpora key docs by URL string,
    # testdata by int64): _explode_bands_table's vectorized take carries the
    # input column's type through every stage
    banded = sigs_all.map_batches(
        lambda t: t.select(["doc_id", "sig", "is_new"]), batch_format="pyarrow"
    ).map_batches(
        lambda t: _explode_bands_table(t, bands, num_perm, carry=("is_new",)),
        batch_format="pyarrow",
    ).map_batches(
        lambda t: _add_shard(t, "bhash"), batch_format="pyarrow"
    )

    def bucket_cross_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-bucket new×prior cross product: sort once, slice
        # bucket segments, repeat/tile each — no Python pair loops
        g2 = g.drop_duplicates(["bhash", "doc_id"]).sort_values(
            ["bhash", "is_new", "doc_id"], kind="stable"
        )
        ids = g2["doc_id"].to_numpy()
        flags = g2["is_new"].to_numpy()
        bh = g2["bhash"].to_numpy()
        cut = np.nonzero(bh[1:] != bh[:-1])[0] + 1
        starts = np.concatenate([[0], cut])
        ends = np.concatenate([cut, [len(bh)]])
        out_n, out_p = [], []
        skipped = 0
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2 or m > bucket_cap:
                skipped += int(m > bucket_cap)
                continue
            # sorted by is_new: priors (0) first, then news (1)
            k = int(np.searchsorted(flags[s:e], 1))
            priors, news = ids[s : s + k], ids[s + k : e]
            if len(priors) == 0 or len(news) == 0:
                continue
            out_n.append(np.repeat(news, len(priors)))
            out_p.append(np.tile(priors, len(news)))
        if skipped:
            print(f"[minhash_incremental] skipped {skipped} over-cap buckets")
        if out_n:
            a, b = np.concatenate(out_n), np.concatenate(out_p)
        else:
            # dtype-preserving (the substring_dup_pairs precedent): an empty
            # float64 [] would upcast sibling partials on concat
            a, b = ids[:0], ids[:0].copy()
        return pd.DataFrame({"a": a, "b": b})

    # no candidate-dedup exchange: cross-shard band collisions leave ≤bands
    # duplicates per pair, verified redundantly (cheap) and drop-duplicated
    # on the small confirmed graph at collect — one fewer all-to-all
    cand = (
        banded.groupby("shard")
        .map_groups(bucket_cross_pairs, batch_format="pandas")
        .map_batches(
            lambda g: g.drop_duplicates(subset=["a", "b"]), batch_format="pandas"
        )
        .materialize()
    )
    id_type = new_sigs.schema().base_schema.field("doc_id").type
    empty = pa.table(
        {
            "new_id": pa.array([], id_type),
            "prior_id": pa.array([], id_type),
            "n_common": pa.array([], pa.int64()),
            "n_new": pa.array([], pa.int64()),
            "n_prior": pa.array([], pa.int64()),
        }
    )
    if cand.count() == 0:
        return empty

    # hash-set lookup for every doc named in a candidate pair. Small
    # corpora (≤ sig_broadcast_cap rows) broadcast the whole sig table in
    # one hop; above the cap, semi-join the sig table to the candidate ids
    # FIRST (keyed_attach, distributed) so the driver only ever collects
    # candidate-sized hs data, never the corpus (minhash_lsh_pairs pattern)
    if sigs_all.count() <= sig_broadcast_cap:
        sets = sigs_all.map_batches(
            lambda t: t.select(["doc_id", "hs"]), batch_format="pyarrow"
        )
    else:
        cand_ids = (
            cand.map_batches(
                lambda t: pa.table(
                    {
                        "doc_id": pa.concat_arrays(
                            [t.column("a").combine_chunks(), t.column("b").combine_chunks()]
                        ),
                        "m": pa.array(np.ones(2 * t.num_rows, dtype=np.int8)),
                    }
                ),
                batch_format="pyarrow",
            )
            .map_batches(lambda t: _add_shard(t, "doc_id"), batch_format="pyarrow")
            .groupby("shard")
            .map_groups(
                lambda g: g.drop_duplicates("doc_id")[["doc_id", "m"]],
                batch_format="pandas",
            )
            .materialize()
        )
        sets = keyed_attach(
            sigs_all.map_batches(
                lambda t: t.select(["doc_id", "hs"]), batch_format="pyarrow"
            ),
            cand_ids, "doc_id", ["m"],
            right_count=cand_ids.count(), broadcast_cap=join_broadcast_cap,
        ).map_batches(
            lambda t: t.filter(pc.equal(t.column("m"), 1)).drop_columns(["m"]),
            batch_format="pyarrow",
        )
    lk: dict[int, np.ndarray] = {}
    for t in ray.get(sets.to_arrow_refs()):
        for d, hs in zip(t.column("doc_id").to_pylist(), _list_views(t.column("hs"))):
            lk[d] = hs
    lk_ref = ray.put(lk)

    def verify(t: pa.Table) -> pa.Table:
        lk_ = ray.get(lk_ref)
        out = {"new_id": [], "prior_id": [], "n_common": [], "n_new": [], "n_prior": []}
        for a_, b_ in zip(t.column("a").to_pylist(), t.column("b").to_pylist()):
            sa, sb = lk_[a_], lk_[b_]
            c = _sorted_intersect_count(sa, sb)
            if den * c >= num * (len(sa) + len(sb) - c):
                out["new_id"].append(a_)
                out["prior_id"].append(b_)
                out["n_common"].append(c)
                out["n_new"].append(len(sa))
                out["n_prior"].append(len(sb))
        tid = t.schema.field("a").type
        return pa.table(
            {
                "new_id": pa.array(out["new_id"], tid),
                "prior_id": pa.array(out["prior_id"], tid),
                "n_common": pa.array(out["n_common"], pa.int64()),
                "n_new": pa.array(out["n_new"], pa.int64()),
                "n_prior": pa.array(out["n_prior"], pa.int64()),
            }
        )

    pdf = cand.map_batches(verify, batch_format="pyarrow").to_pandas()
    if not len(pdf):
        return empty
    pdf = (
        pdf.drop_duplicates(subset=["new_id", "prior_id"])
        .sort_values(["new_id", "prior_id"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(pdf, preserve_index=False)


def levenshtein_kernel(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance (matches DuckDB's levenshtein(), the
    oracle function) — numpy row DP, O(|a|·|b|) on the truncated snippets
    the blocking pass feeds it."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    bv = np.frombuffer(b.encode("utf-32-le"), np.uint32)
    prev = np.arange(len(bv) + 1, dtype=np.int64)
    for i, ca in enumerate(a):
        cur = np.empty(len(bv) + 1, np.int64)
        cur[0] = i + 1
        sub = prev[:-1] + (bv != np.uint32(ord(ca)))
        np.minimum(sub, prev[1:] + 1, out=cur[1:])
        for j in range(len(bv)):  # insertion chain must propagate serially
            if cur[j] + 1 < cur[j + 1]:
                cur[j + 1] = cur[j] + 1
        prev = cur
    return int(prev[-1])


def editdist_verify(
    docs: rd.Dataset,
    max_dist: int = 40,
    trunc: int = 200,
    block_tokens: int = 5,
) -> pd.DataFrame:
    """Blocked edit-distance near-duplicate verification — the classic
    record-linkage shape (block on a cheap key, verify candidates with an
    expensive exact measure): documents sharing their first-5-token prefix
    pair up, and each pair's truncated texts get a unit-cost Levenshtein
    check ≤ ``max_dist``. Blocking keys hash-shard (a key's docs are
    shard-complete, so pairs generate locally); the DP runs only on
    candidate pairs, never the corpus. Returns (a, b, editdist) sorted.
    DuckDB hash-checked DIRECTLY against a self-join + levenshtein()
    oracle (same truncation, same key)."""
    from .textstats import tokenize

    n_sh = cluster_shards()

    def project(g: pd.DataFrame) -> pd.DataFrame:
        toks = tokenize(g.set_index("doc_id")["text"])
        heads = toks.groupby(level=0).apply(
            lambda s: " ".join(s.iloc[:block_tokens])
        )
        out = pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "snippet": g["text"].str.slice(0, trunc).to_numpy(object),
            }
        )
        out["bkey"] = out["doc_id"].map(heads).fillna("").to_numpy(object)
        return out

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, grp in g.groupby("bkey"):
            if len(grp) < 2:
                continue
            recs = sorted(
                zip(grp["doc_id"].astype(np.int64), grp["snippet"]),
                key=lambda r: r[0],
            )
            for i in range(len(recs)):
                for j in range(i + 1, len(recs)):
                    d = levenshtein_kernel(recs[i][1], recs[j][1])
                    if d <= max_dist:
                        rows.append((int(recs[i][0]), int(recs[j][0]), d))
        return pd.DataFrame(rows, columns=["a", "b", "editdist"]).astype(np.int64)

    out = (
        docs.map_batches(project, batch_format="pandas")
        .map_batches(lambda t: _add_shard(t, "bkey", n_sh), batch_format="pyarrow")
        .groupby("shard")
        .map_groups(lambda g: verify(g.drop(columns=["shard"])), batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["a", "b"]).reset_index(drop=True).astype(np.int64)
