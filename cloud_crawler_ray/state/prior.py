"""Prior-crawl index for incremental recrawl (conditional GET).

Target-side addition — the reference always refetches from scratch; its
Redis page store (redis_page_store.rb) is the precedent for cluster-hosted
per-URL crawl state, which is exactly what these shards are: canonical_url
→ (etag, admitted child links) from a previous crawl's raw parquet,
hash-partitioned across actors like the URL-seen shards (state/shards.py).

- **Load** is distributed: a ``map_batches`` pass over the prior crawl's
  raw output routes each block's validated rows to their shard in ONE
  batched RPC per (block, shard) — the driver never holds the index.
- **Attach** is the AdmitFrontier pattern (stages/frontier_ops.py): a
  pre-fetch ``map_batches`` stage adds ``prior_etag`` / ``prior_links``
  columns to frontier jobs via one batched RPC per shard per block. The
  fetch stage sends If-None-Match and, on 304, replays the prior links.
- Document spans are NOT loaded into actor memory (they are the corpus);
  a 304's document is filled from the prior documents parquet by an
  Arrow-native semi-join at read time (CrawlHandle.documents()).

At 10^10-URL scale the per-shard dict becomes a disk-backed KV per
partition (same key-partitioning, same batched-RPC interface); links
dominate the footprint — they are the crawl's own link graph, already
hash-partitioned here by canonical_url.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import ray

from .shards import group_indices_by_shard


@ray.remote(num_cpus=0)
class PriorShard:
    """One hash partition of the prior-crawl index."""

    def __init__(self) -> None:
        self.etags: dict[str, str] = {}
        self.links: dict[str, list[str]] = {}

    def load(self, keys: list[str], etags: list[str], links: list[list[str]]) -> int:
        for k, e, ls in zip(keys, etags, links):
            self.etags[k] = e
            self.links[k] = ls
        return len(self.etags)

    def get(self, keys: list[str]) -> tuple[list[str], list[list[str] | None]]:
        return (
            [self.etags.get(k, "") for k in keys],
            [self.links.get(k) for k in keys],
        )

    def size(self) -> int:
        return len(self.etags)


class _PriorLoader:
    """map_batches callable: route a raw-parquet block's validated rows
    (fetched, 200 — or 304 in a recrawl chain — with a non-empty etag)
    to their shard actors."""

    def __init__(self, shards: list):
        self.shards = shards
        self.n = len(shards)

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.and_(
            pc.and_(t.column("fetched"), pc.not_equal(t.column("etag"), "")),
            pc.is_in(t.column("code"), value_set=pa.array([200, 304], pa.int32())),
        )
        t = t.filter(keep)
        keys = t.column("canonical_url").to_pylist()
        if keys:
            etags = t.column("etag").to_pylist()
            links = t.column("child_urls").to_pylist()
            groups = group_indices_by_shard(keys, self.n)
            futs = [
                self.shards[sid].load.remote(
                    [keys[i] for i in idxs],
                    [etags[i] for i in idxs],
                    [links[i] for i in idxs],
                )
                for sid, idxs in groups.items()
            ]
            ray.get(futs)
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})


class PriorAttach:
    """Pre-fetch map_batches stage: append ``prior_etag`` (string) and
    ``prior_links`` (list<string>, null when no prior) columns to frontier
    job rows — one batched RPC per shard per block. Also callable on a
    plain Arrow table for the driver-side planner path."""

    def __init__(self, shards: list):
        self.shards = shards
        self.n = len(shards)

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column("canonical_url").to_pylist()
        etags: list[str] = [""] * len(keys)
        links: list[list[str] | None] = [None] * len(keys)
        if keys:
            groups = group_indices_by_shard(keys, self.n)
            futs = {
                sid: self.shards[sid].get.remote([keys[i] for i in idxs])
                for sid, idxs in groups.items()
            }
            for sid, idxs in groups.items():
                es, ls = ray.get(futs[sid])
                for i, e, l in zip(idxs, es, ls):
                    etags[i] = e
                    links[i] = l
        return batch.append_column(
            "prior_etag", pa.array(etags, pa.string())
        ).append_column("prior_links", pa.array(links, pa.list_(pa.string())))


class PriorIndex:
    """Sharded prior-crawl index with a distributed parquet load."""

    def __init__(self, n_shards: int):
        self.n = n_shards
        self.shards = [PriorShard.remote() for _ in range(n_shards)]

    def load_from_raw(self, prior_out_dir: str) -> None:
        import ray.data as rd

        files = sorted(
            glob.glob(os.path.join(prior_out_dir, "raw", "wave=*", "*.parquet"))
        )
        if not files:
            return
        rd.read_parquet(
            files, columns=["canonical_url", "etag", "child_urls", "fetched", "code"]
        ).map_batches(
            _PriorLoader(self.shards), batch_format="pyarrow", batch_size=4096
        ).count()

    def attach(self):
        return PriorAttach(self.shards)

    def size(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
