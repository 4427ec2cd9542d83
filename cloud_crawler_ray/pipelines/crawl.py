"""The crawl pipeline — iterative BFS waves as Ray Data stages.

Wave lifecycle (SURVEY §3.4):

    frontier_d
      → admit_frontier              (in-wave first-wins claims + anti-join
                                     vs committed seen shards, one RPC)
      → zip_with_index              (deterministic global seq; sort shuffle)
      → assign_slots                (groupby(host) politeness clocks)
      → [checkpoint frontier_d]     (the wave's durable work list)
      → fetch + extract             (FetchExtract; parse-extract fused)
      → write raw/wave=d            (parts named by min seq; retry-safe)
      → projections of raw          (documents/, pages/ — columnar reads)
      → explode_children → frontier_{d+1}
      → commit: mark the seen delta in the shards, write the keys it
                newly marked as seen/wave=d, clocks.advance, lineage marker

A wave of more than ``small_wave_threshold`` candidate rows runs these
steps as one streaming Dataset pipeline, its fetch a ``map_batches`` stage.
A smaller wave is planned as in-process Arrow ops on the driver
(``_plan_wave_local``) and fetched from the job table the driver holds:
in-process when it has at most ``driver_fetch_threshold`` jobs, else by
plain Ray tasks over contiguous slices of that table (``_fetch_slice``),
each writing its own raw parts. ``fetch_mode="actors"`` fetches every wave
through a ``map_batches`` actor pool. The crawl state (seen set, clocks,
budgets, claims) starts in the driver too and moves into ``StateShard``
actors only when a Ray task first needs it: the first distributed-planned
wave, a resume replay, or once the committed job count passes the
threshold (state/shards.py ``ShardedState``). Only
distributed-planned waves register next-wave claims; a driver frontier
handed to the distributed planner is first-wins deduped on the driver.

Durability/commit protocol (north_rule resumability): per wave the engine
writes (1) the slotted frontier, (2) the raw fetch output, (3) one seen
part holding the keys this wave newly marked (``ShardedState.take_fresh``:
each key is stored once, in the wave that first marks it, so the parts of a
crawl are disjoint), then (4) the ``lineage/wave=N.json`` marker LAST
(atomic rename). Resume scans lineage markers: committed waves replay their
seen parts into fresh shards and restore clocks from the marker; an uncommitted wave is
recomputed from its checkpointed frontier (same slots — clocks only advance
at commit), so no committed fetch is ever repeated and the politeness budget
survives the kill (reference checkpoint analog: batch_job.rb:246-268, with
the restore path the reference left TODO, batch_job_spec.rb:266-268).
"""

from __future__ import annotations

import glob
import os
import shutil
from collections import Counter
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..canon import canonical_url, host_of, normalize_seed
from ..spec import CrawlSpec
from ..state.shards import ShardedState
from ..storage import read_json, read_table, write_json
from ..stages.fetch import FetchExtract, hold_wall_waits, make_fetch_fn, wall_waits
from ..stages.frontier_ops import (
    ClaimChildren,
    _dedup_batch,
    admit_frontier,
    claim_candidates,
    explode_children,
)
from ..stages.indexing import zip_with_index
from ..stages.politeness import assign_slots, build_chain_latency_index

# candidate-row schema shared by seeds, explode_children, and spill
_FRONTIER_COLS = ["url", "canonical_url", "host", "referer", "depth", "parent_seq", "ordinal"]

META_COLS = [
    "url",
    "canonical_url",
    "code",
    "depth",
    "referer",
    "redirect_to",
    "response_time_ms",
    "fetched",
    "error",
    "user_agent",
    "fetch_time_ms",
    "seq",
    "wave",
    "etag",
    "not_modified",
    "canonical_decl",
    "noindex",
]


def _wave_dir(out_dir: str, kind: str, wave: int) -> str:
    return os.path.join(out_dir, kind, f"wave={wave:05d}")


@dataclass
class CrawlHandle:
    """Lazy readers over the crawl's output directories."""

    out_dir: str
    waves: int
    n_jobs: int
    prior_dir: str | None = None  # incremental recrawl: 304 docs fill from here

    def _raw_files(self) -> list[str]:
        return glob.glob(os.path.join(self.out_dir, "raw", "wave=*", "*.parquet"))

    @staticmethod
    def _empty(schema: pa.Schema) -> rd.Dataset:
        return rd.from_arrow(schema.empty_table())

    def documents(self) -> rd.Dataset:
        from ..schemas import DOCUMENTS_SCHEMA

        if not self._raw_files():  # zero-job crawl (e.g. empty seed list)
            return self._empty(DOCUMENTS_SCHEMA)
        if self.prior_dir is None:
            return self._documents_inner()
        # incremental recrawl: 304 pages carry no spans — their documents
        # are the prior crawl's, pulled by an Arrow-native semi-join on
        # doc_id (hash-shard both sides; no pandas, list<struct> spans
        # survive intact). Recurses through a chain of recrawls via each
        # crawl's meta.json prior_dir link.
        raw = read_table(
            os.path.join(self.out_dir, "raw"),
            columns=["canonical_url", "spans", "fetched", "not_modified", "noindex"],
        )

        def fresh(t: pa.Table) -> pa.Table:
            f = t.filter(
                pc.and_(
                    pc.and_(t.column("fetched"), pc.invert(t.column("not_modified"))),
                    pc.invert(t.column("noindex")),
                )
            )
            return pa.table(
                {"doc_id": f.column("canonical_url"), "spans": f.column("spans")}
            )

        def ids304(t: pa.Table) -> pa.Table:
            f = t.filter(pc.and_(t.column("fetched"), t.column("not_modified")))
            return pa.table({"doc_id": f.column("canonical_url")})

        filled = _docs_semi_join(
            open_crawl(self.prior_dir).documents(),
            raw.map_batches(ids304, batch_format="pyarrow"),
        )
        return raw.map_batches(fresh, batch_format="pyarrow").union(filled)

    def _documents_inner(self) -> rd.Dataset:
        # only fetched, indexable pages become documents (oracle.py — failed
        # fetches produce a pages row but no document; meta-robots noindex
        # suppresses the document while keeping the page)
        ds = read_table(
            os.path.join(self.out_dir, "raw"),
            columns=["canonical_url", "spans", "fetched", "noindex"],
        )
        return ds.map_batches(
            lambda t: (
                lambda f: pa.table(
                    {"doc_id": f.column("canonical_url"), "spans": f.column("spans")}
                )
            )(t.filter(pc.and_(t.column("fetched"), pc.invert(t.column("noindex"))))),
            batch_format="pyarrow",
        )

    def pages(self) -> rd.Dataset:
        if not self._raw_files():
            from ..stages.fetch import FETCH_OUT_SCHEMA

            return self._empty(
                pa.schema([FETCH_OUT_SCHEMA.field(c) for c in META_COLS])
            )
        return read_table(os.path.join(self.out_dir, "raw"), columns=META_COLS)

    def link_edges(self) -> rd.Dataset:
        """Distinct (src, dst) canonical-URL edges of the crawled link graph
        (admitted child links of fetched pages) — the PageRank/graph-ops
        input (ops/graph.py)."""
        from ..ops.graph import link_edges

        if not self._raw_files():
            return self._empty(
                pa.schema([("src", pa.string()), ("dst", pa.string())])
            )
        raw = read_table(
            os.path.join(self.out_dir, "raw"),
            columns=["canonical_url", "child_urls", "fetched"],
        )
        return link_edges(raw)

    def doc_store(self) -> rd.Dataset:
        """JSON doc-store sink (BatchApiJob → RedisDocStore analog,
        batch_api_job.rb:33-104, redis_doc_store.rb:35-138): one
        (doc_id, doc) row per fetched page whose payload is a JSON span."""
        if not self._raw_files():
            return self._empty(pa.schema([("doc_id", pa.string()), ("doc", pa.string())]))
        ds = read_table(
            os.path.join(self.out_dir, "raw"),
            columns=["canonical_url", "spans", "fetched"],
        )

        def project(t: pa.Table) -> pa.Table:
            t = t.filter(t.column("fetched"))
            t = t.filter(pc.greater(pc.list_value_length(t.column("spans")), 0))
            first = pc.list_element(t.column("spans"), 0)
            t = t.filter(pc.equal(pc.struct_field(first, "kind"), "json"))
            first = pc.list_element(t.column("spans"), 0)
            return pa.table(
                {
                    "doc_id": t.column("canonical_url"),
                    "doc": pc.struct_field(first, "text"),
                }
            )

        return ds.map_batches(project, batch_format="pyarrow")

    def crawl_order(self) -> rd.Dataset:
        from ..schemas import CRAWL_ORDER_SCHEMA

        if not glob.glob(
            os.path.join(self.out_dir, "frontier", "wave=*", "*.parquet")
        ):
            return self._empty(CRAWL_ORDER_SCHEMA)
        ds = read_table(
            os.path.join(self.out_dir, "frontier"), columns=["wave", "seq", "url"]
        )
        return ds.sort("seq")

    def wave_metrics(self) -> "pd.DataFrame":
        """Per-wave telemetry from the committed lineage markers (jobs, raw
        rows, fetched/failed, spill flag) — one small JSON read per wave,
        never touching the data files. The monitoring surface of the
        checkpoint protocol: a resumed or watched crawl reads progress here."""
        import pandas as pd

        rows = []
        for m in _committed_waves(self.out_dir):
            met = m.get("metrics", {})
            rows.append(
                {
                    "wave": m["wave"],
                    "n_jobs": m["n_jobs"],
                    "total_jobs": m["total_jobs"],
                    "n_raw_rows": met.get("n_raw_rows", -1),
                    "n_fetched": met.get("n_fetched", -1),
                    "n_failed": met.get("n_failed", -1),
                    "n_not_modified": met.get("n_not_modified", 0),
                    "spilled": bool(met.get("spilled", False)),
                }
            )
        return pd.DataFrame(
            rows,
            columns=[
                "wave", "n_jobs", "total_jobs", "n_raw_rows",
                "n_fetched", "n_failed", "n_not_modified", "spilled",
            ],
        )

    def counters(self) -> dict[str, int]:
        """Hook counter aggregation — explode the per-page increment lists and
        groupby-sum (the m_cache.incr analog, partial+final combine), merged
        with the driver-side lifecycle-hook counters (before/after crawl and
        batch, persisted at hook_counters.json)."""
        lifecycle: dict[str, int] = {}
        hc = os.path.join(self.out_dir, "hook_counters.json")
        if os.path.exists(hc):
            lifecycle = {k: int(v) for k, v in read_json(hc).items()}
        if not self._raw_files():
            return lifecycle
        ds = read_table(
            os.path.join(self.out_dir, "raw"), columns=["counter_keys", "counter_vals"]
        )

        def explode_partial(t: pa.Table) -> pa.Table:
            # explode + per-block partial sum in one stage (Ray's generic
            # grouped aggregate costs ~2ms/group — hooks can emit
            # vocabulary-sized key sets, e.g. the word_count example, so the
            # combine must be partial-per-block + small final merge)
            keys, vals = [], []
            for ks, vs in zip(t.column("counter_keys").to_pylist(), t.column("counter_vals").to_pylist()):
                keys.extend(ks)
                vals.extend(vs)
            tt = pa.table({"key": pa.array(keys, pa.string()), "val": pa.array(vals, pa.int64())})
            return tt.group_by("key").aggregate([("val", "sum")])

        # hash-shard the partials and sum per shard before collecting, so the
        # driver holds O(distinct keys), not O(blocks × distinct keys)
        from ..state.shards import shards_of

        def shard_sum(t: pa.Table) -> pa.Table:
            return t.group_by("key").aggregate([("val_sum", "sum")]).rename_columns(
                ["key", "val_sum"]
            )

        def add_shard(t: pa.Table) -> pa.Table:
            sh = shards_of(t.column("key").to_pylist(), 64)
            return t.append_column("shard", pa.array(sh, pa.int64()))

        parts = (
            ds.map_batches(explode_partial, batch_format="pyarrow")
            .map_batches(add_shard, batch_format="pyarrow")
            .groupby("shard")
            .map_groups(shard_sum, batch_format="pyarrow")
            .to_pandas()
        )
        merged = (
            parts.groupby("key")["val_sum"].sum().astype(int).to_dict()
            if len(parts)
            else {}
        )
        for k, v in lifecycle.items():
            merged[k] = merged.get(k, 0) + v
        return merged

    def export_documents(self, path: str) -> None:
        """Write the final interleaved-documents table through the storage
        interface (Lance when pylance is installed, partitioned parquet
        otherwise) — the durable doc-table sink a downstream training
        pipeline consumes."""
        from ..storage import write_table

        write_table(self.documents(), path)

    def alias_edges(self) -> rd.Dataset:
        """rel=canonical declarations of fetched pages as (src, dst)
        canonical-URL edges, self-declarations dropped — the input to
        ops/dedup.collapse_alias_docs (duplicate-URL collapse by the site's
        OWN declaration, complementing the content-similarity dedups)."""
        from ..canon import canonical_urls

        if not self._raw_files():
            return self._empty(pa.schema([("src", pa.string()), ("dst", pa.string())]))
        ds = read_table(
            os.path.join(self.out_dir, "raw"),
            columns=["canonical_url", "canonical_decl", "fetched"],
        )

        def project(t: pa.Table) -> pa.Table:
            t = t.filter(
                pc.and_(t.column("fetched"), pc.not_equal(t.column("canonical_decl"), ""))
            )
            dst = canonical_urls(t.column("canonical_decl").to_pylist())
            out = pa.table(
                {
                    "src": t.column("canonical_url"),
                    "dst": pa.array(dst, pa.string()),
                }
            )
            return out.filter(pc.not_equal(out.column("src"), out.column("dst")))

        return ds.map_batches(project, batch_format="pyarrow")

    def seen_urls(self) -> rd.Dataset:
        """Committed URL-seen set as a Dataset of distinct canonical_url — a
        plain scan of the seen parts, which are disjoint (each wave's part
        holds only the keys it newly marked), so the set never materializes
        on the driver (test helpers build Python sets from it at test
        scale). Curl mode marks nothing → typed empty Dataset."""
        seen_dir = os.path.join(self.out_dir, "seen")
        if not glob.glob(os.path.join(seen_dir, "wave=*", "*.parquet")):
            return self._empty(pa.schema([("canonical_url", pa.string())]))
        return read_table(seen_dir, columns=["canonical_url"])


def open_crawl(out_dir: str) -> CrawlHandle:
    """Re-open a finished crawl's output directory as a CrawlHandle (waves /
    n_jobs recovered from the lineage markers; prior_dir from meta.json, so
    a recrawl chain's document fill keeps working from disk)."""
    committed = _committed_waves(out_dir)
    prior_dir = None
    meta_path = os.path.join(out_dir, "meta.json")
    if os.path.exists(meta_path):
        prior_dir = read_json(meta_path).get("prior_dir")
    return CrawlHandle(
        out_dir=out_dir,
        waves=(committed[-1]["wave"] + 1) if committed else 0,
        n_jobs=committed[-1]["total_jobs"] if committed else 0,
        prior_dir=prior_dir,
    )


def _docs_semi_join(docs: rd.Dataset, ids: rd.Dataset) -> rd.Dataset:
    """docs rows (doc_id, spans) whose doc_id appears in ids (doc_id) —
    hash-shard both sides so each shard filters with one vectorized
    ``pc.is_in`` against its local id set; spans never leave Arrow. The
    304-document fill of an incremental recrawl: ids is the wave-bounded
    not-modified set, docs is the prior corpus."""
    from ..schemas import DOCUMENTS_SCHEMA
    from ..stages.frontier_ops import _cluster_shards
    from ..state.shards import shards_of

    n_shards = _cluster_shards()
    span_t = DOCUMENTS_SCHEMA.field("spans").type

    def tag(side: int):
        def add(t: pa.Table) -> pa.Table:
            sh = shards_of(t.column("doc_id").to_pylist(), n_shards)
            if side == 1 and "spans" not in t.column_names:
                t = t.append_column("spans", pa.nulls(t.num_rows, span_t))
            return t.select(["doc_id", "spans"]).append_column(
                "_shard", pa.array(sh, pa.int64())
            ).append_column("_side", pa.array([side] * t.num_rows, pa.int8()))

        return add

    both = docs.map_batches(tag(0), batch_format="pyarrow").union(
        ids.map_batches(tag(1), batch_format="pyarrow")
    )

    def filt(g: pa.Table) -> pa.Table:
        want = g.filter(pc.equal(g.column("_side"), 1)).column("doc_id")
        d = g.filter(pc.equal(g.column("_side"), 0))
        d = d.filter(pc.is_in(d.column("doc_id"), value_set=want.combine_chunks()))
        return d.select(["doc_id", "spans"])

    return both.groupby("_shard").map_groups(filt, batch_format="pyarrow")


def _seeds_frontier(seeds: list[str]) -> pa.Table:
    import numpy as np

    from ..canon import canonical_urls, hosts_of

    urls = [normalize_seed(u) for u in seeds]
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "canonical_url": pa.array(canonical_urls(urls), pa.string()),
            "host": pa.array(hosts_of(urls), pa.string()),
            "referer": pa.array([""] * n, pa.string()),
            "depth": pa.array(np.zeros(n, dtype=np.int32)),
            "parent_seq": pa.array(np.full(n, -1, dtype=np.int64)),
            "ordinal": pa.array(np.arange(n, dtype=np.int32)),
        }
    )


def _plan_wave_local(
    cand: pa.Table, state, chain_idx: dict, delay_ms: int,
    base_seq: int, wave: int, spec,
    host_delays: dict[str, int] | None = None,
) -> tuple[pa.Table, pa.Table]:
    """Driver-side wave planning for small waves (≤ small_wave_threshold).

    Semantically identical to the distributed path (claims + admit_frontier
    → zip_with_index → assign_slots) but as in-process Arrow
    ops: below the threshold the wave's metadata is tiny (≈100 B/row) and
    five Ray Data executions per wave cost more than they parallelize.
    Membership, budget and clock reads go through ``state``: direct calls
    while its partitions are still in the driver, one batched call per shard
    actor once promoted. The distributed path remains the ≥-threshold route
    and is exercised in tests via small_wave_threshold=0."""
    import numpy as np

    if spec.follow_links and cand.num_rows:
        cand = _dedup_batch(cand)  # in-wave first-wins
        unseen = state.check(cand.column("canonical_url").to_pylist())
        cand = cand.filter(pa.array(unseen))

    spill = cand.slice(0, 0)
    if cand.num_rows == 0:
        return cand, spill

    # processing order: priority-first when a priority_fn is set (the
    # north-rule priority queue; with job_limit the cap keeps the
    # top-priority jobs), else pure (parent_seq, ordinal) BFS order
    if spec.priority_fn is not None:
        prio = pa.array(
            [int(spec.priority_fn(r)) for r in cand.to_pylist()], pa.int64()
        )
        cand = cand.append_column("prio", prio)
        sort_keys = [
            ("prio", "descending"),
            ("parent_seq", "ascending"),
            ("ordinal", "ascending"),
        ]
    else:
        sort_keys = [("parent_seq", "ascending"), ("ordinal", "ascending")]
    order = pc.sort_indices(cand, sort_keys=sort_keys)
    cand = cand.take(order)
    # per-host crawl budget: keep each host's first remaining-budget rows in
    # processing order; dropped rows are neither spilled nor seen-marked
    if spec.max_pages_per_host is not None and cand.num_rows:
        from ..stages.politeness import budget_filter_block

        uniq_hosts = list(dict.fromkeys(cand.column("host").to_pylist()))
        cand = budget_filter_block(
            cand, state.get_sched(uniq_hosts), spec.max_pages_per_host
        )
        if cand.num_rows == 0:
            return cand.drop_columns(
                ["prio"] if "prio" in cand.column_names else []
            ), spill
    # crawl-trap guard: same gate keyed by (host, URL skeleton) — applied
    # after the host budget, in the same processing order
    if spec.trap_guard is not None and cand.num_rows:
        from ..canon import trap_keys_of
        from ..stages.politeness import budget_filter_block

        tk = trap_keys_of(cand.column("url").to_pylist())
        cand = cand.append_column("_trap", pa.array(tk, pa.string()))
        cand = budget_filter_block(
            cand, state.get_sched(list(dict.fromkeys(tk))), spec.trap_guard,
            key_col="_trap",
        ).drop_columns(["_trap"])
        if cand.num_rows == 0:
            return cand.drop_columns(
                ["prio"] if "prio" in cand.column_names else []
            ), spill
    # job_limit throttle: cap the wave, spill the (post-dedup, still-sorted)
    # remainder for the next wave's pool (batch_job.rb:229-241)
    if spec.job_limit is not None and cand.num_rows > spec.job_limit:
        spill = cand.slice(spec.job_limit)
        cand = cand.slice(0, spec.job_limit)
    if "prio" in cand.column_names:
        cand = cand.drop_columns(["prio"])
        if "prio" in spill.column_names:
            spill = spill.drop_columns(["prio"])
    n = cand.num_rows
    cand = cand.append_column(
        "seq", pa.array(np.arange(base_seq, base_seq + n, dtype=np.int64))
    )

    from ..stages.politeness import adaptive_host_delays, slot_block

    uniq_hosts = list(dict.fromkeys(cand.column("host").to_pylist()))
    clocks = state.get_clocks(uniq_hosts)
    if spec.adaptive_delay_pct is not None:
        host_delays = adaptive_host_delays(
            uniq_hosts, delay_ms, host_delays,
            spec.adaptive_delay_pct, state.get_lat(uniq_hosts),
        )
    # vectorized per-host serial slots (rows already in seq order) — the
    # same kernel the distributed ShardSlotAssigner runs per host-shard
    cand = slot_block(
        cand, clocks, chain_idx, delay_ms, host_delays,
        conns=spec.host_connections,
    )
    cand = cand.append_column("wave", pa.array([wave] * n, pa.int32()))
    return cand, spill


def _host_commit(wave_tbl: pa.Table) -> tuple[dict, dict, dict]:
    """A committed wave's per-host updates from its slotted frontier: clock
    (max job_end_ms), scheduled-job count, and observed latency
    (sum of job_end_ms − fetch_time_ms, count) — one Arrow group_by."""
    g = pa.table(
        {
            "host": wave_tbl.column("host"),
            "end": wave_tbl.column("job_end_ms"),
            "lat": pc.subtract(
                wave_tbl.column("job_end_ms"), wave_tbl.column("fetch_time_ms")
            ),
        }
    ).group_by("host").aggregate([("end", "max"), ("end", "count"), ("lat", "sum")])
    hosts = g.column("host").to_pylist()
    counts = g.column("end_count").to_pylist()
    return (
        dict(zip(hosts, g.column("end_max").to_pylist())),
        dict(zip(hosts, counts)),
        {h: (s, n) for h, s, n in zip(hosts, g.column("lat_sum").to_pylist(), counts)},
    )


def _merge_sched(prev: dict, delta: dict) -> dict:
    out = {h: int(n) for h, n in prev.items()}
    for h, n in delta.items():
        out[h] = out.get(h, 0) + int(n)
    return out


def _merge_lat(prev: dict, delta: dict) -> dict:
    """Additive merge of per-host (latency_sum_ms, n_jobs) pairs — the
    adaptive-politeness lineage field (JSON stores pairs as 2-lists)."""
    out = {h: [int(v[0]), int(v[1])] for h, v in prev.items()}
    for h, (s, n) in delta.items():
        ps, pn = out.get(h, [0, 0])
        out[h] = [ps + int(s), pn + int(n)]
    return out


def _committed_waves(out_dir: str) -> list[dict]:
    markers = sorted(glob.glob(os.path.join(out_dir, "lineage", "wave=*.json")))
    return [read_json(m) for m in markers]


def fire_hook(fn, ctx: dict, counters: dict[str, int]) -> None:
    """Run a lifecycle hook; a returned {key: int} dict is merged into the
    crawl counters (the m_cache.incr analog). Shared by engine and oracle so
    the counter semantics cannot drift."""
    if fn is None:
        return
    out = fn(ctx)
    if isinstance(out, dict):
        for k, v in out.items():
            counters[k] = counters.get(k, 0) + int(v)


class AddSeen:
    """map_batches callable that marks canonical URLs in the shards — the
    distributed commit of a wave's seen delta. Idempotent: a retried batch
    re-marks nothing, and each shard records a key as fresh only once."""

    def __init__(self, shards: list):
        self.shards = shards
        self.n = len(shards)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..state.shards import group_indices_by_shard

        keys = batch.column("canonical_url").to_pylist()
        groups = group_indices_by_shard(keys, self.n)
        ray.get(
            [
                self.shards[s].add.remote([keys[i] for i in idxs])
                for s, idxs in groups.items()
            ]
        )
        return pa.table({"n": pa.array([len(keys)], pa.int64())})


def recur_crawl(
    web,
    seeds: list[str],
    spec: CrawlSpec,
    out_dir: str,
    times: int,
    interval_s: float = 0.0,
    **kw,
) -> list[CrawlHandle]:
    """Recurring submission (queue.recur, driver.rb:219-225): run the same
    crawl *times* times, each round in its own ``round=K`` partition with a
    fresh seen set (a recrawl sees the web anew, like re-submitting the root
    job). The driver loop replaces qless's recur scheduler; *interval_s*
    sleeps between rounds (0 in tests — the reference's recur period)."""
    import time as _time

    handles = []
    for k in range(times):
        if k and interval_s:
            _time.sleep(interval_s)
        handles.append(
            crawl(web, seeds, spec, os.path.join(out_dir, f"round={k:04d}"), **kw)
        )
    return handles


def crawl(
    web: pa.Table,
    seeds: list[str],
    spec: CrawlSpec,
    out_dir: str,
    *,
    n_shards: int = 4,
    fetch_concurrency: int | tuple = 2,
    fetch_batch_size: int = 512,
    fetch_mode: str = "tasks",
    small_wave_threshold: int = 100_000,
    driver_fetch_threshold: int = 256,
    max_waves: int | None = None,
    resume: bool = False,
    state: ShardedState | None = None,
    prior_dir: str | None = None,
) -> CrawlHandle:
    """Run (or resume) a crawl of *web* from *seeds* under *spec*.

    The caller owns the Ray session. ``state`` may be injected for tests;
    otherwise shards are created and torn down here.

    fetch_mode: "tasks" (default) runs fetch+extract as stateless tasks with
    read-only state cached per worker process (no per-wave pool spawn);
    "actors" uses a map_batches actor pool for every wave (required if the
    fetch stage ever grows mutable per-connection state). small_wave_threshold:
    waves at or below this many candidate rows are planned driver-side
    (semantically identical) — 0 forces the fully distributed planner. The
    crawl state stays in the driver until the first distributed-planned wave
    (or a resume replay, or a committed job count above the threshold) moves
    it into shard actors (ShardedState).

    Fetch routes in task mode: a driver-planned wave of at most
    driver_fetch_threshold jobs is fetched in the driver process; a larger
    one by plain Ray tasks over k = min(jobs, max(CPUs, ceil(jobs /
    fetch_batch_size))) contiguous slices of its job table (on a real
    network, k host lanes instead, so a host's jobs share one process and
    its wall-clock spacing); a distributed-planned wave by a map_batches
    stage of its Dataset. fetch_batch_size bounds the rows of one fetch
    call on every route except the in-process one.

    prior_dir: a previous crawl's out_dir → incremental recrawl. The prior
    crawl's validated (canonical_url, etag, admitted links) load into
    sharded PriorIndex actors (state/prior.py); each job fetches with
    If-None-Match, a 304 costs the validation round trip on the politeness
    clock but no re-extraction, replays the prior admitted links (so BFS
    traverses unchanged regions to reach changed/new pages), and its
    document fills from the prior documents parquet at read time. Resume of
    a recrawl recovers prior_dir from the crawl's meta.json.
    """
    if fetch_mode not in ("tasks", "actors"):
        raise ValueError(f"fetch_mode must be 'tasks' or 'actors', got {fetch_mode!r}")
    if resume and prior_dir is None:
        meta_path = os.path.join(out_dir, "meta.json")
        if os.path.exists(meta_path):
            prior_dir = read_json(meta_path).get("prior_dir")
    own_state = state is None
    if own_state:
        state = ShardedState(n_shards)
    prior = None
    try:
        if prior_dir is not None:
            from ..state.prior import PriorIndex

            prior = PriorIndex(n_shards)
            prior.load_from_raw(prior_dir)
        return _crawl_inner(
            web, seeds, spec, out_dir, state,
            fetch_concurrency=fetch_concurrency,
            fetch_batch_size=fetch_batch_size,
            fetch_mode=fetch_mode,
            small_wave_threshold=small_wave_threshold,
            driver_fetch_threshold=driver_fetch_threshold,
            max_waves=max_waves, resume=resume,
            prior=prior, prior_dir=prior_dir,
        )
    finally:
        if own_state:
            state.shutdown()
        if prior is not None:
            prior.shutdown()


def _collect_if_small(ds: rd.Dataset, threshold: int) -> tuple[pa.Table | None, rd.Dataset]:
    """Bring a frontier Dataset to the driver iff it is small. Materializes
    ONCE, then both the count and (if small) the collect are metadata/ref
    reads on the same blocks — a lazy count() + to_arrow_refs() would execute
    the upstream chain twice, and a big frontier handed back lazily would be
    re-executed a third time by the wave planner's sort. Frontier rows are
    small (urls + ints) and the object store spills, so materializing here is
    bounded at any scale. Threshold 0 (pure distributed mode) stays fully
    lazy: the planner chain fuses into the next wave's sort execution."""
    if threshold <= 0:
        return None, ds
    ds = ds.materialize()
    n = ds.count()
    if n <= threshold:
        refs = ds.to_arrow_refs()
        tables = [t for t in ray.get(refs) if t.num_rows]
        if not tables:
            return pa.table({}), ds
        return pa.concat_tables(tables), ds
    return None, ds


def _passthrough_part_writer(dirpath: str, project=None):
    """map_batches stage that durably writes each block to *dirpath* as a
    parquet part and passes the block on (optionally projected) — fusing a
    durable write into the surrounding execution instead of paying a separate
    per-wave write execution (~0.3-1 s floor each on Ray 2.49). Part names
    derive from the block's min seq (globally unique per wave, disjoint
    across blocks), so a Ray task retry overwrites the same file — the write
    is idempotent under at-least-once execution, and uncommitted wave dirs
    are purged wholesale on resume regardless."""
    import pyarrow.parquet as pq

    def write(t: pa.Table) -> pa.Table:
        if t.num_rows:
            os.makedirs(dirpath, exist_ok=True)
            lo = pc.min(t.column("seq")).as_py()
            # raw fetch blocks carry one row per redirect hop (chain_pos);
            # a block split can fall inside a job's chain, so the min seq
            # alone is not unique across sibling blocks — qualify with the
            # min-seq row's first chain_pos
            if "chain_pos" in t.column_names:
                sub = t.filter(pc.equal(t.column("seq"), lo))
                name = f"part-{lo:012d}-{pc.min(sub.column('chain_pos')).as_py():03d}.parquet"
            else:
                name = f"part-{lo:012d}.parquet"
            pq.write_table(t, os.path.join(dirpath, name))
        return t if project is None else project(t)

    return write


def _wave_slices(
    tbl: pa.Table, k: int, by_host: bool = False
) -> tuple[pa.Table, list[tuple[int, int]]]:
    """Split a driver-planned wave's seq-ordered job table into the [lo, hi)
    row ranges of its fetch tasks: *k* contiguous ranges of near-equal size.
    With *by_host* (a real network, whose wall-clock spacing holds within
    one process) the rows are first regrouped, seq order kept, into *k*
    host lanes so that each host's jobs are one range."""
    import numpy as np

    n = tbl.num_rows
    if not by_host:
        return tbl, [(n * i // k, n * (i + 1) // k) for i in range(k)]
    from ..state.shards import shards_of

    lanes = shards_of(tbl.column("host").to_pylist(), k)
    tbl = tbl.take(pa.array(np.argsort(lanes, kind="stable")))
    counts = np.bincount(lanes, minlength=k)
    ends = np.cumsum(counts)
    return tbl, [(int(e - c), int(e)) for c, e in zip(counts, ends) if c]


@ray.remote
def _fetch_slice(fetch_fn, tbl: pa.Table, lo: int, hi: int, raw_dir: str,
                 batch_size: int, waits: dict[str, float]) -> dict[str, float]:
    """One fetch task of a driver-planned wave: rows [lo, hi) of the wave's
    job table, at most *batch_size* per fetch call, each call's output
    written as a raw part (named from its min seq, so a retried task
    overwrites its own parts). Takes and returns the per-host wall-clock
    waits of a real network (empty for a synthetic one)."""
    hold_wall_waits(waits)
    write = _passthrough_part_writer(raw_dir)
    for s in range(lo, hi, batch_size):
        write(fetch_fn(tbl.slice(s, min(batch_size, hi - s))))
    return wall_waits()


def _spill_split_writer(
    spill_dir: str, cutoff: int, claim_shards: list, claim_wave: int
):
    """map_batches stage fusing the job_limit spill into the wave plan: rows
    with seq >= cutoff are written to *spill_dir* (sans seq — re-assigned
    when they re-enter a wave plan, landing on the same value because
    spilled rows sort before any newer children) and the sub-cutoff head is
    passed on. One pass over the stamped blocks instead of a separate
    tail-write execution. Part naming and retry-idempotence as in
    _passthrough_part_writer (min seq is globally unique per wave).

    Spilled rows also register first-wins claims on *claim_shards* (they
    re-enter wave *claim_wave*'s candidate pool alongside that wave's
    children; idempotent min-merge, so retries are safe)."""
    import pyarrow.parquet as pq

    def split(t: pa.Table) -> pa.Table:
        tail = t.filter(pc.greater_equal(t.column("seq"), cutoff))
        if tail.num_rows:
            os.makedirs(spill_dir, exist_ok=True)
            lo = pc.min(tail.column("seq")).as_py()
            pq.write_table(
                tail.drop_columns(["seq"]),
                os.path.join(spill_dir, f"part-{lo:012d}.parquet"),
            )
            from ..stages.frontier_ops import _claim_to_shards

            _claim_to_shards(
                claim_shards,
                claim_wave,
                tail.column("canonical_url").to_pylist(),
                tail.column("parent_seq").to_numpy(zero_copy_only=False),
                tail.column("ordinal").to_numpy(zero_copy_only=False),
            )
        return t.filter(pc.less(t.column("seq"), cutoff))

    return split


def _seen_projection(t: pa.Table) -> pa.Table:
    """Raw fetch block → its share of the wave's seen delta (distinct within
    the block), self-contained: the job canonicals (every attempted URL is
    marked, fetched or not — bloom mark-at-commit semantics) plus the
    fetched hops' canonicals (redirect targets, which may be seen already:
    ``AddSeen`` keeps only the new ones, and the driver writes those).
    Deriving BOTH from the raw block means the seen mark needs no second
    branch over the slotted frontier, which lets the whole wave body
    (slots → frontier write → fetch → raw write → seen mark) run as ONE
    Ray execution. ``canonical_url(job_url)`` equals the frontier's
    ``canonical_url`` by construction (_seeds_frontier / explode_children
    both compute it with the same function over the same string)."""
    from ..canon import canonical_urls

    fetched = t.filter(pc.field("fetched")).column("canonical_url").to_pylist()
    jobs = canonical_urls(list(dict.fromkeys(t.column("job_url").to_pylist())))
    vals = list(dict.fromkeys(fetched + jobs))
    return pa.table({"canonical_url": pa.array(vals, pa.string())})


def _crawl_inner(
    web, seeds, spec, out_dir, state,
    *, fetch_concurrency, fetch_batch_size, fetch_mode,
    small_wave_threshold, driver_fetch_threshold, max_waves, resume,
    prior=None, prior_dir=None,
) -> CrawlHandle:
    import math
    import uuid

    import pyarrow.parquet as pq

    if not resume and os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    # crawl-level metadata: the prior_dir link lets a handle opened from
    # disk (open_crawl) fill 304 documents — including recursively through
    # a chain of recrawls — and lets resume rebuild the prior index
    meta_path = os.path.join(out_dir, "meta.json")
    if not (resume and os.path.exists(meta_path)):
        write_json(meta_path, {"prior_dir": prior_dir})
    prior_attach = prior.attach() if prior is not None else None

    from ..oracle import SyntheticNet

    if isinstance(web, pa.Table):
        web_ref = ray.put((web, SyntheticNet.build_indexes(web)))
        chain_idx = build_chain_latency_index(web, spec.redirect_limit)
    else:
        # procedural / external network: ship the tiny spec, latency model
        # is computed from the URL (no O(web) driver-side setup at all)
        web_ref = ray.put(web)
        chain_idx = web
    chain_idx_ref = ray.put(chain_idx)
    delay_ms = int(spec.delay * 1000)
    # robots Crawl-delay compliance: per-host delay overrides (bounded by
    # hosts-with-robots), built once and broadcast like the latency index.
    # The procedural web carries no robots rows → no overrides.
    host_delays: dict[str, int] | None = None
    host_delays_ref = None
    if spec.obey_crawl_delay and isinstance(web, pa.Table):
        from ..stages.politeness import build_host_delays

        host_delays = build_host_delays(web, spec)
        host_delays_ref = ray.put(host_delays) if host_delays else None
        if not host_delays:
            host_delays = None
    crawl_id = uuid.uuid4().hex
    ncpus = int(ray.cluster_resources().get("CPU", 4))

    start_wave, next_seq, total_jobs = 0, 0, 0
    hook_counters: dict[str, int] = {}
    cookie_hdrs: dict[str, str] = {}  # wave-committed per-host Cookie headers
    committed = _committed_waves(out_dir) if resume else []
    if committed:
        last = committed[-1]
        start_wave = last["wave"] + 1
        next_seq = last["next_seq"]
        total_jobs = last["total_jobs"]
        hook_counters = {k: int(v) for k, v in last.get("hook_counters", {}).items()}
        cookie_hdrs = dict(last.get("cookies", {}))
        # replay committed seen parts into fresh shards (distributed restore)
        seen_files = [
            f
            for m in committed
            for f in sorted(
                glob.glob(os.path.join(_wave_dir(out_dir, "seen", m["wave"]), "*.parquet"))
            )
        ]
        if seen_files:
            rd.read_parquet(seen_files, columns=["canonical_url"]).map_batches(
                AddSeen(state.shards), batch_format="pyarrow", batch_size=4096
            ).count()
        state.advance_clocks({h: int(t) for h, t in last["clocks"].items()})
        sched_prev = last.get("sched", {})
        if sched_prev:
            state.add_sched({h: int(n) for h, n in sched_prev.items()})
        lat_prev = last.get("lat", {})
        if lat_prev:
            state.add_lat({h: (int(v[0]), int(v[1])) for h, v in lat_prev.items()})
    if resume:
        # drop any partial (uncommitted) wave outputs before recompute —
        # unconditionally: a crash before the FIRST lineage marker still
        # leaves partial wave-0 parquet parts that would duplicate every row
        # on rerun (start_wave is 0 when nothing committed)
        for kind in ("raw", "frontier", "seen", "spill"):
            for d in glob.glob(os.path.join(out_dir, kind, "wave=*")):
                w = int(os.path.basename(d).split("=")[1])
                if w >= start_wave:
                    shutil.rmtree(d)

    # frontier representation: driver-side Arrow table (small) OR Dataset
    fr_tbl: pa.Table | None = None
    fr_ds: rd.Dataset | None = None
    if start_wave == 0:
        if isinstance(seeds, rd.Dataset):
            # pre-built frontier Dataset (e.g. generated distributed for a
            # huge url-list curl) — must carry the FRONTIER columns
            fr_tbl, fr_ds = _collect_if_small(seeds, small_wave_threshold)
        else:
            if spec.use_sitemaps and isinstance(web, pa.Table):
                # sitemap seeding: the same driver-side expansion the
                # oracle runs (shared helper — semantics cannot drift)
                from ..oracle import expand_seeds_with_sitemaps

                seeds = expand_seeds_with_sitemaps(SyntheticNet(web), seeds)
            fr_tbl = _seeds_frontier(seeds)
            if fr_tbl.num_rows > small_wave_threshold:
                fr_ds, fr_tbl = rd.from_arrow(fr_tbl), None
    else:
        # resumed frontier = children of the last committed wave + its spill
        spill_prev = _wave_dir(out_dir, "spill", start_wave - 1)
        spill_ds = (
            rd.read_parquet(spill_prev).map_batches(
                lambda t: t.select(_FRONTIER_COLS), batch_format="pyarrow"
            )
            if glob.glob(os.path.join(spill_prev, "*.parquet"))
            else None
        )
        if spec.follow_links:
            raw_prev = _wave_dir(out_dir, "raw", start_wave - 1)
            fr_ds = rd.read_parquet(
                raw_prev, columns=["url", "seq", "depth", "child_urls", "child_canonical_urls", "child_hosts", "child_ordinal_base"]
            ).map_batches(explode_children, batch_format="pyarrow")
            if spill_ds is not None:
                fr_ds = fr_ds.union(spill_ds)
        elif spill_ds is not None:
            fr_ds = spill_ds
        else:  # curl crawl fully committed — nothing left to do
            fr_ds = rd.from_arrow(pa.table({c: [] for c in _FRONTIER_COLS}))
        fr_tbl, fr_ds = _collect_if_small(fr_ds, small_wave_threshold)

    driver_fx: FetchExtract | None = None  # in-process fetcher for tiny waves

    if start_wave == 0:
        # root-job do_pre_batch → do_before_crawl (batch_job.rb:219-224)
        fire_hook(
            spec.before_crawl,
            {"event": "before_crawl", "total_jobs": 0, "counters": dict(hook_counters)},
            hook_counters,
        )

    # claim-based in-wave dedup. claims_ready: wave W's candidates were
    # claimed by wave W-1's distributed execution, or deduped on the driver
    # after a driver-planned wave — False for the first planned wave (seeds,
    # resume)
    claims_ready = False
    # keys marked before the first wave (a resume replay, an injected
    # state) belong to no wave's seen part
    state.take_fresh()

    wave = start_wave
    while True:
        if max_waves is not None and wave >= start_wave + max_waves:
            break
        fdir = _wave_dir(out_dir, "frontier", wave)
        raw_dir = _wave_dir(out_dir, "raw", wave)
        seen_dir = _wave_dir(out_dir, "seen", wave)
        spill_dir = _wave_dir(out_dir, "spill", wave)
        local = fr_tbl is not None
        spill_tbl: pa.Table | None = None  # local-mode spill (also on disk)
        spilled = False

        # --- plan the wave (dedup → seen anti-join → seq → politeness) ---
        if local:
            if fr_tbl.num_rows == 0:
                break
            fm_tbl, spill_tbl = _plan_wave_local(
                fr_tbl, state, chain_idx, delay_ms, next_seq, wave, spec,
                host_delays=host_delays,
            )
            n_jobs = fm_tbl.num_rows
            if n_jobs == 0:
                break
            if spill_tbl.num_rows:
                spilled = True
                os.makedirs(spill_dir, exist_ok=True)
                pq.write_table(spill_tbl, os.path.join(spill_dir, "part-0.parquet"))
            os.makedirs(fdir, exist_ok=True)
            pq.write_table(fm_tbl, os.path.join(fdir, "part-0.parquet"))
            # conditional-GET columns attach AFTER the frontier write (the
            # durable frontier keeps its lean schema; prior_links would
            # bloat it) and the same table feeds the fetch
            fetch_tbl = prior_attach(fm_tbl) if prior_attach is not None else fm_tbl
        else:
            # the plan's tasks call the shards: move the state into its
            # actors now (no-op after the first distributed wave)
            state.promote()
            f = fr_ds
            if spec.follow_links:
                # candidates were claimed by their PRODUCING execution (fetch
                # tasks / spill writer); the in-wave dedup + seen anti-join
                # is one map-side RPC filter — no shuffle. Seed waves and
                # resume replans had no producing execution → fallback claim
                # pass (its materialize is the registration barrier).
                if not claims_ready:
                    f = claim_candidates(f, state, wave)
                f = admit_frontier(f, state, wave)
            if spec.priority_fn is not None:
                pf = spec.priority_fn

                def add_neg_prio(t: pa.Table, pf=pf) -> pa.Table:
                    return t.append_column(
                        "neg_prio",
                        pa.array([-int(pf(r)) for r in t.to_pylist()], pa.int64()),
                    )

                f = f.map_batches(add_neg_prio, batch_format="pyarrow")
                sort_cols = ["neg_prio", "parent_seq", "ordinal"]
            else:
                sort_cols = ["parent_seq", "ordinal"]
            if spec.max_pages_per_host is not None:
                # per-host budget gate BEFORE seq assignment (survivors get
                # dense seqs); all of a host's rows meet in one shard
                from ..stages.politeness import enforce_host_budget

                f = enforce_host_budget(
                    f, state, spec.max_pages_per_host, sort_cols
                )
            if spec.trap_guard is not None:
                # trap guard: the same distributed gate keyed by
                # (host, skeleton) — all rows of a skeleton meet in one shard
                from ..canon import trap_keys_of as _tko
                from ..stages.politeness import enforce_host_budget as _ehb

                def _add_trap(t: pa.Table) -> pa.Table:
                    return t.append_column(
                        "_trap",
                        pa.array(_tko(t.column("url").to_pylist()), pa.string()),
                    )

                f = _ehb(
                    f.map_batches(_add_trap, batch_format="pyarrow"),
                    state, spec.trap_guard, sort_cols, key_col="_trap",
                ).map_batches(
                    lambda t: t.drop_columns(["_trap"]), batch_format="pyarrow"
                )
            f, n_jobs = zip_with_index(
                f, sort_cols, col="seq", base=next_seq, with_count=True
            )
            if n_jobs == 0:
                break
            if spec.job_limit is not None and n_jobs > spec.job_limit:
                # cap the wave at job_limit; the split writer spills the
                # sorted remainder and forwards the head in one pass, fused
                # into the wave execution (no separate tail-write execution)
                spilled = True
                f = f.map_batches(
                    _spill_split_writer(
                        spill_dir, next_seq + spec.job_limit,
                        claim_shards=state.shards, claim_wave=wave + 1,
                    ),
                    batch_format="pyarrow",
                )
                n_jobs = spec.job_limit
            f = assign_slots(
                f, state, chain_idx_ref, delay_ms,
                host_delays_ref=host_delays_ref,
                adaptive_pct=spec.adaptive_delay_pct,
                conns=spec.host_connections,
            )
            w = wave
            f = f.map_batches(
                lambda t, w=w: (
                    t.drop_columns(["neg_prio"]) if "neg_prio" in t.column_names else t
                ).append_column("wave", pa.array([w] * t.num_rows, pa.int32())),
                batch_format="pyarrow",
            )
            # durable frontier parts are written passthrough inside the wave
            # execution; the seen delta is derived from the raw fetch blocks
            # alone (_seen_projection), so NOTHING else consumes this chain —
            # the whole wave body (slots → frontier write → fetch → raw write
            # → seen commit) is ONE Ray execution after the plan sort
            f = f.map_batches(
                _passthrough_part_writer(fdir), batch_format="pyarrow", batch_size=None
            )
            # split the slotted frontier so the fetch pool gets even blocks —
            # the groupby upstream can leave a hot shard as one huge block,
            # which would serialize fetch into a single task
            fetch_in = f.repartition(
                max(1, min(math.ceil(n_jobs / fetch_batch_size), ncpus * 2))
            )
            if prior_attach is not None:
                # conditional-GET columns: one batched RPC per prior shard
                # per block (the AdmitFrontier pattern), after the frontier
                # parts are written so the durable schema stays lean
                fetch_in = fetch_in.map_batches(
                    prior_attach, batch_format="pyarrow"
                )

        # pre-batch hook: batch is planned (post dedup/seen), fetch not begun
        fire_hook(
            spec.before_batch,
            {"event": "before_batch", "wave": wave, "n_jobs": n_jobs,
             "total_jobs": total_jobs, "counters": dict(hook_counters)},
            hook_counters,
        )

        # --- fetch + extract (single consumption → durable raw) ---
        # a driver-planned wave of at most driver_fetch_threshold jobs runs
        # in-process (a task round trip costs more than it parallelizes) —
        # same FetchExtract, same output files; a larger one runs as plain
        # Ray tasks over slices of its job table; distributed-planned waves
        # and actor mode run as one Ray Data execution
        if (
            local
            and fetch_mode == "tasks"
            and n_jobs <= driver_fetch_threshold
        ):
            if driver_fx is None:
                driver_fx = FetchExtract(web_ref, spec, wave, cookie_hdrs)
            driver_fx.wave = wave
            driver_fx.cookie_hdrs = cookie_hdrs
            os.makedirs(raw_dir, exist_ok=True)
            out_tbl = driver_fx(fetch_tbl)
            pq.write_table(out_tbl, os.path.join(raw_dir, "part-0.parquet"))
        elif local and fetch_mode == "tasks":
            # at least one task per CPU, at most fetch_batch_size rows per
            # fetch call; the commit below reads the parts from raw_dir
            k = min(n_jobs, max(ncpus, math.ceil(n_jobs / fetch_batch_size)))
            tbl, bounds = _wave_slices(
                fetch_tbl, k, by_host=bool(getattr(web, "realtime", False))
            )
            tbl_ref = ray.put(tbl)
            fn_ref = ray.put(make_fetch_fn(web_ref, spec, wave, crawl_id, cookie_hdrs))
            waits = wall_waits()
            for w in ray.get([
                _fetch_slice.remote(
                    fn_ref, tbl_ref, lo, hi, raw_dir, fetch_batch_size, waits
                )
                for lo, hi in bounds
            ]):
                hold_wall_waits(w)
        else:
            if local:  # actor mode
                fetch_in = rd.from_arrow(fetch_tbl)
                nblocks = min(math.ceil(n_jobs / fetch_batch_size), ncpus * 2)
                if nblocks > 1:
                    fetch_in = fetch_in.repartition(nblocks)
            if fetch_mode == "tasks":
                raw = fetch_in.map_batches(
                    make_fetch_fn(web_ref, spec, wave, crawl_id, cookie_hdrs),
                    batch_format="pyarrow",
                    batch_size=fetch_batch_size,
                )
            else:
                raw = fetch_in.map_batches(
                    FetchExtract,
                    fn_constructor_args=(web_ref, spec, wave, cookie_hdrs),
                    batch_format="pyarrow",
                    batch_size=fetch_batch_size,
                    concurrency=fetch_concurrency,
                )
            if spec.follow_links and not local:
                # next-wave first-wins claims registered inside this wave's
                # execution (its completion is the planning barrier) — the
                # wave after this one needs no dedup shuffle. A local wave
                # registers none: its successor is planned on the driver,
                # or first-wins deduped there before a distributed plan
                raw = raw.map_batches(
                    ClaimChildren(state.shards, wave + 1), batch_format="pyarrow"
                )
            if not local and spec.follow_links:
                # fuse the raw write with the seen mark: the fetch stage
                # writes its durable raw parts in-task (passthrough writer)
                # and forwards the wave's seen delta — job canonicals plus
                # fetched canonicals, both derivable from the raw block
                # (_seen_projection) — to an idempotent shard mark. With
                # the slotted frontier feeding fetch lazily, this single
                # consumption executes the ENTIRE wave body (slots →
                # frontier parts → fetch → raw parts → seen mark) as one Ray
                # execution; the commit below writes the keys it marked.
                # materialize, not to_arrow_refs/limit: Ray 2.49 can abort
                # the driver when it cancels a task that is completing
                raw.map_batches(
                    _passthrough_part_writer(raw_dir, project=_seen_projection),
                    batch_format="pyarrow",
                    batch_size=None,
                ).map_batches(AddSeen(state.shards), batch_format="pyarrow").materialize()
            else:
                raw.write_parquet(raw_dir)

        # --- seen delta (job urls + fetched page urls) + commit ---
        # curl mode marks nothing (no bloom in BatchCurlJob, batch_curl_job.rb)
        if spec.follow_links:
            if local:
                raw_meta = pq.read_table(raw_dir, columns=["canonical_url", "fetched"])
                fetched_canon = raw_meta.filter(raw_meta.column("fetched")).column(
                    "canonical_url"
                ).to_pylist()
                state.add(
                    list(set(fm_tbl.column("canonical_url").to_pylist()) | set(fetched_canon))
                )
            # the wave's one seen part: the keys its mark (above, or inside
            # the fetch execution) inserted — each key once, in the first
            # wave that marks it
            os.makedirs(seen_dir, exist_ok=True)
            pq.write_table(
                pa.table({"canonical_url": pa.array(state.take_fresh(), pa.string())}),
                os.path.join(seen_dir, "part-0.parquet"),
            )
        # the per-host commit: a distributed wave reads a few small columns
        # of its frontier driver-side (no Ray execution)
        wave_tbl = fm_tbl if local else pq.read_table(
            fdir,
            columns=["host", "job_end_ms", "fetch_time_ms"]
            + (["url"] if spec.trap_guard is not None else []),
        )
        updates, sched_updates, lat_updates = _host_commit(wave_tbl)
        trap_updates: dict[str, int] = {}
        if spec.trap_guard is not None:
            from ..canon import trap_keys_of

            trap_updates = dict(Counter(trap_keys_of(wave_tbl.column("url").to_pylist())))
        state.advance_clocks(updates)
        # commit the wave's scheduled counts (mark-after-commit, like the
        # clocks — an uncommitted wave replans identically): per-host budget
        # counts and \x1f-keyed trap counts share one map and one lineage field
        _sched_commit: dict[str, int] = {}
        if spec.max_pages_per_host is not None:
            _sched_commit.update(sched_updates)
        if spec.trap_guard is not None:
            _sched_commit.update(trap_updates)
        if _sched_commit:
            state.add_sched(_sched_commit)
        if spec.adaptive_delay_pct is not None:
            # commit the wave's observed latency (mark-after-commit, like
            # the clocks — an uncommitted wave replans with the old delays)
            state.add_lat(lat_updates)
        next_seq += n_jobs
        total_jobs += n_jobs
        # commit the wave's Set-Cookie responses in deterministic
        # (seq, chain-pos) order into the per-host jar (http.rb:196 merge,
        # made wave-synchronous like the seen set). Bounded driver work:
        # only cookie-bearing fetched rows cross (two short columns).
        if spec.accept_cookies:
            from ..canon import host_of as _host_of
            from ..stages.cookies import merge_committed_header

            ck = pq.read_table(
                raw_dir, columns=["url", "seq", "chain_pos", "set_cookie", "fetched"]
            )
            mask = pc.and_(
                pc.not_equal(ck.column("set_cookie"), ""), ck.column("fetched")
            )
            ck = ck.filter(mask)
            if ck.num_rows:
                order = pc.sort_indices(
                    ck, sort_keys=[("seq", "ascending"), ("chain_pos", "ascending")]
                )
                ck = ck.take(order)
                by_host: dict[str, list[str]] = {}
                for u, sc in zip(
                    ck.column("url").to_pylist(), ck.column("set_cookie").to_pylist()
                ):
                    by_host.setdefault(_host_of(u), []).append(sc)
                for h, scs in by_host.items():
                    cookie_hdrs[h] = merge_committed_header(cookie_hdrs.get(h, ""), scs)

        # post-batch hook: wave data saved and seen marked (do_post_batch,
        # batch_job.rb:192-211); fires BEFORE the lineage marker so its
        # counter increments are in the wave's committed snapshot (resume
        # replays neither the wave nor the hook)
        fire_hook(
            spec.after_batch,
            {"event": "after_batch", "wave": wave, "n_jobs": n_jobs,
             "total_jobs": total_jobs, "counters": dict(hook_counters)},
            hook_counters,
        )
        # per-wave metrics (the lineage-marker telemetry a resumed or
        # monitored crawl reads without touching the data): raw row count
        # from parquet FOOTERS (no data read) + fetched count from a single
        # bool column — bounded cost at any wave size
        n_raw_rows, n_fetched, n_not_modified = 0, 0, 0
        for part_file in sorted(glob.glob(os.path.join(raw_dir, "*.parquet"))):
            # one ParquetFile handle per part (footer + two bool columns);
            # NOT read_table: the wave=N dir name would be hive-parsed into
            # a dictionary column clashing with the in-file int32 "wave"
            pf = pq.ParquetFile(part_file)
            n_raw_rows += pf.metadata.num_rows
            cols_nm = pf.read(columns=["fetched", "not_modified"])
            fcol = cols_nm.column("fetched")
            n_fetched += int(pc.sum(pc.cast(fcol, pa.int64())).as_py() or 0)
            n_not_modified += int(
                pc.sum(pc.cast(cols_nm.column("not_modified"), pa.int64())).as_py() or 0
            )
        write_json(
            os.path.join(out_dir, "lineage", f"wave={wave:05d}.json"),
            {
                "wave": wave,
                "n_jobs": n_jobs,
                "next_seq": next_seq,
                "total_jobs": total_jobs,
                "metrics": {
                    "n_raw_rows": n_raw_rows,
                    "n_fetched": n_fetched,
                    "n_failed": n_raw_rows - n_fetched,
                    "n_not_modified": n_not_modified,
                    "spilled": bool(spilled),
                },
                "hook_counters": dict(hook_counters),
                "cookies": dict(cookie_hdrs),
                "clocks": {h: int(t) for h, t in updates.items()}
                | {
                    h: int(t)
                    for h, t in (committed[-1]["clocks"].items() if committed else [])
                    if h not in updates
                },
                # cumulative per-host scheduled counts (additive, unlike the
                # max-merged clocks) — the budget restore source on resume
                "sched": _merge_sched(
                    committed[-1].get("sched", {}) if committed else {},
                    _sched_commit,
                ),
                # cumulative per-host (latency_sum_ms, n_jobs) — the
                # adaptive-politeness restore source on resume
                "lat": _merge_lat(
                    committed[-1].get("lat", {}) if committed else {},
                    lat_updates if spec.adaptive_delay_pct is not None else {},
                ),
            },
        )
        committed.append(read_json(os.path.join(out_dir, "lineage", f"wave={wave:05d}.json")))
        # this wave's claims were consumed by its plan; free the shard
        # memory. Claims for wave+1 (registered by this wave's fetch / spill
        # writers when it was planned distributed) are now complete — the
        # next plan skips the fallback claim pass.
        state.clear_claims(wave)
        claims_ready = spec.follow_links

        if not spec.follow_links and not spilled:
            wave += 1
            break

        # --- next frontier (children of this wave + spilled remainder) ---
        if local:
            if spec.follow_links:
                raw_children = pq.read_table(
                    raw_dir, columns=["url", "seq", "depth", "child_urls", "child_canonical_urls", "child_hosts", "child_ordinal_base"]
                )
                fr_tbl = explode_children(raw_children)
                if spill_tbl is not None and spill_tbl.num_rows:
                    fr_tbl = pa.concat_tables(
                        [fr_tbl.select(_FRONTIER_COLS), spill_tbl.select(_FRONTIER_COLS)]
                    )
            else:  # curl mode: no children, drain the spill
                fr_tbl = spill_tbl.select(_FRONTIER_COLS)
            fr_ds = None
            if fr_tbl.num_rows > small_wave_threshold:
                # hand off to the distributed planner: this wave registered
                # no claims, so first-wins dedup here and admit_frontier
                # keeps each unseen row — the winners the claims would pick
                if spec.follow_links:
                    fr_tbl = _dedup_batch(fr_tbl)
                fr_ds, fr_tbl = rd.from_arrow(fr_tbl), None
        else:
            spill_ds = (
                rd.read_parquet(spill_dir).map_batches(
                    lambda t: t.select(_FRONTIER_COLS), batch_format="pyarrow"
                )
                if spilled
                else None
            )
            if spec.follow_links:
                fr_ds = rd.read_parquet(
                    raw_dir, columns=["url", "seq", "depth", "child_urls", "child_canonical_urls", "child_hosts", "child_ordinal_base"]
                ).map_batches(explode_children, batch_format="pyarrow")
                if spill_ds is not None:
                    fr_ds = fr_ds.union(spill_ds)
            else:
                fr_ds = spill_ds
            fr_tbl, fr_ds = _collect_if_small(fr_ds, small_wave_threshold)
        if total_jobs > small_wave_threshold:
            # memory bound: past one small wave's worth of committed jobs the
            # state no longer belongs in the driver
            state.promote()
        wave += 1

    handle = CrawlHandle(
        out_dir=out_dir, waves=wave, n_jobs=total_jobs, prior_dir=prior_dir
    )
    # after_crawl receives the page-store analog (dsl_core.rb:172-174 passes
    # @page_store; here the handle's lazy readers)
    fire_hook(
        spec.after_crawl,
        {"event": "after_crawl", "waves": wave, "total_jobs": total_jobs,
         "counters": dict(hook_counters), "handle": handle},
        hook_counters,
    )
    write_json(os.path.join(out_dir, "hook_counters.json"), hook_counters)
    return handle


def crawl_diff(old: CrawlHandle, new: CrawlHandle) -> rd.Dataset:
    """Change report between two crawls of the same seed list: one row per
    canonical URL with status ``added`` (only in *new*), ``removed`` (only
    in *old*), ``changed`` (both, different content ETag) or ``unchanged``
    (both, same ETag — including 304 revalidations, whose echoed etag IS the
    content validator). The freshness-monitoring surface of the incremental
    recrawl: diff(v1 crawl, v2 recrawl) lists exactly what moved.

    Distributed shape: project each side to (canonical_url, etag) of
    fetched pages, tag, hash-shard by URL, per-shard vectorized first-run
    dedup + side comparison — two fixed-width columns shuffle once."""
    import numpy as np

    from ..stages.frontier_ops import _cluster_shards, _first_of_run_mask
    from ..state.shards import shards_of

    n_shards = _cluster_shards()

    def project(side: int):
        def go(t: pa.Table) -> pa.Table:
            t = t.filter(t.column("fetched"))
            sh = shards_of(t.column("canonical_url").to_pylist(), n_shards)
            return pa.table(
                {
                    "url": t.column("canonical_url"),
                    "etag": t.column("etag"),
                    "_shard": pa.array(sh, pa.int64()),
                    "_side": pa.array(np.full(t.num_rows, side, np.int8)),
                }
            )

        return go

    both = old.pages().map_batches(project(0), batch_format="pyarrow").union(
        new.pages().map_batches(project(1), batch_format="pyarrow")
    )

    def compare(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g, sort_keys=[("url", "ascending"), ("_side", "ascending")]
        )
        g = g.take(order)
        # keep one row per (url, side): redirect chains can repeat a url
        keys = pc.binary_join_element_wise(
            g.column("url"), pc.cast(g.column("_side"), pa.string()), "\x1f"
        )
        g = g.filter(_first_of_run_mask(keys))
        n = g.num_rows
        if n == 0:
            return pa.table(
                {"url": pa.array([], pa.string()), "status": pa.array([], pa.string())}
            )
        # vectorized run pairing: after the (url, side) dedup each url has
        # 1 row (one side) or 2 rows (both sides, old first)
        first = np.asarray(_first_of_run_mask(g.column("url")))
        starts = np.flatnonzero(first)
        lens = np.diff(np.append(starts, n))
        urls = np.array(g.column("url").to_pylist(), dtype=object)
        sides = np.asarray(g.column("_side").to_pylist(), dtype=np.int8)
        etags = np.array(g.column("etag").to_pylist(), dtype=object)
        out_u = urls[starts]
        out_s = np.where(sides[starts] == 0, "removed", "added").astype(object)
        pairs = lens == 2
        pi = starts[pairs]
        out_s[pairs] = np.where(
            etags[pi] == etags[pi + 1], "unchanged", "changed"
        )
        return pa.table(
            {
                "url": pa.array(list(out_u), pa.string()),
                "status": pa.array(list(out_s), pa.string()),
            }
        )

    return both.groupby("_shard").map_groups(compare, batch_format="pyarrow")
