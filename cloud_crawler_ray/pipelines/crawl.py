"""The crawl pipeline — iterative BFS waves as Ray Data stages.

Wave lifecycle (SURVEY §3.4):

    frontier_d
      → admit_frontier              (in-wave first-wins claims + anti-join
                                     vs committed seen shards, one RPC)
      → zip_with_index              (deterministic global seq; sort shuffle)
      → job_limit cut + slot_block  (on the driver: spill the tail, per-host
                                     politeness clocks for the head)
      → [checkpoint frontier_d]     (the wave's durable work list)
      → fetch + extract             (FetchExtract; parse-extract fused)
      → write raw/wave=d            (parts named by min seq; retry-safe)
      → projections of raw          (documents/, pages/ — columnar reads)
      → explode_children → frontier_{d+1}
      → commit: mark the seen delta in the shards, write the keys it
                newly marked as seen/wave=d, clocks.advance, lineage marker

Two planners make a wave's slotted job table. A wave of at most
``small_wave_threshold`` candidate rows is planned as in-process Arrow ops
on the driver (``_plan_wave_local``); a larger one by the distributed
planner, a Ray Data pipeline (claims, admission, budget and trap gates,
seq sort) whose seq-stamped output is collected to the driver. Both
planners end in one driver-side tail (``_slot_jobs``): cut the
job_limit spill off the seq-ordered rows, then assign the politeness slots
of the rest. From there every wave takes one path: the driver writes its
spill and frontier parts and fetches the table in-process when it has at
most ``driver_fetch_threshold`` jobs, else by plain Ray tasks over
contiguous slices of it (``_fetch_slice``, host lanes on a real network),
each writing its own raw parts; the driver then marks the seen delta and
commits. The crawl state (seen set, clocks, budgets, claims) starts in the
driver, and the tasks of a distributed plan that only read it (admission,
budget and trap gates) get a read-only copy of it; the driver writes it at
commit, after the plan has run. It moves into ``StateShard`` actors only
when a task must write to it — the fallback claim pass, a resume replay —
or once the committed job count passes the threshold (state/shards.py
``ShardedState``). Only distributed-planned waves on a promoted state
register next-wave claims: the driver for their spill, their fetch tasks
for the children; a driver frontier handed to the distributed planner is
first-wins deduped on the driver, and a distributed plan whose candidates
nobody claimed runs the fallback claim pass.

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
from ..stages.politeness import build_chain_latency_index

# candidate-row schema shared by seeds, explode_children, and spill
_FRONTIER_COLS = ["url", "canonical_url", "host", "referer", "depth", "parent_seq", "ordinal"]
# the raw columns explode_children reads
_CHILD_COLS = [
    "url", "seq", "depth", "child_urls", "child_canonical_urls", "child_hosts",
    "child_ordinal_base",
]

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
        # each wave's frontier is one part in seq order and seq ranges rise
        # with the wave, so the parts read in path order are crawl order
        ds.context.execution_options.preserve_order = True
        return ds

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
    cand: pa.Table, state, chain_idx: dict, delay_ms: int, base_seq: int, spec,
    host_delays: dict[str, int] | None = None,
) -> tuple[pa.Table, pa.Table]:
    """Driver-side wave planning for small waves (≤ small_wave_threshold).

    Semantically identical to the distributed planner (claims +
    admit_frontier → budget and trap gates → zip_with_index) but as
    in-process Arrow ops: below the threshold the wave's metadata is tiny
    (≈100 B/row) and Ray Data executions cost more than they parallelize.
    Both planners end in the same driver-side tail, ``_slot_jobs``.
    Membership, budget and clock reads go through ``state``: direct calls
    while its partitions are still in the driver, one batched call per shard
    actor once promoted. The distributed planner remains the ≥-threshold
    route and is exercised in tests via small_wave_threshold=0."""
    import numpy as np

    if spec.follow_links and cand.num_rows:
        cand = _dedup_batch(cand)  # in-wave first-wins
        unseen = state.check(cand.column("canonical_url").to_pylist())
        cand = cand.filter(pa.array(unseen))
    if cand.num_rows == 0:
        return cand, cand

    # processing order: priority-first when a priority_fn is set (the
    # north-rule priority queue; with job_limit the cap keeps the
    # top-priority jobs), else pure (parent_seq, ordinal) BFS order
    keyed = cand
    sort_keys = [("parent_seq", "ascending"), ("ordinal", "ascending")]
    if spec.priority_fn is not None:
        prio = pa.array(
            [int(spec.priority_fn(r)) for r in cand.to_pylist()], pa.int64()
        )
        keyed = cand.append_column("prio", prio)
        sort_keys.insert(0, ("prio", "descending"))
    cand = cand.take(pc.sort_indices(keyed, sort_keys=sort_keys))
    # per-host crawl budget: keep each host's first remaining-budget rows in
    # processing order; dropped rows are neither spilled nor seen-marked
    if spec.max_pages_per_host is not None:
        from ..stages.politeness import budget_filter_block

        uniq_hosts = list(dict.fromkeys(cand.column("host").to_pylist()))
        cand = budget_filter_block(
            cand, state.get_sched(uniq_hosts), spec.max_pages_per_host
        )
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
        return cand, cand
    n = cand.num_rows
    cand = cand.append_column(
        "seq", pa.array(np.arange(base_seq, base_seq + n, dtype=np.int64))
    )
    return _slot_jobs(cand, state, chain_idx, delay_ms, spec, host_delays)


def _slot_jobs(
    jobs: pa.Table, state, chain_idx, delay_ms: int, spec,
    host_delays: dict[str, int] | None,
) -> tuple[pa.Table, pa.Table]:
    """The driver-side tail of both planners, over a wave's admitted rows in
    seq order (seq dense from the wave's first): the job_limit throttle
    spills the rows past the cap, without seq — it is re-assigned when they
    re-enter a wave plan, landing on the same value because spilled rows
    sort before any newer children (batch_job.rb:229-241) — and the kept
    rows get their politeness slots from the committed per-host clocks
    (and, with adaptive politeness, committed latency stats) in one
    vectorized ``slot_block`` pass. Returns (slotted jobs, spill)."""
    from ..stages.politeness import adaptive_host_delays, slot_block

    spill = jobs.slice(0, 0)
    if spec.job_limit is not None and jobs.num_rows > spec.job_limit:
        spill = jobs.slice(spec.job_limit)
        jobs = jobs.slice(0, spec.job_limit)
    uniq_hosts = list(dict.fromkeys(jobs.column("host").to_pylist()))
    clocks = state.get_clocks(uniq_hosts)
    if spec.adaptive_delay_pct is not None:
        host_delays = adaptive_host_delays(
            uniq_hosts, delay_ms, host_delays,
            spec.adaptive_delay_pct, state.get_lat(uniq_hosts),
        )
    jobs = slot_block(
        jobs, clocks, chain_idx, delay_ms, host_delays,
        conns=spec.host_connections,
    )
    return jobs, spill.drop_columns(["seq"])


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
    """map_batches callable that marks canonical URLs in a promoted state —
    the resume replay of committed seen parts into fresh shards.
    Idempotent: a retried batch re-marks nothing."""

    def __init__(self, state: ShardedState):
        self.state = state

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column("canonical_url").to_pylist()
        self.state.add(keys)
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
    fetch_batch_size: int = 512,
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

    Planners: a wave of at most small_wave_threshold candidate rows is
    planned on the driver, a larger one by the distributed (Ray Data)
    planner — semantically identical, and ending in the same driver-side
    job_limit cut and slotting; 0 forces the distributed planner. The
    crawl state stays in the driver, and a distributed plan's tasks read a
    copy of it, until a task must write to it (a fallback claim pass, a
    resume replay) or the committed job count passes the threshold; then it
    moves into shard actors (ShardedState).

    Fetch, whichever planner made the wave: a wave of at most
    driver_fetch_threshold jobs is fetched in the driver process; a larger
    one by plain Ray tasks over k = min(jobs, max(CPUs, ceil(jobs /
    fetch_batch_size))) contiguous slices of its job table (on a real
    network, k host lanes instead, so a host's jobs share one process and
    its wall-clock spacing), at most fetch_batch_size rows per fetch call.
    Fetch state is read-only and cached per worker process across waves.

    prior_dir: a previous crawl's out_dir → incremental recrawl. The prior
    crawl's validated (canonical_url, etag, admitted links) load into
    sharded PriorIndex actors (state/prior.py); each job fetches with
    If-None-Match, a 304 costs the validation round trip on the politeness
    clock but no re-extraction, replays the prior admitted links (so BFS
    traverses unchanged regions to reach changed/new pages), and its
    document fills from the prior documents parquet at read time. Resume of
    a recrawl recovers prior_dir from the crawl's meta.json.
    """
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
            fetch_batch_size=fetch_batch_size,
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
    if ds.count() <= threshold:
        return _driver_table(ds), ds
    return None, ds


def _disk_frontier(
    out_dir: str, wave: int, spec, threshold: int
) -> tuple[pa.Table | None, rd.Dataset]:
    """The frontier after committed wave *wave*, read from its parts on
    disk: its fetched pages' children (unless curl mode) plus its job_limit
    spill, collected to the driver iff it is small (``_collect_if_small``).
    Resume and the wave after a distributed-planned one start here."""
    parts = []
    if spec.follow_links:
        parts.append(
            rd.read_parquet(_wave_dir(out_dir, "raw", wave), columns=_CHILD_COLS)
            .map_batches(explode_children, batch_format="pyarrow")
        )
    spill_dir = _wave_dir(out_dir, "spill", wave)
    if glob.glob(os.path.join(spill_dir, "*.parquet")):
        parts.append(
            rd.read_parquet(spill_dir).map_batches(
                lambda t: t.select(_FRONTIER_COLS), batch_format="pyarrow"
            )
        )
    if not parts:  # a curl crawl with nothing left to do
        parts.append(rd.from_arrow(pa.table({c: [] for c in _FRONTIER_COLS})))
    ds = parts[0] if len(parts) == 1 else parts[0].union(parts[1])
    return _collect_if_small(ds, threshold)


def _driver_table(ds: rd.Dataset) -> pa.Table:
    """The rows of a MATERIALIZED Dataset as one driver-side table (no
    columns when every block is empty). to_arrow_refs() on a lazy Dataset
    executes it and then cancels tasks, and Ray 2.49 can abort the driver
    when it cancels a task that is completing."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def _passthrough_part_writer(dirpath: str):
    """Writer that durably writes each block to *dirpath* as a parquet part
    and passes it on. Part names derive from the block's min seq (globally
    unique per wave, disjoint across blocks), so a Ray task retry overwrites
    the same file — the write is idempotent under at-least-once execution,
    and uncommitted wave dirs are purged wholesale on resume regardless."""
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
        return t

    return write


def _wave_slices(
    tbl: pa.Table, k: int, by_host: bool = False
) -> tuple[pa.Table, list[tuple[int, int]]]:
    """Split a wave's seq-ordered job table into the [lo, hi)
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
                 batch_size: int, waits: dict[str, float],
                 claim: ClaimChildren | None = None) -> dict[str, float]:
    """One fetch task of a wave: rows [lo, hi) of the wave's job table, at
    most *batch_size* per fetch call, each call's output written as a raw
    part (named from its min seq, so a retried task overwrites its own
    parts) after *claim*, if given, registered its next-wave claims (an
    idempotent min-merge, so a retry re-registers nothing new). Takes and
    returns the per-host wall-clock waits of a real network (empty for a
    synthetic one)."""
    hold_wall_waits(waits)
    write = _passthrough_part_writer(raw_dir)
    for s in range(lo, hi, batch_size):
        part = fetch_fn(tbl.slice(s, min(batch_size, hi - s)))
        write(part if claim is None else claim(part))
    return wall_waits()


def _crawl_inner(
    web, seeds, spec, out_dir, state,
    *, fetch_batch_size,
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
    delay_ms = int(spec.delay * 1000)
    # robots Crawl-delay compliance: per-host delay overrides (bounded by
    # hosts-with-robots), built once like the latency index. The procedural
    # web carries no robots rows → no overrides.
    host_delays: dict[str, int] | None = None
    if spec.obey_crawl_delay and isinstance(web, pa.Table):
        from ..stages.politeness import build_host_delays

        host_delays = build_host_delays(web, spec) or None
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
            # the replay's tasks write: move the state into its actors
            state.promote()
            rd.read_parquet(seen_files, columns=["canonical_url"]).map_batches(
                AddSeen(state), batch_format="pyarrow", batch_size=4096
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
        # resumed frontier: from the last committed wave's parts
        fr_tbl, fr_ds = _disk_frontier(out_dir, start_wave - 1, spec, small_wave_threshold)

    driver_fx: FetchExtract | None = None  # in-process fetcher for tiny waves

    if start_wave == 0:
        # root-job do_pre_batch → do_before_crawl (batch_job.rb:219-224)
        fire_hook(
            spec.before_crawl,
            {"event": "before_crawl", "total_jobs": 0, "counters": dict(hook_counters)},
            hook_counters,
        )

    # claim-based in-wave dedup. claims_ready: wave W's candidates were
    # claimed by distributed-planned wave W-1 (spill and fetch), or deduped on
    # the driver after a driver-planned wave — False for the first planned
    # wave (seeds, resume)
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

        # --- plan the wave (dedup → seen anti-join → seq → politeness) ---
        if local:
            if fr_tbl.num_rows == 0:
                break
            fm_tbl, spill_tbl = _plan_wave_local(
                fr_tbl, state, chain_idx, delay_ms, next_seq, spec,
                host_delays=host_delays,
            )
            if fm_tbl.num_rows == 0:
                break
        else:
            # the plan's tasks only read the state (the driver writes it at
            # commit, after the plan has run): an unpromoted state reaches
            # them as a read-only copy. Its one writer, the fallback claim
            # pass, promotes it first
            f = fr_ds
            if spec.follow_links:
                # candidates were claimed by their PRODUCERS (the previous
                # wave's fetch tasks, the driver for its spill); the in-wave
                # dedup + seen anti-join is one map-side RPC filter — no
                # shuffle. Seed waves and resume replans had no producer
                # that claimed → fallback claim pass (its materialize is
                # the registration barrier).
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
            # the plan ends at seq: its stamped rows come to the driver
            # (zip_with_index's output is already materialized) and take
            # the driver planner's tail
            fm_tbl = _driver_table(f).sort_by("seq")
            if "neg_prio" in fm_tbl.column_names:
                fm_tbl = fm_tbl.drop_columns(["neg_prio"])
            fm_tbl, spill_tbl = _slot_jobs(
                fm_tbl, state, chain_idx, delay_ms, spec, host_delays
            )

        # --- from here on one path, whichever planner made the wave ---
        # a distributed-planned wave on a promoted state registers the
        # next-wave first-wins claims of the candidates it produces: its
        # spill (here, from the driver) and its children (from each fetched
        # part), so the next distributed plan needs no claim pass. A
        # driver-planned wave registers none: its successor is planned on
        # the driver, or first-wins deduped there before a distributed plan.
        # Neither does a wave whose state is still in the driver
        # (registering from a fetch task would promote it): a distributed
        # plan after it runs the fallback claim pass
        claims_next = spec.follow_links and not local and state.promoted
        spilled = spill_tbl.num_rows > 0
        if spilled:
            os.makedirs(spill_dir, exist_ok=True)
            pq.write_table(spill_tbl, os.path.join(spill_dir, "part-0.parquet"))
            if claims_next:
                state.claim_frontier(
                    wave + 1,
                    spill_tbl.column("canonical_url").to_pylist(),
                    spill_tbl.column("parent_seq").to_numpy(zero_copy_only=False),
                    spill_tbl.column("ordinal").to_numpy(zero_copy_only=False),
                )
        n_jobs = fm_tbl.num_rows
        fm_tbl = fm_tbl.append_column("wave", pa.array([wave] * n_jobs, pa.int32()))
        os.makedirs(fdir, exist_ok=True)
        pq.write_table(fm_tbl, os.path.join(fdir, "part-0.parquet"))
        # conditional-GET columns attach AFTER the frontier write (the
        # durable frontier keeps its lean schema; prior_links would bloat
        # it) and the same table feeds the fetch
        fetch_tbl = prior_attach(fm_tbl) if prior_attach is not None else fm_tbl

        # pre-batch hook: batch is planned (post dedup/seen), fetch not begun
        fire_hook(
            spec.before_batch,
            {"event": "before_batch", "wave": wave, "n_jobs": n_jobs,
             "total_jobs": total_jobs, "counters": dict(hook_counters)},
            hook_counters,
        )

        # --- fetch + extract → durable raw parts ---
        claim = ClaimChildren(state, wave + 1) if claims_next else None
        if n_jobs <= driver_fetch_threshold:
            # in-process: a task round trip costs more than it parallelizes
            if driver_fx is None:
                driver_fx = FetchExtract(web_ref, spec, wave, cookie_hdrs)
            driver_fx.wave = wave
            driver_fx.cookie_hdrs = cookie_hdrs
            out_tbl = driver_fx(fetch_tbl)
            if claim is not None:
                claim(out_tbl)
            os.makedirs(raw_dir, exist_ok=True)
            pq.write_table(out_tbl, os.path.join(raw_dir, "part-0.parquet"))
        else:
            # plain Ray tasks over slices of the job table: at least one
            # per CPU, at most fetch_batch_size rows per fetch call
            k = min(n_jobs, max(ncpus, math.ceil(n_jobs / fetch_batch_size)))
            tbl, bounds = _wave_slices(
                fetch_tbl, k, by_host=bool(getattr(web, "realtime", False))
            )
            tbl_ref = ray.put(tbl)
            fn_ref = ray.put(make_fetch_fn(web_ref, spec, wave, crawl_id, cookie_hdrs))
            waits = wall_waits()
            for w in ray.get([
                _fetch_slice.remote(
                    fn_ref, tbl_ref, lo, hi, raw_dir, fetch_batch_size, waits, claim
                )
                for lo, hi in bounds
            ]):
                hold_wall_waits(w)

        # --- seen delta (job urls + fetched page urls) + commit ---
        # one read of the wave's raw parts, of the columns the commit needs:
        # the seen delta, the cookie jar, the lineage metrics and, for a
        # driver-planned wave, the children of the next frontier
        raw_cols = ["fetched", "not_modified"]
        if spec.follow_links:
            raw_cols += ["canonical_url"] + (_CHILD_COLS if local else [])
        if spec.accept_cookies:
            raw_cols += ["url", "seq", "chain_pos", "set_cookie"]
        raw = pq.read_table(raw_dir, columns=list(dict.fromkeys(raw_cols)))
        # curl mode marks nothing (no bloom in BatchCurlJob, batch_curl_job.rb)
        if spec.follow_links:
            fetched_canon = raw.filter(raw.column("fetched")).column(
                "canonical_url"
            ).to_pylist()
            state.add(
                list(set(fm_tbl.column("canonical_url").to_pylist()) | set(fetched_canon))
            )
            # the wave's one seen part: the keys the mark inserted — each
            # key once, in the first wave that marks it
            os.makedirs(seen_dir, exist_ok=True)
            pq.write_table(
                pa.table({"canonical_url": pa.array(state.take_fresh(), pa.string())}),
                os.path.join(seen_dir, "part-0.parquet"),
            )
        updates, sched_updates, lat_updates = _host_commit(fm_tbl)
        trap_updates: dict[str, int] = {}
        if spec.trap_guard is not None:
            from ..canon import trap_keys_of

            trap_updates = dict(Counter(trap_keys_of(fm_tbl.column("url").to_pylist())))
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

            mask = pc.and_(
                pc.not_equal(raw.column("set_cookie"), ""), raw.column("fetched")
            )
            ck = raw.filter(mask)
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
        # monitored crawl reads without touching the data)
        n_raw_rows = raw.num_rows
        n_fetched = int(pc.sum(pc.cast(raw.column("fetched"), pa.int64())).as_py() or 0)
        n_not_modified = int(
            pc.sum(pc.cast(raw.column("not_modified"), pa.int64())).as_py() or 0
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
        # writers when it was planned distributed on a promoted state) are
        # now complete, or its children are deduped on the driver after a
        # driver-planned wave — the next plan skips the fallback claim pass.
        state.clear_claims(wave)
        claims_ready = spec.follow_links and (local or claim is not None)

        if not spec.follow_links and not spilled:
            wave += 1
            break

        # --- next frontier (children of this wave + spilled remainder) ---
        if local:
            fr_tbl = spill_tbl.select(_FRONTIER_COLS)  # curl mode: drain it
            if spec.follow_links:
                kids = explode_children(raw.select(_CHILD_COLS))
                fr_tbl = (
                    pa.concat_tables([kids.select(_FRONTIER_COLS), fr_tbl])
                    if spilled else kids
                )
            fr_ds = None
            if fr_tbl.num_rows > small_wave_threshold:
                # hand off to the distributed planner: this wave registered
                # no claims, so first-wins dedup here and admit_frontier
                # keeps each unseen row — the winners the claims would pick
                if spec.follow_links:
                    fr_tbl = _dedup_batch(fr_tbl)
                fr_ds, fr_tbl = rd.from_arrow(fr_tbl), None
        else:
            fr_tbl, fr_ds = _disk_frontier(out_dir, wave, spec, small_wave_threshold)
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
