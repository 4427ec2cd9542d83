"""Per-host politeness slot assignment.

The reference enforces politeness with a serial ``sleep(delay)`` before each
job inside a batch (batch_job.rb:178-183) plus emergent per-host connection
serialization (http.rb:219-240). Here the constraint is made explicit and
turned into *data*: whichever planner made a wave, its seq-ordered job table
ends on the driver, which reads each host's persistent virtual clock from
the crawl state and assigns every job a fetch slot in one vectorized pass

    t_i = clock + (i+1)*delay + sum_{j<i} chain_latency_j

(i.e. sleep(delay), fetch serially — exactly the oracle's model). The clock
is advanced to the last job's end at wave *commit* time (mark-after-commit,
batch_crawl_job.rb:139-153 generalized), so an uncommitted wave recomputes
identical slots on resume — resumability never violates the politeness
budget.

Skew note: slot assignment is a per-host cumsum over the whole wave (O(n)
numpy, no per-host Python), so a hot host costs no more than its rows; the
expensive fetch+extract runs *afterwards* as tasks over contiguous seq
slices of the wave's job table, so host skew does not serialize real work.
At real network scale the fetcher sleeps until its slot; throughput on a
hot host is then bounded by the politeness budget itself, which no
scheduler can beat. The per-host budget and trap gates, which run before
seq is stamped, stay distributed on the distributed planner
(``enforce_host_budget``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..canon import canonical_url


class ChainLatencyIndex:
    """url → total latency of its same-host redirect chain (the fetch-cost
    model used for slot assignment; mirrors oracle.fetch_chain exactly).

    Built once per crawl: non-redirect rows cost their own latency (the
    overwhelming majority — vectorized copy); only explicit redirect rows
    are chain-walked. Canonical-key fallback is built lazily on the first
    exact-lookup miss, so the common case never pays the O(web)
    canonicalization pass that used to serialize crawl startup."""

    def __init__(self, web: pa.Table, redirect_limit: int = 5):
        import numpy as np

        from ..canon import host_of
        from ..oracle import MAX_HTTP_RETRIES

        self._urls = web.column("url").to_pylist()
        statuses = web.column("status").to_numpy(zero_copy_only=False)
        self._redirects = web.column("redirect_to").to_pylist()
        lats = web.column("latency_ms").to_numpy(zero_copy_only=False).astype(np.int64)
        # per-row clock cost = attempts x latency: failed transient attempts
        # cost latency too (fetch_chain's retry model, http.rb:211-216)
        max_attempts = MAX_HTTP_RETRIES + 1
        if "fail_times" in web.column_names:
            fails = web.column("fail_times").to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            fails = np.zeros(len(lats), dtype=np.int64)
        attempts = np.minimum(fails + 1, max_attempts)
        costs = lats * attempts
        exhausted = fails >= max_attempts
        self.exact: dict[str, int] = {}
        for i, u in enumerate(self._urls):
            self.exact.setdefault(u, i)
        self.chain = costs.copy()
        redirect_rows = [
            i
            for i in range(len(self._urls))
            if 300 <= statuses[i] < 400 and self._redirects[i]
        ]
        for i in redirect_rows:
            total, cur, row = 0, self._urls[i], i
            for _hop in range(redirect_limit + 1):
                total += int(costs[row])
                tgt = self._redirects[row]
                if (
                    not exhausted[row]
                    and 300 <= statuses[row] < 400
                    and tgt
                    and host_of(tgt) == host_of(cur)
                ):
                    nxt = self.exact.get(tgt)
                    if nxt is None:
                        nxt = self._canon_find(tgt)
                    if nxt is None:
                        break
                    cur, row = tgt, nxt
                    continue
                break
            self.chain[i] = total
        self._canon: dict[str, int] | None = None

    def _canon_find(self, u: str):
        if self._canon is None:
            self._canon = {}
            for i, uu in enumerate(self._urls):
                self._canon.setdefault(canonical_url(uu), i)
        return self._canon.get(canonical_url(u))

    def get(self, u: str, default: int = 0) -> int:
        from ..canon import strip_userinfo

        u = strip_userinfo(u)  # match the server-side URL, like net.lookup
        i = self.exact.get(u)
        if i is None:
            i = self._canon_find(u)
        return int(self.chain[i]) if i is not None else default


def build_chain_latency_index(web: pa.Table, redirect_limit: int = 5) -> ChainLatencyIndex:
    return ChainLatencyIndex(web, redirect_limit)


def effective_delay_ms(rp, user_agent: str, default_ms: int) -> int:
    """Per-host politeness delay under robots Crawl-delay compliance:
    max(configured delay, the host's Crawl-delay for this user agent).
    Shared by the engine's host-delay index and the oracle so the clock
    model cannot drift. Robots fetch itself costs no clock time (matching
    the admission-side robots handling, dsl_core.rb:237-241)."""
    try:
        cd = rp.crawl_delay(user_agent)
    except Exception:
        cd = None
    if cd is None:
        return default_ms
    return max(default_ms, int(float(cd) * 1000))


def build_host_delays(web: pa.Table, spec) -> dict[str, int]:
    """host → effective delay_ms overrides from the web table's robots rows
    (bounded by hosts-with-robots; broadcast once like ChainLatencyIndex).
    Only hosts whose robots.txt carries a Crawl-delay appear."""
    import urllib.robotparser

    from ..canon import host_of

    default_ms = int(spec.delay * 1000)
    out: dict[str, int] = {}
    urls = web.column("url").to_pylist()
    statuses = web.column("status").to_numpy(zero_copy_only=False)
    bodies = web.column("body")
    for i, u in enumerate(urls):
        if not u.endswith("/robots.txt") or int(statuses[i]) != 200:
            continue
        rp = urllib.robotparser.RobotFileParser()
        body = bodies[i].as_py() or b""
        rp.parse(body.decode("utf-8", "ignore").splitlines())
        eff = effective_delay_ms(rp, spec.user_agent, default_ms)
        if eff != default_ms:
            out[host_of(u)] = eff
    return out


def adaptive_host_delays(
    hosts: list[str],
    delay_ms: int,
    host_delays: dict[str, int] | None,
    pct: int,
    lat: dict[str, tuple[int, int]],
) -> dict[str, int] | None:
    """Adaptive politeness (target-side addition; the reference's delay is
    static): per host, delay = max(static effective delay, pct% of the
    host's COMMITTED mean observed job latency) — a slow origin is backed
    off proportionally, integer-exact ((pct·sum)//(100·n), no float). Stats
    commit with the wave like the clocks, so both planners and a resumed
    crawl compute identical delays. Shared by the planners' slot tail and
    the oracle."""
    out = dict(host_delays or {})
    for h in hosts:
        s, n = lat.get(h, (0, 0))
        if n:
            a = (pct * s) // (100 * n)
            if a > out.get(h, delay_ms):
                out[h] = a
    return out or None


def slot_block(
    tbl: pa.Table, clocks: dict[str, int], chain_idx, delay_ms: int,
    host_delays: dict[str, int] | None = None, conns: int = 1,
) -> pa.Table:
    """Vectorized multi-host slot assignment over a wave's job table, rows
    already in seq order. Per host (pandas groupby over the whole table, no
    per-host Python):

        t_i = clock_host + (k_i+1)*delay + exclusive-cumsum(chain latency)

    *conns* > 1 (spec.host_connections — the reference's per-host
    connection pool, http.rb:219-240, made explicit): a host's jobs
    round-robin over ``conns`` lanes; the politeness delay applies PER
    LANE (per connection), every lane starts at the host's committed
    clock, and the clock still commits to the max lane end — so the same
    serial kernel runs, grouped by (host, lane) with the host's clock and
    delay.

    Both planners slot their waves with it, on the driver, in the tail
    they share (pipelines/crawl.py ``_slot_jobs``).
    """
    import pandas as pd

    n = tbl.num_rows
    hosts = tbl.column("host").to_pylist()
    urls = tbl.column("url").to_pylist()
    lat = np.fromiter((chain_idx.get(u, 0) for u in urls), dtype=np.int64, count=n)
    hs = pd.Series(hosts)
    if conns > 1:
        # integer (host, lane) group codes — NOT string concatenation:
        # pandas' object-string hashtable compares C-string-style, i.e.
        # keys are EQUAL past an embedded NUL (pandas 2.2 klib), so string
        # composite keys silently merge groups
        lane = hs.groupby(hs, sort=False).cumcount().to_numpy() % conns
        _, hcodes = np.unique(np.asarray(hosts, dtype=object), return_inverse=True)
        gs = pd.Series(hcodes.astype(np.int64) * conns + lane)
    else:
        gs = hs
    within = gs.groupby(gs, sort=False).cumcount().to_numpy()
    cum_lat = pd.Series(lat).groupby(gs, sort=False).cumsum().to_numpy() - lat
    clock0 = hs.map(lambda h: clocks.get(h, 0)).to_numpy(dtype=np.int64)
    if host_delays:
        dly = hs.map(lambda h: host_delays.get(h, delay_ms)).to_numpy(dtype=np.int64)
    else:
        dly = delay_ms
    t = clock0 + dly * (within + 1) + cum_lat
    ends = t + lat
    tbl = tbl.append_column("fetch_time_ms", pa.array(t.astype(np.int64)))
    tbl = tbl.append_column("job_end_ms", pa.array(ends.astype(np.int64)))
    return tbl


def budget_filter_block(
    tbl: pa.Table, sched: dict[str, int], budget: int, key_col: str = "host"
) -> pa.Table:
    """Vectorized per-key budget gate over one table whose rows are already
    in processing order: keep row i of key k iff sched[k] + (k's rows so
    far in this table) < budget. Shared by the driver-side planner and the
    distributed shard filter below so budget semantics cannot drift. The
    key is the host for max_pages_per_host and host+NUL+skeleton for the
    trap guard — same kernel, same counts map."""
    import pandas as pd

    keys = tbl.column(key_col).to_pylist()
    # group by NUL-safe integer codes, never by the raw strings: trap-guard
    # keys embed a NUL separator, and pandas' object-string hashtable
    # treats keys as equal past an embedded NUL (C-string compare, pandas
    # 2.2 klib) — a raw-string groupby would merge every skeleton of a
    # host into one budget group. numpy's unicode compare is full-width.
    _, codes = np.unique(np.asarray(keys, dtype=object), return_inverse=True)
    cs = pd.Series(codes)
    within = cs.groupby(cs, sort=False).cumcount().to_numpy()
    base = pd.Series(keys).map(lambda h: sched.get(h, 0)).to_numpy(dtype=np.int64)
    return tbl.filter(pa.array(base + within < budget))


class ShardBudgetFilter:
    """map_groups callable for groupby(key-hash shard): every row of a key
    lands in one shard, so the per-key cumcount is exact. One batched
    scheduled-count RPC per shard per wave (ShardedState.get_sched), never
    one per key."""

    def __init__(self, state, budget: int, sort_cols: list[str], key_col: str = "host"):
        self.state = state
        self.budget = budget
        self.sort_cols = sort_cols
        self.key_col = key_col

    def __call__(self, group: pa.Table) -> pa.Table:
        group = group.drop_columns(["_bshard"])
        order = pa.compute.sort_indices(
            group, sort_keys=[(c, "ascending") for c in self.sort_cols]
        )
        group = group.take(order)
        uniq_keys = list(dict.fromkeys(group.column(self.key_col).to_pylist()))
        sched = self.state.get_sched(uniq_keys)
        return budget_filter_block(group, sched, self.budget, self.key_col)


def enforce_host_budget(
    ds: rd.Dataset, state, budget: int, sort_cols: list[str],
    n_shards: int | None = None, key_col: str = "host",
) -> rd.Dataset:
    """Distributed per-key budget gate (max_pages_per_host when key_col is
    "host"; the crawl-trap guard when key_col is the host+skeleton column):
    hash-shard by key, per-shard sort in processing order + vectorized
    cumcount against the committed scheduled counts. Runs between the seen
    filter and seq assignment so the surviving wave gets dense sequence
    numbers."""
    from ..state.shards import shards_of
    from .frontier_ops import _cluster_shards

    if n_shards is None:
        n_shards = _cluster_shards()

    def add_shard(t: pa.Table) -> pa.Table:
        sh = shards_of(t.column(key_col).to_pylist(), n_shards)
        return t.append_column("_bshard", pa.array(sh, pa.int64()))

    filt = ShardBudgetFilter(state, budget, sort_cols, key_col)

    def apply(group: pa.Table) -> pa.Table:
        return filt(group)

    ds = ds.map_batches(add_shard, batch_format="pyarrow")
    return ds.groupby("_bshard").map_groups(apply, batch_format="pyarrow")
