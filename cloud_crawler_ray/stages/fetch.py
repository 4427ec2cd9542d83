"""Fetch + extract — the stateful actor-pool stage (parse-extract fusion).

One callable class passed to ``map_batches(FetchExtract, concurrency=N,
batch_size=B)``: per-actor state (the synthetic-web index, robots parser
cache, compiled skip patterns, link-admission logic) is built ONCE in
``__init__`` from broadcast object refs (``ray.put`` once on the driver);
``__call__`` processes an Arrow batch of frontier jobs and emits one row per
kept page — metadata + interleaved spans + already-admitted child links.
Page bodies never cross a stage boundary (SURVEY §1.1: the reference never
serializes the DOM either).

Reference analogs: HTTP fetch/redirect loop http.rb:68-91,155-169 (per-actor
connection/cookie caches http.rb:219-240, cookie_store.rb → here the web
index + robots cache); process_job batch_crawl_job.rb:75-137 (page blocks,
links_to_follow, child-job construction).

Politeness is enforced via the precomputed virtual fetch slots (the
``fetch_time_ms`` column assigned by stages/politeness.py): the serial
per-host constraint is turned into *data*, so fetch parallelism is
independent of host skew — a real-network fetcher would sleep until its
slot; the synthetic one records it.
"""

from __future__ import annotations

import re
import time

import pyarrow as pa
import ray

from .. import canon
from ..canon import canonical_url, host_of
from ..extract import extract_page, is_parseable
from ..functions.agents import agent_for
from ..oracle import LinkAdmission, SyntheticNet, fetch_chain
from ..schemas import SPAN_TYPE
from ..spec import CrawlSpec
from .cookies import CookieStore, request_cookie_header

FETCH_OUT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("canonical_url", pa.string()),
        ("code", pa.int32()),
        ("depth", pa.int32()),
        ("referer", pa.string()),
        ("redirect_to", pa.string()),
        ("response_time_ms", pa.int64()),
        ("fetched", pa.bool_()),
        ("error", pa.string()),
        ("fetch_time_ms", pa.int64()),
        ("seq", pa.int64()),
        ("wave", pa.int32()),
        ("job_url", pa.string()),
        ("job_host", pa.string()),
        ("job_end_ms", pa.int64()),
        ("spans", pa.list_(SPAN_TYPE)),
        ("child_urls", pa.list_(pa.string())),
        # canonical form + politeness host of each child, computed ONCE here
        # (admitted children only): explode_children and the claim
        # registration consume these columns zero-copy instead of re-running
        # the canonicalization string loop per wave
        ("child_canonical_urls", pa.list_(pa.string())),
        ("child_hosts", pa.list_(pa.string())),
        ("child_ordinal_base", pa.int64()),
        ("user_agent", pa.string()),
        ("counter_keys", pa.list_(pa.string())),
        ("counter_vals", pa.list_(pa.int64())),
        ("set_cookie", pa.string()),
        ("chain_pos", pa.int32()),
        ("etag", pa.string()),
        ("not_modified", pa.bool_()),
        ("canonical_decl", pa.string()),
        # noindex is the EFFECTIVE directive (raw <meta robots> noindex
        # gated by spec.obey_meta_robots), so documents() can always filter
        # on it without knowing the spec
        ("noindex", pa.bool_()),
    ]
)


# wall-clock politeness map for real-socket nets (stages/httpnet.py): host →
# earliest next fetch start, per worker process (shared across waves and
# across the cached/actor fetchers in this process)
_NEXT_OK_WALL: dict[str, float] = {}


def wall_waits() -> dict[str, float]:
    """Seconds each host must still wait before its next fetch from this
    process (hosts whose spacing has run out are left out). Relative times,
    so they can be carried to another process whatever its clock."""
    now = time.monotonic()
    return {h: t - now for h, t in _NEXT_OK_WALL.items() if t > now}


def hold_wall_waits(waits: dict[str, float]) -> None:
    """Merge *waits* (``wall_waits`` of another process) into this process's
    spacing; each only lengthens a host's wait."""
    now = time.monotonic()
    for h, w in waits.items():
        _NEXT_OK_WALL[h] = max(_NEXT_OK_WALL.get(h, 0.0), now + w)


class FetchExtract:
    def __init__(self, web_ref, spec: CrawlSpec, wave: int, cookie_hdrs: dict | None = None):
        payload = ray.get(web_ref)
        if isinstance(payload, tuple):  # (table, prebuilt sorted-hash index)
            self.net = SyntheticNet(payload[0], index=payload[1])
        elif isinstance(payload, pa.Table):
            self.net = SyntheticNet(payload)
        else:
            self.net = payload  # ProceduralWeb (or any lookup-interface net)
        self.spec = spec
        self.wave = wave
        self.adm = LinkAdmission(spec, self.net)
        self._hook_res = [(re.compile(p), fn) for p, fn in spec.on_pages_like]
        self.cookies = CookieStore() if spec.accept_cookies else None
        # wave-committed per-host Cookie headers (set by the driver per wave;
        # read-only here, so fetch stays deterministic in task mode too)
        self.cookie_hdrs: dict[str, str] = cookie_hdrs or {}
        # real-socket backend (stages/httpnet.py HttpNet): the net fetches
        # over the wire via its own chain() and politeness is enforced on
        # the WALL clock here (reference sleeps between same-host requests,
        # dsl_core.rb delay; the synthetic path records virtual slots only)
        self._real_chain = getattr(self.net, "chain", None)
        self._realtime = bool(getattr(self.net, "realtime", False))

    def __call__(self, batch: pa.Table) -> pa.Table:
        spec = self.spec
        cols: dict[str, list] = {name: [] for name in FETCH_OUT_SCHEMA.names}

        urls = batch.column("url").to_pylist()
        referers = batch.column("referer").to_pylist()
        depths = batch.column("depth").to_pylist()
        seqs = batch.column("seq").to_pylist()
        hosts = batch.column("host").to_pylist()
        fts = batch.column("fetch_time_ms").to_pylist()
        ends = batch.column("job_end_ms").to_pylist()
        # incremental-recrawl columns, attached pre-fetch by PriorAttach
        # (state/prior.py) when the crawl has a prior_dir
        if "prior_etag" in batch.column_names:
            pes = batch.column("prior_etag").to_pylist()
            plinks = batch.column("prior_links").to_pylist()
        else:
            pes = [""] * len(urls)
            plinks = [None] * len(urls)

        # per-batch lookups, hoisted out of the row loop; admit and
        # canonical_urls are resolved here on every call, not in __init__,
        # so a wrapper installed on LinkAdmission or canon takes effect
        wave = self.wave
        admit = self.adm.admit
        canonical_urls, hosts_of = canon.canonical_urls, canon.hosts_of
        follow = spec.follow_links
        meta_robots = spec.obey_meta_robots
        focus = spec.focus_crawl
        wall_politeness = self._realtime and spec.delay > 0

        for url, referer, depth, seq, host, ft, end, pe, plink in zip(
            urls, referers, depths, seqs, hosts, fts, ends, pes, plinks
        ):
            ua = agent_for(spec.user_agent, spec.ua_seed, seq)
            req_cookies = request_cookie_header(
                spec.cookies, self.cookie_hdrs.get(host, ""), spec.accept_cookies
            )
            if self._real_chain is not None:
                if wall_politeness:
                    # per-host spacing on the WALL clock (the virtual slot
                    # plan spaces jobs too, but a real network's latency is
                    # unknowable in advance): same-host jobs are co-located
                    # in one politeness lane (one block → serial in one
                    # worker), and the per-process next-allowed map keyed by
                    # host enforces delay between a fetch END and the next
                    # same-host START, whatever the real response times do.
                    # Across driver-planned waves the driver carries each
                    # host's remaining wait to the next wave's fetch tasks
                    # (wall_waits / hold_wall_waits); a distributed-planned
                    # wave is spaced by its planning barrier only.
                    wait = _NEXT_OK_WALL.get(host, 0.0) - time.monotonic()
                    if wait > 0:
                        time.sleep(wait)
                chain = self._real_chain(
                    url, depth, referer, spec.redirect_limit,
                    cookie_header=req_cookies, prior_etag=pe or "",
                    user_agent=ua,
                )
                if wall_politeness:
                    _NEXT_OK_WALL[host] = time.monotonic() + spec.delay
            else:
                chain = fetch_chain(
                    self.net, url, depth, referer, spec.redirect_limit,
                    cookie_header=req_cookies, prior_etag=pe or "",
                )
            kept = chain if spec.keep_redirects else chain[-1:]
            ordinal_base = 0
            for pos, p in enumerate(kept):
                ex = (
                    extract_page(p.url, p.body, p.content_type)
                    if p.fetched and is_parseable(p.content_type)
                    else None
                )
                spans = (
                    []
                    if ex is None
                    else [
                        {"kind": k, "text": t, "media_ref": m, "offset": o}
                        for k, t, m, o in ex.spans
                    ]
                )
                if self.cookies is not None and p.set_cookie:
                    self.cookies.merge(host_of(p.url), [p.set_cookie])
                page_canonical = canonical_url(p.url)
                page_dict = {
                    "user_agent": ua,
                    "url": p.url,
                    "canonical_url": page_canonical,
                    "code": p.code,
                    "depth": p.depth,
                    "referer": p.referer,
                    "redirect_to": p.redirect_to,
                    "response_time_ms": p.latency_ms,
                    "fetched": p.fetched,
                    "error": p.error,
                    "fetch_time_ms": ft,
                    "seq": seq,
                    "wave": wave,
                    "spans": spans,
                    "links": [] if ex is None else list(ex.links),
                }
                ckeys, cvals = self._run_hooks(page_dict)

                children: list[str] = []
                if follow and p.fetched and (ex is not None or p.not_modified):
                    if p.not_modified:
                        # 304: replay the prior crawl's admitted links,
                        # re-admitted under the current spec at the current
                        # depth (no focus_crawl — no content to focus on)
                        links = list(plink or [])
                    else:
                        links = ex.links
                        if meta_robots:
                            # meta nofollow kills all links; rel=nofollow
                            # anchors are excluded individually
                            if ex.nofollow_all:
                                links = []
                            elif ex.nofollow:
                                links = [l for l in links if l not in ex.nofollow]
                        if focus is not None:
                            links = focus(page_dict, links)
                    children = [ln for ln in links if admit(ln, p.url, p.depth)]

                if spec.discard_page:
                    # discard affects STORED output only (discard_page_bodies
                    # empties the doc after processing, core.rb) — hooks and
                    # focus_crawl above saw the full spans
                    page_dict["spans"] = []

                cols["url"].append(p.url)
                cols["canonical_url"].append(page_canonical)
                cols["code"].append(p.code)
                cols["depth"].append(p.depth)
                cols["referer"].append(p.referer)
                cols["redirect_to"].append(p.redirect_to)
                cols["response_time_ms"].append(p.latency_ms)
                cols["fetched"].append(p.fetched)
                cols["error"].append(p.error)
                cols["fetch_time_ms"].append(ft)
                cols["seq"].append(seq)
                cols["wave"].append(wave)
                cols["job_url"].append(url)
                cols["job_host"].append(host)
                cols["job_end_ms"].append(end)
                cols["user_agent"].append(ua)
                cols["spans"].append(page_dict["spans"])
                cols["child_urls"].append(children)
                cols["child_canonical_urls"].append(canonical_urls(children))
                cols["child_hosts"].append(hosts_of(children))
                cols["child_ordinal_base"].append(ordinal_base)
                cols["counter_keys"].append(ckeys)
                cols["counter_vals"].append(cvals)
                cols["set_cookie"].append(p.set_cookie)
                cols["chain_pos"].append(pos)
                cols["etag"].append(p.etag)
                cols["not_modified"].append(p.not_modified)
                cols["canonical_decl"].append("" if ex is None else ex.canonical)
                cols["noindex"].append(bool(meta_robots and ex is not None and ex.noindex))
                ordinal_base += len(children)

        return pa.table(cols, schema=FETCH_OUT_SCHEMA)

    def _run_hooks(self, page_dict: dict) -> tuple[list[str], list[int]]:
        """do_page_blocks (dsl_core.rb:180-186): counter increments are
        emitted as data columns and aggregated with groupby downstream —
        the partial/combiner pattern of examples/sugary_word_count.rb."""
        counters: dict[str, int] = {}
        hooks = [self.spec.on_every_page] if self.spec.on_every_page else []
        if self._hook_res:
            hooks += [fn for cre, fn in self._hook_res if cre.search(page_dict["url"])]
        for fn in hooks:
            out = fn(page_dict)
            if isinstance(out, dict):
                for k, v in out.items():
                    counters[k] = counters.get(k, 0) + int(v)
        return list(counters), list(counters.values())


# Per-worker-process cache for task-mode fetch. The fetch state (web index,
# robots parsers, compiled patterns) is READ-ONLY, so it can live in reused
# Ray worker processes instead of a dedicated actor pool: the first batch a
# worker sees builds the state, every later batch (across ALL waves of the
# same crawl) reuses it. This removes the per-wave actor-pool spawn cost of
# an iterative crawl. Genuinely mutable per-connection state (cookies, live
# sockets — http.rb:219-240, cookie_store.rb) would require actor mode
# (fetch_mode="actors"), which remains available and tested.
_PROC_CACHE: dict[str, FetchExtract] = {}


def make_fetch_fn(
    web_ref, spec: CrawlSpec, wave: int, crawl_id: str,
    cookie_hdrs: dict | None = None,
):
    def fetch_batch(batch: pa.Table) -> pa.Table:
        fx = _PROC_CACHE.get(crawl_id)
        if fx is None:
            _PROC_CACHE.clear()  # at most one crawl's state per worker
            fx = FetchExtract(web_ref, spec, wave)
            _PROC_CACHE[crawl_id] = fx
        fx.wave = wave
        fx.cookie_hdrs = cookie_hdrs or {}
        return fx(batch)

    return fetch_batch
