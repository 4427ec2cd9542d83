"""Single-threaded reference-semantics oracle.

A pure-Python BFS crawler implementing the reference's crawl semantics
(SURVEY.md §2) directly: wave-synchronous BFS-with-priority ordering (qless
Ordered reserver analog, driver.rb:95), in-wave first-(parent_seq, ordinal)
dedup (queue-serialization analog, crawl_job.rb:96), committed-seen-set
admission with mark-at-wave-commit (batch_crawl_job.rb:139-153), the
visit_link? filter chain in order (dsl_core.rb:216-230), same-host-only
redirect chains with limit (http.rb:155-169, 245-247), and a deterministic
per-host virtual politeness clock (sleep(delay) before each job,
batch_job.rb:178-183, serialized per host through the connection pool
http.rb:219-240).

Every distributed result is compared against this oracle — it is the
stand-in for the Ruby crawler's own fixtures (which cannot run here).
Seen-set semantics note: the reference's two job paths mark slightly
different URL sets (CrawlJob marks the job URL, crawl_job.rb:104;
BatchCrawlJob marks stored page URLs, batch_crawl_job.rb:139-153). This
engine marks the union (job URL + kept page URLs), which subsumes both and
prevents redirect-source refetch loops.
"""

from __future__ import annotations

import re
import urllib.parse
import urllib.robotparser
from dataclasses import dataclass, field

import pyarrow as pa

from .canon import canonical_url, has_query, host_of, normalize_seed, path_of
from .extract import extract_page, is_parseable
from .spec import CrawlSpec


# 1 initial attempt + 3 retries on Timeout/BadResponse/EOF (http.rb:211-216)
MAX_HTTP_RETRIES = 3


@dataclass
class FetchedPage:
    url: str
    code: int
    body: bytes
    content_type: str
    redirect_to: str
    latency_ms: int          # response_time of the successful attempt
    depth: int
    referer: str
    error: str = ""
    set_cookie: str = ""
    clock_ms: int = -1       # politeness-clock cost incl. failed attempts
    etag: str = ""           # server content validator (200/304 responses)
    not_modified: bool = False  # conditional GET answered 304

    def __post_init__(self):
        if self.clock_ms < 0:
            self.clock_ms = self.latency_ms

    @property
    def fetched(self) -> bool:
        return self.error == ""


def etag_of(body: bytes, content_type: str) -> str:
    """Deterministic server-side content validator: a weak ETag derived from
    the served body + content type. The synthetic server's stand-in for a
    real origin's ETag/Last-Modified — two responses carry the same etag iff
    the served bytes are identical, which is exactly the contract a
    conditional GET (If-None-Match → 304) relies on."""
    import zlib

    b = body or b""
    return f'W/"{zlib.crc32(b):08x}{zlib.crc32(content_type.encode("utf-8") + b[::-1]):08x}"'


def _h64(s: str) -> int:
    # crc32 of the string and of its reverse → cheap 64-bit key; collisions
    # are verified against the table on probe, so weakness only costs a probe
    import zlib

    b = s.encode("utf-8")
    return (zlib.crc32(b) << 32) | zlib.crc32(b[::-1])


class SyntheticNet:
    """URL → web-table row lookup — the 'network'. Exact URL first, then
    canonical key (the synthetic generator emits consistent URLs; the
    canonical fallback covers case-variant links).

    The index is a pair of SORTED uint64 hash arrays + row-number arrays
    (binary search per lookup, hash collisions verified against the table).
    Numpy arrays deserialize as flat buffers — broadcasting (table, index)
    via ray.put costs each worker a memcpy, not an O(web) Python dict
    rebuild (which at 10^5+ URLs × many workers dominated fetch wall time)."""

    def __init__(self, web: pa.Table, index: tuple | None = None):
        self.web = web.combine_chunks()
        if index is None:
            index = self.build_indexes(self.web)
        self._eh, self._er, self._ch, self._cr = index
        self._cols = {name: self.web.column(name) for name in self.web.column_names}
        self._urls = self._cols["url"]

    @staticmethod
    def build_indexes(web: pa.Table):
        """Sorted-hash indexes for exact and canonical URL keys. Built once
        on the driver, shipped with the table."""
        import numpy as np

        urls = web.column("url").to_pylist()
        eh = np.fromiter((_h64(u) for u in urls), dtype=np.uint64, count=len(urls))
        ch = np.fromiter(
            (_h64(canonical_url(u)) for u in urls), dtype=np.uint64, count=len(urls)
        )
        eo = np.argsort(eh, kind="stable").astype(np.int64)
        co = np.argsort(ch, kind="stable").astype(np.int64)
        return eh[eo], eo, ch[co], co

    def _probe(self, key: str, hashes, rows, canon: bool) -> int | None:
        import numpy as np

        h = np.uint64(_h64(key))
        pos = int(np.searchsorted(hashes, h))
        while pos < len(hashes) and hashes[pos] == h:
            row = int(rows[pos])
            u = self._urls[row].as_py()
            if (canonical_url(u) if canon else u) == key:
                return row
            pos += 1
        return None

    def lookup(self, url: str) -> dict | None:
        from .canon import strip_userinfo

        url = strip_userinfo(url)  # credentials never reach the server's URL
        i = self._probe(url, self._eh, self._er, canon=False)
        if i is None:
            i = self._probe(canonical_url(url), self._ch, self._cr, canon=True)
        if i is None:
            return None
        return {name: col[i].as_py() for name, col in self._cols.items()}

    def robots_for(self, host: str) -> urllib.robotparser.RobotFileParser:
        rp = urllib.robotparser.RobotFileParser()
        row = self.lookup(f"http://{host}/robots.txt")
        if row is not None and row["status"] == 200:
            rp.parse(row["body"].decode("utf-8", "ignore").splitlines())
        else:
            rp.parse([])  # no robots → allow all
        return rp


def fetch_chain(
    net: SyntheticNet, url: str, depth: int, referer: str, redirect_limit: int,
    cookie_header: str = "",
    prior_etag: str = "",
) -> list[FetchedPage]:
    """Fetch a URL following same-host redirects up to the limit
    (http.rb:68-91, 155-169; same-host-only follow http.rb:245-247).
    Unregistered URL → error page (FakeWeb NetConnectNotAllowedError →
    rescue → error Page, http.rb:84-90).

    *prior_etag* (incremental-recrawl conditional GET; target-side addition
    — the reference always refetches): sent as If-None-Match on the FIRST
    hop only (it is the validator of the job URL's previous 200 body; later
    hops are different URLs). A 200 row whose current served body hashes to
    the same etag answers 304 Not Modified — empty body, same latency on the
    politeness clock (the validation round trip still happens), the etag
    echoed back. Redirect/error/auth hops never 304."""
    pages: list[FetchedPage] = []
    cur = url
    for _hop in range(redirect_limit + 1):
        row = net.lookup(cur)
        if row is None:
            pages.append(
                FetchedPage(cur, 0, b"", "", "", 0, depth, referer, error="connection refused")
            )
            return pages
        # transient-failure model: the row's first fail_times attempts raise
        # (Timeout/BadResponse/EOF analog); the fetcher retries up to
        # MAX_HTTP_RETRIES (http.rb:211-216). Each failed attempt still costs
        # latency on the politeness clock; response_time is the successful
        # attempt's alone.
        fails = int(row.get("fail_times") or 0)
        max_attempts = MAX_HTTP_RETRIES + 1
        if fails >= max_attempts:
            pages.append(
                FetchedPage(
                    cur, 0, b"", "", "", 0, depth, referer,
                    error="retries exhausted",
                    clock_ms=max_attempts * int(row["latency_ms"]),
                )
            )
            return pages
        attempts_clock = (fails + 1) * int(row["latency_ms"])
        required = row.get("auth") or ""
        if required:
            # HTTP basic auth from the URL's userinfo (http.rb:191; FakePage
            # :auth 401/200 pair, fakeweb_helper.rb): wrong/absent creds → 401
            try:
                parts = urllib.parse.urlsplit(cur)
                creds = f"{parts.username or ''}:{parts.password or ''}"
            except ValueError:
                creds = ":"
            if creds != required:
                pages.append(
                    FetchedPage(
                        cur, 401, b"", "text/html", "", int(row["latency_ms"]),
                        depth, referer, clock_ms=attempts_clock,
                    )
                )
                return pages
        body = row["body"]
        gate = row.get("require_cookie") or ""
        if gate:
            from .stages.cookies import LOGIN_STUB_BODY, header_has_pair

            if not header_has_pair(cookie_header, gate):
                body = LOGIN_STUB_BODY  # cookie-gated content
        # etag of the SERVED body (post cookie-gate) — what a real origin
        # would validate against; only 200s carry one
        etag = etag_of(body, row["content_type"]) if int(row["status"]) == 200 else ""
        if _hop == 0 and prior_etag and etag and etag == prior_etag:
            pages.append(
                FetchedPage(
                    cur, 304, b"", row["content_type"], "",
                    int(row["latency_ms"]), depth, referer,
                    set_cookie=row.get("set_cookie") or "",
                    clock_ms=attempts_clock, etag=etag, not_modified=True,
                )
            )
            return pages
        page = FetchedPage(
            cur,
            int(row["status"]),
            body,
            row["content_type"],
            row["redirect_to"] or "",
            int(row["latency_ms"]),
            depth,
            referer,
            set_cookie=row.get("set_cookie") or "",
            clock_ms=attempts_clock,
            etag=etag,
        )
        pages.append(page)
        target = page.redirect_to
        if 300 <= page.code < 400 and target:
            if host_of(target) != host_of(cur):
                return pages  # off-host redirect not followed
            cur = target
            continue
        return pages
    return pages


@dataclass
class OracleResult:
    pages: list[dict] = field(default_factory=list)           # PAGES_SCHEMA rows
    documents: list[dict] = field(default_factory=list)       # DOCUMENTS_SCHEMA rows
    crawl_order: list[tuple[int, int, str]] = field(default_factory=list)  # wave, seq, url
    seen: set[str] = field(default_factory=set)               # canonical URLs
    counters: dict[str, int] = field(default_factory=dict)    # hook increments
    fetch_log: list[tuple[str, int, str]] = field(default_factory=list)    # host, t_ms, url
    children: dict[str, list[str]] = field(default_factory=dict)  # canonical → admitted links


def prior_from_result(res: OracleResult) -> dict[str, dict]:
    """Build the prior-crawl index a recrawl consumes from an OracleResult:
    canonical_url → {etag, spans, links} for every validated page (200, or
    304 in a recrawl chain — its etag is still the content validator). The
    oracle-side twin of the engine's PriorIndex load from raw parquet."""
    docs: dict[str, list] = {}
    for d in res.documents:
        docs.setdefault(d["doc_id"], d["spans"])
    out: dict[str, dict] = {}
    for p in res.pages:
        if p["fetched"] and p.get("etag") and p["code"] in (200, 304):
            c = p["canonical_url"]
            out[c] = {
                "etag": p["etag"],
                # None = the prior crawl stored no document (e.g. noindex)
                "spans": docs.get(c),
                "links": res.children.get(c, []),
            }
    return out


# URLs whose robots "filename" (RobotFileParser.can_fetch's unquote →
# urlparse → urlunparse(path, params, query, fragment) → quote) is the path
# after the authority, which quote() leaves as it is, plus the quoted query:
# no '%' (unquote is identity), no ';' (no params), no '#', no empty '?', no
# whitespace or control characters (urlsplit strips those), and no "//" in
# the path (urlunparse treats a leading "//" differently across Python
# versions; checked apart)
_ROBOTS_FAST_RE = re.compile(
    r"^[hH][tT][tT][pP][sS]?://[A-Za-z0-9.\-]+(?::[0-9]+)?"
    r"((?:/[A-Za-z0-9._~/\-]*)?)(\?[A-Za-z0-9._~!$&'()*+,=:@/\-]+)?$"
)


def robots_rules(
    rp: urllib.robotparser.RobotFileParser, user_agent: str
) -> tuple[bool | None, list[tuple[str, bool]]]:
    """The part of ``rp.can_fetch(user_agent, url)`` that does not depend on
    the URL: ``(verdict, [])`` when can_fetch answers before it parses the
    URL, otherwise ``(None, rules)`` with the (already quoted) path prefix
    and allowance of each rule line of the entry that applies to
    *user_agent*, in order (none when no entry applies). The first rule
    whose prefix starts the URL's robots filename decides; no match
    allows."""
    if rp.disallow_all:
        return False, []
    if rp.allow_all:
        return True, []
    if not rp.last_checked:
        return False, []
    entry = next((e for e in rp.entries if e.applies_to(user_agent)), rp.default_entry)
    return None, [] if entry is None else [(ln.path, ln.allowance) for ln in entry.rulelines]


class LinkAdmission:
    """The visit_link? chain, in reference order (dsl_core.rb:216-230):
    skip_link? → skip_query_string? → allowed(robots) → in_domain? →
    too_deep?. Robots errors → disallow (rescue false, dsl_core.rb:241).

    Robots verdicts are ``can_fetch``'s, computed from each host's rules
    once (``robots_rules``); for URLs matching ``_ROBOTS_FAST_RE`` the
    URL's robots filename is quoted directly instead of through can_fetch's
    parse round-trip, which gives the same string."""

    def __init__(self, spec: CrawlSpec, net: SyntheticNet):
        self.spec = spec
        self.net = net
        self.skip_res = [re.compile(p) for p in spec.skip_link_patterns]
        # host → (parser, constant verdict or None, rule lines)
        self._robots: dict[str, tuple] = {}
        self._from = ("", "")  # (from_url, its host): a page admits all its links in a row

    def allowed_by_robots(self, link: str, host: str | None = None) -> bool:
        if not self.spec.obey_robots_txt:
            return True
        try:
            if host is None:
                host = host_of(link)
            robots = self._robots.get(host)
            if robots is None:
                rp = self.net.robots_for(host)
                robots = self._robots[host] = (rp, *robots_rules(rp, self.spec.user_agent))
            rp, verdict, rules = robots
            if verdict is not None:
                return verdict
            m = _ROBOTS_FAST_RE.match(link)
            if m is None or "//" in m.group(1):
                return rp.can_fetch(self.spec.user_agent, link)
            path, query = m.groups()
            filename = (path + urllib.parse.quote(query)) if query else (path or "/")
            for prefix, allowance in rules:
                if prefix == "*" or filename.startswith(prefix):
                    return allowance
            return True
        except Exception:
            return False

    def admit(self, link: str, from_url: str, from_depth: int) -> bool:
        spec = self.spec
        if self.skip_res and any(r.search(path_of(link)) for r in self.skip_res):
            return False
        if spec.skip_link_fn and spec.skip_link_fn(link):
            return False
        if spec.skip_query_strings and has_query(link):
            return False
        host = host_of(link)
        if not self.allowed_by_robots(link, host):
            return False
        if self._from[0] != from_url:
            self._from = (from_url, host_of(from_url))
        same = host == self._from[1]
        if not (spec.inside_domain if same else spec.outside_domain):
            return False
        if spec.depth_limit is not None and from_depth >= spec.depth_limit:
            return False
        return True


def _page_dict(p: FetchedPage, ex, seq: int, wave: int, t_ms: int, ua: str) -> dict:
    return {
        "user_agent": ua,
        "url": p.url,
        "canonical_url": canonical_url(p.url),
        "code": p.code,
        "depth": p.depth,
        "referer": p.referer,
        "redirect_to": p.redirect_to,
        "response_time_ms": p.latency_ms,
        "fetched": p.fetched,
        "error": p.error,
        "fetch_time_ms": t_ms,
        "seq": seq,
        "wave": wave,
        "etag": p.etag,
        "not_modified": p.not_modified,
        "canonical_decl": "" if ex is None else ex.canonical,
        "noindex": False if ex is None else ex.noindex,  # gated by caller
        "spans": [] if ex is None else [
            {"kind": k, "text": t, "media_ref": m, "offset": o} for k, t, m, o in ex.spans
        ],
        "links": [] if ex is None else list(ex.links),
    }


_SITEMAP_LOC_RE = re.compile(r"<loc>\s*(.*?)\s*</loc>", re.IGNORECASE | re.DOTALL)


_SITEMAP_DIRECTIVE_RE = re.compile(r"^\s*sitemap\s*:\s*(\S+)", re.IGNORECASE | re.MULTILINE)
MAX_SITEMAP_FETCHES = 100  # per host, incl. nested index files


def expand_seeds_with_sitemaps(net, seeds: list[str]) -> list[str]:
    """Sitemap seeding (target-side addition; no reference analog): for each
    unique seed host in seed order, discover its sitemaps — the robots.txt
    ``Sitemap:`` directives when present (the sitemaps.org discovery
    protocol), else the http://host/sitemap.xml convention — fetch them in
    declaration order, recurse one queue through ``<sitemapindex>`` files
    (breadth-first, capped at MAX_SITEMAP_FETCHES per host), and append the
    page ``<loc>`` URLs after the user seeds in document order. Duplicates
    are left to the planner's wave-0 dedup (first-(parent_seq, ordinal)
    wins, so user seeds always claim their URL). Shared verbatim by the
    engine and the oracle — driver-side, bounded by seed hosts × the cap ×
    sitemap entries."""
    from collections import deque

    from .canon import host_of

    out = list(seeds)
    for host in dict.fromkeys(host_of(u) for u in seeds):
        declared: list[str] = []
        robots = net.lookup(f"http://{host}/robots.txt")
        if robots is not None and robots["status"] == 200:
            rbody = (robots["body"] or b"").decode("utf-8", "ignore")
            declared = [m.strip() for m in _SITEMAP_DIRECTIVE_RE.findall(rbody)]
        queue = deque(declared or [f"http://{host}/sitemap.xml"])
        fetched = 0
        while queue and fetched < MAX_SITEMAP_FETCHES:
            sm_url = queue.popleft()
            fetched += 1
            row = net.lookup(sm_url)
            if row is None or row["status"] != 200:
                continue
            body = (row["body"] or b"").decode("utf-8", "ignore")
            locs = [m.strip() for m in _SITEMAP_LOC_RE.findall(body) if m.strip()]
            if "<sitemapindex" in body.lower():
                queue.extend(locs)  # nested sitemap files, not page URLs
            else:
                out.extend(locs)
    return out


def crawl_oracle(
    web, seeds: list[str], spec: CrawlSpec,
    prior: dict[str, dict] | None = None,
) -> OracleResult:
    """*prior* (incremental recrawl): canonical_url → {etag, spans, links}
    from a previous crawl (prior_from_result). Jobs whose URL has a prior
    etag fetch conditionally; a 304 reuses the prior document spans and
    replays the prior admitted links (re-admitted under the CURRENT spec at
    the current depth; focus_crawl is not re-applied — it ran when the
    content was last seen, and a 304 carries no content to focus on)."""
    net = SyntheticNet(web) if isinstance(web, pa.Table) else web
    adm = LinkAdmission(spec, net)
    if spec.use_sitemaps and isinstance(web, pa.Table):
        seeds = expand_seeds_with_sitemaps(net, seeds)
    res = OracleResult()
    from .functions.agents import agent_for
    from .stages.cookies import merge_committed_header, request_cookie_header

    # wave-committed cookie jar: requests in wave N carry cookies committed
    # by waves < N (mark-at-commit, same protocol as the seen set)
    committed_hdrs: dict[str, str] = {}
    delay_ms = int(spec.delay * 1000)
    clocks: dict[str, int] = {}
    sched: dict[str, int] = {}  # per-host scheduled counts (crawl budget)
    trap_sched: dict[str, int] = {}  # per-(host, skeleton) counts (trap guard)

    def _trap_key(url: str) -> str:
        from .canon import url_skeleton

        return f"{host_of(url)}\x1f{url_skeleton(url)}"
    host_delay_cache: dict[str, int] = {}  # robots Crawl-delay overrides
    lat_stats: dict[str, tuple[int, int]] = {}  # committed (sum_ms, n) per host

    def _delay_for(host: str) -> int:
        if not spec.obey_crawl_delay:
            base = delay_ms
        else:
            if host not in host_delay_cache:
                from .stages.politeness import effective_delay_ms

                host_delay_cache[host] = effective_delay_ms(
                    net.robots_for(host), spec.user_agent, delay_ms
                )
            base = host_delay_cache[host]
        if spec.adaptive_delay_pct is not None:
            # adaptive politeness from COMMITTED latency stats only (the
            # engine commits them with the wave) — integer-exact, shared
            # semantics with stages/politeness.adaptive_host_delays
            s, n = lat_stats.get(host, (0, 0))
            if n:
                a = (spec.adaptive_delay_pct * s) // (100 * n)
                if a > base:
                    base = a
        return base

    next_seq = 0

    from .pipelines.crawl import fire_hook

    fire_hook(
        spec.before_crawl,
        {"event": "before_crawl", "total_jobs": 0, "counters": dict(res.counters)},
        res.counters,
    )

    # wave 0: normalized seeds in list order
    frontier = [
        {"url": normalize_seed(u), "referer": "", "depth": 0, "parent_seq": -1, "ordinal": i}
        for i, u in enumerate(seeds)
    ]
    wave = 0
    while frontier:
        # order by (parent_seq, ordinal); in-wave dedup keep-first; committed-seen
        # filter; job_limit caps the wave, remainder carries to the next pool
        # (batch_job.rb:229-241 spill-to-checkpoint)
        frontier.sort(key=lambda j: (j["parent_seq"], j["ordinal"]))
        admitted: list[dict] = []
        in_wave: set[str] = set()
        for j in frontier:
            c = canonical_url(j["url"])
            if spec.follow_links:  # curl mode has no seen/dedup (batch_curl_job.rb)
                if c in res.seen or c in in_wave:
                    continue
                in_wave.add(c)
            admitted.append(j)
        # priority ordering (north-rule priority queue): dedup attribution
        # above stays (parent_seq, ordinal)-first; the PROCESSING order — and
        # hence which jobs the cap keeps — is priority-first
        if spec.priority_fn is not None:
            admitted.sort(
                key=lambda j: (-int(spec.priority_fn(j)), j["parent_seq"], j["ordinal"])
            )
        # per-host crawl budget (max_pages_per_host): keep each host's first
        # remaining-budget jobs in processing order; drops are not
        # seen-marked and not spilled. Counts increment only for jobs RUN
        # (post job_limit), so a spilled job re-competes next wave — the
        # engine's commit-time add_sched semantics exactly.
        if spec.max_pages_per_host is not None:
            kept: list[dict] = []
            taken: dict[str, int] = {}
            for j in admitted:
                h = host_of(j["url"])
                if sched.get(h, 0) + taken.get(h, 0) < spec.max_pages_per_host:
                    taken[h] = taken.get(h, 0) + 1
                    kept.append(j)
            admitted = kept
        # crawl-trap guard: same gate keyed by (host, URL skeleton), applied
        # after the host budget in the same processing order
        if spec.trap_guard is not None:
            tkept: list[dict] = []
            ttaken: dict[str, int] = {}
            for j in admitted:
                k = _trap_key(j["url"])
                if trap_sched.get(k, 0) + ttaken.get(k, 0) < spec.trap_guard:
                    ttaken[k] = ttaken.get(k, 0) + 1
                    tkept.append(j)
            admitted = tkept
        if spec.job_limit is not None:
            jobs, rest = admitted[: spec.job_limit], admitted[spec.job_limit :]
        else:
            jobs, rest = admitted, []
        if not jobs:
            break  # engine breaks at n_jobs == 0 before firing batch hooks
        fire_hook(
            spec.before_batch,
            {"event": "before_batch", "wave": wave, "n_jobs": len(jobs),
             "total_jobs": next_seq, "counters": dict(res.counters)},
            res.counters,
        )
        next_frontier: list[dict] = []
        wave_marks: set[str] = set()
        wave_cookies: list[tuple[int, int, str, str]] = []  # seq, pos, host, hdr
        wave_lat: dict[str, tuple[int, int]] = {}  # per-host (sum_ms, n) delta
        # per-(host, lane) connection clocks, wave-local: every lane starts
        # the wave at the host's committed clock; the host clock commits to
        # the max lane end (slot_block's conns model — identical kernel)
        lane_clocks: dict[tuple[str, int], int] = {}
        host_count: dict[str, int] = {}
        wave_clock0: dict[str, int] = {}  # host clock frozen at wave start
        k_conns = max(1, int(spec.host_connections))
        for j in jobs:
            seq = next_seq
            next_seq += 1
            res.crawl_order.append((wave, seq, j["url"]))
            host = host_of(j["url"])
            lane = host_count.get(host, 0) % k_conns
            host_count[host] = host_count.get(host, 0) + 1
            if host not in wave_clock0:
                wave_clock0[host] = clocks.get(host, 0)
            lc = lane_clocks.get((host, lane), wave_clock0[host])
            t = lc + _delay_for(host)
            ua = agent_for(spec.user_agent, spec.ua_seed, seq)
            req_cookies = request_cookie_header(
                spec.cookies, committed_hdrs.get(host, ""), spec.accept_cookies
            )
            pe = ""
            if prior is not None:
                pr = prior.get(canonical_url(j["url"]))
                pe = pr["etag"] if pr else ""
            chain = fetch_chain(
                net, j["url"], j["depth"], j["referer"], spec.redirect_limit,
                cookie_header=req_cookies, prior_etag=pe,
            )
            total_latency = sum(p.clock_ms for p in chain)
            lane_clocks[(host, lane)] = t + total_latency
            clocks[host] = max(clocks.get(host, 0), t + total_latency)
            sched[host] = sched.get(host, 0) + 1
            ws, wn = wave_lat.get(host, (0, 0))
            wave_lat[host] = (ws + total_latency, wn + 1)
            if spec.trap_guard is not None:
                tk = _trap_key(j["url"])
                trap_sched[tk] = trap_sched.get(tk, 0) + 1
            res.fetch_log.append((host, t, j["url"]))
            wave_marks.add(canonical_url(j["url"]))

            kept = chain if spec.keep_redirects else chain[-1:]
            child_base = 0  # ordinals numbered per job across kept pages
            for pos, p in enumerate(kept):
                ex = (
                    extract_page(p.url, p.body, p.content_type)
                    if p.fetched and is_parseable(p.content_type)
                    else None
                )
                pd = _page_dict(p, ex, seq, wave, t, ua)
                pd["noindex"] = bool(spec.obey_meta_robots and pd["noindex"])
                if spec.accept_cookies and p.set_cookie and p.fetched:
                    wave_cookies.append((seq, pos, host_of(p.url), p.set_cookie))
                _run_hooks(spec, pd, res.counters)
                full_spans = pd["spans"]
                if spec.discard_page:
                    # discard affects STORED output only — focus_crawl below
                    # still sees the full spans (matches the engine stage)
                    pd["spans"] = []
                if p.fetched:
                    res.pages.append({k: v for k, v in pd.items() if k not in ("spans", "links")})
                    doc_spans = pd["spans"]
                    if p.not_modified:
                        # 304: the document is the prior crawl's, verbatim;
                        # None = the prior crawl stored no document for it
                        # (e.g. noindex), so neither does the recrawl
                        doc_spans = (prior.get(pd["canonical_url"]) or {}).get("spans")
                    if pd["noindex"]:
                        doc_spans = None  # fetched + seen-marked, never indexed
                    if doc_spans is not None:
                        res.documents.append(
                            {"doc_id": pd["canonical_url"], "spans": doc_spans}
                        )
                    wave_marks.add(pd["canonical_url"])
                else:
                    res.pages.append({k: v for k, v in pd.items() if k not in ("spans", "links")})
                # link expansion from each kept page (batch_crawl_job.rb:107-119);
                # a 304 replays the prior crawl's admitted links re-admitted
                # under the current spec at the current depth
                if spec.follow_links and (ex is not None or p.not_modified):
                    if p.not_modified:
                        links = (prior.get(pd["canonical_url"]) or {}).get("links", [])
                    else:
                        links = ex.links
                        if spec.obey_meta_robots:
                            if ex.nofollow_all:
                                links = []
                            elif ex.nofollow:
                                links = [l for l in links if l not in ex.nofollow]
                        if spec.focus_crawl is not None:
                            links = spec.focus_crawl(
                                {**pd, "spans": full_spans}, links
                            )
                    admitted = [
                        ln for ln in links if adm.admit(ln, p.url, p.depth)
                    ]
                    res.children[pd["canonical_url"]] = list(admitted)
                    for k, ln in enumerate(admitted):
                        next_frontier.append(
                            {
                                "url": ln,
                                "referer": p.url,
                                "depth": p.depth + 1,
                                "parent_seq": seq,
                                "ordinal": child_base + k,
                            }
                        )
                    child_base += len(admitted)
        if spec.follow_links:  # curl mode has no bloom marking (batch_curl_job.rb)
            res.seen |= wave_marks  # mark-at-wave-commit (batch_crawl_job.rb:139-153)
        # latency stats commit with the wave (adaptive politeness)
        for h, (s, n) in wave_lat.items():
            ps, pn = lat_stats.get(h, (0, 0))
            lat_stats[h] = (ps + s, pn + n)
        # commit the wave's cookies in deterministic (seq, chain-pos) order
        by_host: dict[str, list[str]] = {}
        for _seq, _pos, h, sc in sorted(wave_cookies):
            by_host.setdefault(h, []).append(sc)
        for h, scs in by_host.items():
            committed_hdrs[h] = merge_committed_header(committed_hdrs.get(h, ""), scs)
        fire_hook(
            spec.after_batch,
            {"event": "after_batch", "wave": wave, "n_jobs": len(jobs),
             "total_jobs": next_seq, "counters": dict(res.counters)},
            res.counters,
        )
        frontier = rest + next_frontier
        wave += 1
        if not spec.follow_links and not rest:
            break
    fire_hook(
        spec.after_crawl,
        {"event": "after_crawl", "waves": wave, "total_jobs": next_seq,
         "counters": dict(res.counters), "pages": res.pages},
        res.counters,
    )
    return res


def _run_hooks(spec: CrawlSpec, page_dict: dict, counters: dict[str, int]) -> None:
    """do_page_blocks (dsl_core.rb:180-186): on_every_page then on_pages_like
    whose pattern matches the URL. Hooks may return {key: increment} dicts
    (the m_cache.incr counter analog, examples/word_count.rb:60-75)."""
    hooks = []
    if spec.on_every_page:
        hooks.append(spec.on_every_page)
    for pattern, fn in spec.on_pages_like:
        if re.search(pattern, page_dict["url"]):
            hooks.append(fn)
    for fn in hooks:
        out = fn(page_dict)
        if isinstance(out, dict):
            for k, v in out.items():
                counters[k] = counters.get(k, 0) + int(v)
