"""Distributed engine vs oracle parity — crawl order, URL-seen set, page
metadata, politeness clocks, and per-row span-sequence equality (the
BASELINE.json input_hint invariant)."""

import pytest

from cloud_crawler_ray.oracle import crawl_oracle
from cloud_crawler_ray.pipelines.crawl import crawl
from cloud_crawler_ray.spec import CrawlSpec

from tests import webs


def run_both(web, seeds, spec, tmp_path, **kw):
    res = crawl_oracle(web, seeds, spec)
    handle = crawl(web, seeds, spec, str(tmp_path / "out"), **kw)
    return res, handle


def assert_parity(res, handle):
    # crawl order: (wave, seq, url) triplets in seq order
    got = [
        (r["wave"], r["seq"], r["url"]) for r in handle.crawl_order().take_all()
    ]
    assert got == res.crawl_order

    # seen set
    from tests.webs import seen_set
    assert seen_set(handle) == res.seen

    # pages metadata incl. the virtual politeness clock
    keyfn = lambda p: (p["seq"], p["url"])
    _PAGE_KEYS = ("url", "code", "depth", "referer", "redirect_to", "fetched",
                  "fetch_time_ms", "seq", "wave", "etag", "not_modified",
                  "canonical_decl", "noindex")
    got_pages = sorted(
        ({k: r[k] for k in _PAGE_KEYS} for r in handle.pages().take_all()),
        key=keyfn,
    )
    exp_pages = sorted(
        ({k: p[k] for k in _PAGE_KEYS} for p in res.pages),
        key=keyfn,
    )
    assert got_pages == exp_pages

    # documents: span-sequence equality (kind, text, media_ref, order)
    def span_key(spans):
        return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]

    got_docs = {}
    for r in handle.documents().take_all():
        got_docs.setdefault(r["doc_id"], []).append(span_key(r["spans"] or []))
    exp_docs = {}
    for d in res.documents:
        exp_docs.setdefault(d["doc_id"], []).append(span_key(d["spans"]))
    for v in got_docs.values():
        v.sort()
    for v in exp_docs.values():
        v.sort()
    assert got_docs == exp_docs


SCENARIOS = [
    ("dag_default", webs.small_dag, CrawlSpec()),
    ("chain_depth", webs.linear_chain, CrawlSpec(depth_limit=2)),
    ("offdomain", webs.offdomain_web, CrawlSpec()),
    ("offdomain_open", webs.offdomain_web, CrawlSpec(outside_domain=True)),
    ("redirects", webs.redirect_web, CrawlSpec()),
    ("redirects_keep", webs.redirect_web, CrawlSpec(keep_redirects=True)),
    ("query_skip", webs.query_web, CrawlSpec(skip_query_strings=True)),
    ("robots", webs.robots_web, CrawlSpec(obey_robots_txt=True)),
    ("skip_patterns", webs.skip_pattern_web, CrawlSpec(skip_link_patterns=[r"/admin"])),
    ("politeness", webs.multi_host_web, CrawlSpec(delay=0.5)),
    ("discard", webs.small_dag, CrawlSpec(discard_page=True)),
    ("dead_links", webs.dead_link_web, CrawlSpec()),
    ("transient_retries", webs.transient_web, CrawlSpec(delay=0.1)),
]


@pytest.mark.parametrize("name,web_fn,spec", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_engine_matches_oracle(ray_session, tmp_path, name, web_fn, spec):
    web, seeds = web_fn()
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)


def test_dead_link_yields_page_but_no_document(ray_session, tmp_path):
    """Failed fetches appear in pages() (error row) but never in documents()."""
    web, seeds = webs.dead_link_web()
    res, handle = run_both(web, seeds, CrawlSpec(), tmp_path)
    assert_parity(res, handle)
    page_urls = {p["url"] for p in handle.pages().take_all()}
    assert any(u.endswith("/missing") for u in page_urls)
    doc_ids = {d["doc_id"] for d in handle.documents().take_all()}
    assert not any(d.endswith("/missing") for d in doc_ids)


def test_transient_retry_semantics(ray_session, tmp_path):
    """Mid-retry success yields a fetched page whose response_time is the
    successful attempt's; retry exhaustion yields an error page whose
    politeness-clock cost covers all 4 attempts (http.rb:211-216)."""
    web, seeds = webs.transient_web()
    spec = CrawlSpec(delay=0.1)
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)

    pages = {p["url"].rsplit("/", 1)[1]: p for p in handle.pages().take_all()}
    assert pages["flaky"]["fetched"] and pages["flaky"]["response_time_ms"] == 10
    assert not pages["dead4"]["fetched"]
    assert pages["dead4"]["error"] == "retries exhausted"
    doc_ids = {d["doc_id"] for d in handle.documents().take_all()}
    assert any(d.endswith("/flaky") for d in doc_ids)
    assert not any(d.endswith("/dead4") for d in doc_ids)

    # clock accounting: all on one host, serial order p0, flaky, dead4, ok.
    # flaky costs 3x10ms, dead4 costs 4x10ms on the virtual clock.
    t = {n: pages[n]["fetch_time_ms"] for n in ("p0", "flaky", "dead4", "ok")}
    delay = 100
    assert t["flaky"] == t["p0"] + 10 + delay
    assert t["dead4"] == t["flaky"] + 30 + delay
    assert t["ok"] == t["dead4"] + 40 + delay


def test_distributed_task_fetch(ray_session, tmp_path):
    """driver_fetch_threshold=0 forces every wave through the distributed
    task-mode fetch even for tiny waves (the default runs sub-batch waves
    in-process); results must be identical."""
    web, seeds = webs.small_dag()
    spec = CrawlSpec(delay=0.1)
    res = crawl_oracle(web, seeds, spec)
    handle = crawl(web, seeds, spec, str(tmp_path / "out"), driver_fetch_threshold=0)
    assert_parity(res, handle)


def test_curl_mode(ray_session, tmp_path):
    web, seeds = webs.small_dag()
    spec = CrawlSpec(follow_links=False)
    res, handle = run_both(web, [seeds[0], seeds[0]], spec, tmp_path)
    assert_parity(res, handle)
    assert handle.n_jobs == 2  # duplicates fetched, no dedup


def _ks_priority(job: dict) -> int:
    return 2 if "/gate" in job["url"] else (1 if "/flaky" in job["url"] else 0)


@pytest.mark.parametrize("planner", ["local", "distributed"])
def test_kitchen_sink_feature_interactions(ray_session, tmp_path, planner):
    """Retries + cookie gate + redirects + robots + dead link + job_limit +
    priority + lifecycle hooks + politeness, all in one crawl, on both
    planner paths — exact oracle parity including clocks and counters."""
    web, seeds = webs.kitchen_sink_web()
    spec = CrawlSpec(
        delay=0.1,
        obey_robots_txt=True,
        accept_cookies=True,
        keep_redirects=True,
        job_limit=3,
        priority_fn=_ks_priority,
        on_every_page=lambda p: {"pages": 1, f"code_{p['code']}": 1},
        before_batch=lambda ctx: {"batches": 1},
        after_crawl=lambda ctx: {"done": 1},
    )
    res = crawl_oracle(web, seeds, spec)
    handle = crawl(
        web, seeds, spec, str(tmp_path / "out"),
        small_wave_threshold=100_000 if planner == "local" else 0,
    )
    assert_parity(res, handle)
    assert handle.counters() == res.counters

    urls = {p["url"].rsplit("/", 1)[1] for p in handle.pages().take_all()}
    assert "y" not in urls  # robots kept private/y out
    assert {"flaky", "gate", "g1", "t1", "t2", "missing"} <= urls
    docs = {d["doc_id"].rsplit("/", 1)[1] for d in handle.documents().take_all()}
    assert "missing" not in docs  # dead link: page row, no document
    # cookie committed in wave 0 → gate (wave 1+) serves the real body
    texts = [
        s["text"]
        for d in handle.documents().take_all()
        if d["doc_id"].endswith("/gate")
        for s in d["spans"] or []
        if s["kind"] == "text"
    ]
    assert "inner circle" in texts


def test_export_documents(ray_session, tmp_path):
    """The storage-interface sink round-trips the documents table."""
    from cloud_crawler_ray.storage import read_table

    web, seeds = webs.small_dag()
    handle = crawl(web, seeds, CrawlSpec(), str(tmp_path / "out"))
    out = str(tmp_path / "docs_table")
    handle.export_documents(out)
    back = read_table(out).take_all()
    orig = handle.documents().take_all()
    key = lambda r: r["doc_id"]
    assert sorted((r["doc_id"] for r in back)) == sorted((r["doc_id"] for r in orig))
    b0 = {r["doc_id"]: r["spans"] for r in back}
    o0 = {r["doc_id"]: r["spans"] for r in orig}
    assert b0 == o0


def test_empty_seed_crawl(ray_session, tmp_path):
    """A crawl with no seeds (or one whose wave 0 plans zero jobs) completes
    and every reader returns an empty, correctly-typed result."""
    web, _ = webs.small_dag()
    spec = CrawlSpec(before_crawl=lambda ctx: {"started": 1})
    handle = crawl(web, [], spec, str(tmp_path / "out"))
    assert handle.n_jobs == 0
    assert handle.pages().count() == 0
    assert handle.documents().count() == 0
    assert handle.doc_store().count() == 0
    assert handle.crawl_order().count() == 0
    assert handle.seen_urls().count() == 0
    assert handle.counters() == {"started": 1}
    res = crawl_oracle(web, [], spec)
    assert res.pages == [] and res.counters == {"started": 1}


def test_procedural_web_matches_materialized(ray_session, tmp_path):
    """The bench's ProceduralWeb (pages computed on demand in fetch workers)
    must crawl identically to the materialized table of the same params —
    this pins the correctness of the measured benchmark pipeline."""
    from cloud_crawler_ray.synthweb import ProceduralWeb, SkewedWebParams, make_skewed_web

    params = SkewedWebParams(n_pages=120, n_hosts=4, seed=9)
    web_tbl, seeds = make_skewed_web(120, n_hosts=4, seed=9)
    pweb = ProceduralWeb(params)
    assert pweb.seeds() == seeds
    spec = CrawlSpec(delay=0.05)
    res = crawl_oracle(web_tbl, seeds, spec)
    handle = crawl(pweb, seeds, spec, str(tmp_path / "out"))
    assert_parity(res, handle)


def test_recur_crawl(ray_session, tmp_path):
    """queue.recur analog: N recurring rounds, each a fresh full crawl in
    its own partition, every round identical to the oracle."""
    from cloud_crawler_ray.pipelines.crawl import recur_crawl

    web, seeds = webs.small_dag()
    spec = CrawlSpec()
    handles = recur_crawl(web, seeds, spec, str(tmp_path / "out"), times=2)
    res = crawl_oracle(web, seeds, spec)
    assert len(handles) == 2
    for h in handles:
        assert_parity(res, h)


def test_api_doc_store(ray_session, tmp_path):
    """BatchApiJob analog: JSON endpoints → (doc_id, doc) store with
    normalized compact JSON; invalid JSON yields a page but no doc."""
    import json

    from cloud_crawler_ray.synthweb import FakePage, make_api_web, web_table

    web, seeds = make_api_web(12)
    spec = CrawlSpec(follow_links=False)
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)
    store = {r["doc_id"]: r["doc"] for r in handle.doc_store().take_all()}
    assert len(store) == 12
    doc0 = json.loads(store[seeds[0].lower()])
    assert doc0["id"] == 0 and doc0["name"] == "item 0"
    # normalized: sorted keys, compact separators
    assert store[seeds[0].lower()] == json.dumps(doc0, sort_keys=True, separators=(",", ":"))

    bad = web_table(
        [FakePage(name="api/bad", content_type="application/json", body=b"{nope")]
    )
    res2, handle2 = run_both(bad, ["http://www.example.com/api/bad"], spec, tmp_path / "2")
    assert_parity(res2, handle2)
    assert handle2.pages().count() == 1
    assert handle2.doc_store().count() == 0


def test_counters_via_hooks(ray_session, tmp_path):
    web, seeds = webs.small_dag()
    spec = CrawlSpec(on_every_page=lambda p: {"pages": 1, f"code_{p['code']}": 1})
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert handle.counters() == res.counters


def _title_tokens_hook(p):
    """sugary_word_count analog: count title-ish tokens per page (the
    local_cache.incr loop of examples/sugary_word_count.rb:49-58)."""
    toks = {}
    for s in p.get("spans") or []:
        if s["kind"] == "text":
            for t in s["text"].lower().split():
                toks[f"tok_{t}"] = toks.get(f"tok_{t}", 0) + 1
            break  # first text span ~ the title
    return toks


def test_lifecycle_hooks_parity(ray_session, tmp_path):
    """before/after_crawl + before/after_batch fire at reference-identical
    points with identical ctx on engine and oracle; counter effects surface
    through CrawlHandle.counters() (dsl_front_end.rb:154-172 +
    examples/sugary_word_count.rb after_batch sync)."""
    web, seeds = webs.small_dag()
    spec = CrawlSpec(
        on_every_page=_title_tokens_hook,
        before_crawl=lambda ctx: {"crawl_started": 1},
        after_crawl=lambda ctx: {"crawl_finished": 1, "final_jobs": ctx["total_jobs"]},
        before_batch=lambda ctx: {"batches_started": 1, f"wave_{ctx['wave']}_jobs": ctx["n_jobs"]},
        after_batch=lambda ctx: {"batches_finished": 1},
    )
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)
    got, exp = handle.counters(), res.counters
    assert got == exp
    assert got["crawl_started"] == 1 and got["crawl_finished"] == 1
    assert got["batches_started"] == got["batches_finished"] == handle.waves


def test_lifecycle_hooks_survive_resume(ray_session, tmp_path):
    """Counters from batch hooks are persisted in the lineage markers:
    kill-and-resume must not re-fire hooks for committed waves."""
    web, seeds = webs.linear_chain(4)
    spec = CrawlSpec(
        before_crawl=lambda ctx: {"crawl_started": 1},
        after_batch=lambda ctx: {"batches_finished": 1},
        after_crawl=lambda ctx: {"crawl_finished": 1},
    )
    out = str(tmp_path / "out")
    crawl(web, seeds, spec, out, max_waves=2)
    handle = crawl(web, seeds, spec, out, resume=True)
    res = crawl_oracle(web, seeds, spec)
    assert handle.counters() == res.counters
    assert handle.counters()["crawl_started"] == 1
    assert handle.counters()["batches_finished"] == handle.waves


def test_focus_crawl_distributed(ray_session, tmp_path):
    web, seeds = webs.small_dag()
    spec = CrawlSpec(
        focus_crawl=lambda page, links: [l for l in links if l.endswith(("p2", "p3"))]
    )
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)


def test_basic_auth_pages(ray_session, tmp_path):
    """401 without credentials; URL-userinfo credentials unlock the page."""
    web, seeds = webs.auth_web()
    res, handle = run_both(web, seeds, CrawlSpec(), tmp_path)
    assert_parity(res, handle)
    secret = [p for p in res.pages if p["url"].endswith("/secret")]
    assert secret and secret[0]["code"] == 401

    creds_seed = ["http://u:p@www.example.com/secret"]
    res2, handle2 = run_both(web, creds_seed, CrawlSpec(), tmp_path / "2")
    secret2 = [p for p in res2.pages if "secret" in p["url"]]
    assert secret2 and secret2[0]["code"] == 200
    assert_parity(res2, handle2)


def test_random_user_agent_deterministic(ray_session, tmp_path):
    web, seeds = webs.small_dag()
    spec = CrawlSpec(user_agent="random")
    res, handle = run_both(web, seeds, spec, tmp_path)
    got = {p["seq"]: p["user_agent"] for p in handle.pages().take_all()}
    exp = {p["seq"]: p["user_agent"] for p in res.pages}
    assert got == exp
    assert all(ua.startswith("Mozilla/5.0") for ua in got.values())
    assert len(set(got.values())) > 1  # actually varies per request


def test_cookie_jar_populated(ray_session, tmp_path):
    """Cookie plumbing: each wave's Set-Cookie responses are merged per host
    into the wave-committed jar that the lineage marker carries (and the
    next wave's requests send)."""
    from tests.test_wave_fetch import _lineage

    web, seeds = webs.cookie_web()
    out = str(tmp_path / "out")
    crawl(web, seeds, CrawlSpec(accept_cookies=True), out)
    header = _lineage(out)[-1]["cookies"]["www.example.com"]
    assert "session=abc123" in header and "pref=dark" in header


def test_politeness_invariant_on_skewed_web(ray_session, tmp_path):
    """The north_rule skew scenario: one hot host with ~50% of pages. The
    per-host politeness budget must hold exactly — consecutive fetches of
    any host spaced >= delay on the virtual clock — while other hosts
    proceed on independent clocks."""
    from cloud_crawler_ray.synthweb import make_skewed_web

    web, seeds = make_skewed_web(400, n_hosts=5, seed=11)
    delay = 0.05
    handle = crawl(web, seeds, CrawlSpec(delay=delay), str(tmp_path / "out"))

    import collections

    by_host = collections.defaultdict(list)
    frontier = handle.crawl_order().take_all()
    pages = {p["seq"]: p for p in handle.pages().take_all()}
    from cloud_crawler_ray.canon import host_of

    for r in frontier:
        p = pages[r["seq"]]
        by_host[host_of(r["url"])].append((r["seq"], p["fetch_time_ms"]))
    assert len(by_host) == 5
    hot = max(by_host.values(), key=len)
    assert len(hot) > len(frontier) * 0.4  # the skew is real
    for host, rows in by_host.items():
        rows.sort()
        times = [t for _, t in rows]
        assert all(b - a >= delay * 1000 for a, b in zip(times, times[1:])), host
