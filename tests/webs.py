"""Scenario web graphs mirroring the reference spec matrix (SURVEY.md §5,
FIXTURES.md) — shared by oracle tests and engine-vs-oracle parity tests."""

from __future__ import annotations

from cloud_crawler_ray.synthweb import FakePage, page_url, web_table

HOST = "www.example.com"
OTHER = "www.other.com"


def linear_chain(n=5):
    """p0 → p1 → ... → p{n-1} (depth-limit tests, crawl_job_spec.rb:210-248)."""
    pages = [FakePage(name=f"p{i}", links=[f"p{i+1}"] if i + 1 < n else []) for i in range(n)]
    return web_table(pages), [page_url("p0")]


def small_dag():
    """Diamond + cross links (BFS order + dedup, crawl_job_spec.rb:64-95)."""
    pages = [
        FakePage(name="p0", links=["p1", "p2"], media=[("img", "/m0.png")]),
        FakePage(name="p1", links=["p3", "p2"]),
        FakePage(name="p2", links=["p3"], media=[("video", "/v2.mp4")]),
        FakePage(name="p3", links=["p0"]),  # back edge
    ]
    return web_table(pages), [page_url("p0")]


def offdomain_web():
    """In-domain + off-domain hrefs (crawl_job_spec.rb:97-113)."""
    pages = [
        FakePage(name="p0", links=["p1"], hrefs=[f"http://{OTHER}/x"]),
        FakePage(name="p1"),
        FakePage(name="x", host=OTHER, links=["y"]),
        FakePage(name="y", host=OTHER),
    ]
    return web_table(pages), [page_url("p0")]


def redirect_web():
    """Redirect chains incl. off-domain redirect (batch_crawl_job_spec.rb:98-138)."""
    pages = [
        FakePage(name="p0", links=["r1", "roff"]),
        FakePage(name="r1", redirect="t1"),
        FakePage(name="t1", links=["p2"]),
        FakePage(name="p2"),
        FakePage(name="roff", redirect=f"http://{OTHER}/t2"),
        FakePage(name="t2", host=OTHER),
    ]
    return web_table(pages), [page_url("p0")]


def redirect_repeat_web():
    """Redirects onto keys that are seen already: a and b both redirect to t
    (one key fetched twice in a wave), d redirects to the seed p0 and e to
    c (keys marked in earlier waves)."""
    pages = [
        FakePage(name="p0", links=["a", "b", "c"]),
        FakePage(name="a", redirect="t"),
        FakePage(name="b", redirect="t"),
        FakePage(name="t", links=["x"]),
        FakePage(name="x"),
        FakePage(name="c", links=["d", "e"]),
        FakePage(name="d", redirect="p0"),
        FakePage(name="e", redirect="c"),
    ]
    return web_table(pages), [page_url("p0")]


def query_web():
    """Query-string twins (crawl_job_spec.rb:133-142)."""
    pages = [
        FakePage(name="p0", links=["p1", "p1?foo=1"]),
        FakePage(name="p1"),
        FakePage(name="p1?foo=1", texts=["query variant"]),
    ]
    return web_table(pages), [page_url("p0")]


def robots_web():
    """Robots-disallowed subtree (crawl_job_spec.rb:194-207)."""
    pages = [
        FakePage(name="p0", links=["ok", "private/secret"]),
        FakePage(name="ok"),
        FakePage(name="private/secret", links=["private/deeper"]),
        FakePage(name="private/deeper"),
    ]
    robots = {HOST: "User-agent: *\nDisallow: /private"}
    return web_table(pages, robots=robots), [page_url("p0")]


def skip_pattern_web():
    pages = [
        FakePage(name="p0", links=["keep", "admin/panel"]),
        FakePage(name="keep"),
        FakePage(name="admin/panel"),
    ]
    return web_table(pages), [page_url("p0")]


def multi_host_web():
    """Two-host graph with a deep chain per host (politeness tests)."""
    pages = []
    for host in ("a.example.com", "b.example.com"):
        for i in range(4):
            pages.append(
                FakePage(
                    name=f"p{i}",
                    host=host,
                    links=[f"p{i+1}"] if i < 3 else [],
                    latency_ms=10,
                )
            )
    return web_table(pages), [page_url("p0", "a.example.com"), page_url("p0", "b.example.com")]


def auth_web():
    """Basic-auth protected page (batch_crawl_job_spec.rb:152-158 analog):
    /secret requires u:p; link without creds → 401; seeding with userinfo
    credentials succeeds."""
    pages = [
        FakePage(name="p0", links=["open", "secret"]),
        FakePage(name="open"),
        FakePage(name="secret", auth="u:p", links=["open"], texts=["classified"]),
    ]
    return web_table(pages), [page_url("p0")]


def kitchen_sink_web():
    """Every fetch-model feature in one graph: branching tree + transient
    retries + cookie gate + redirect + robots-disallowed subtree + a dead
    link — for the feature-interaction integration test."""
    pages = [
        FakePage(
            name="p0",
            links=["a", "b", "flaky", "gate", "r1", "private/x", "missing"],
            set_cookie="tok=k9; Path=/",
            latency_ms=10,
        ),
        FakePage(name="a", links=["a1", "a2"], latency_ms=15),
        FakePage(name="a1"), FakePage(name="a2"),
        FakePage(name="b", links=["b1"], latency_ms=5),
        FakePage(name="b1"),
        FakePage(name="flaky", fail_times=2, texts=["survived"], links=["f1"]),
        FakePage(name="f1"),
        FakePage(name="gate", require_cookie="tok=k9", texts=["inner circle"], links=["g1"]),
        FakePage(name="g1"),
        FakePage(name="r1", redirect="t1"),
        FakePage(name="t1", links=["t2"]),
        FakePage(name="t2"),
        FakePage(name="private/x", links=["private/y"]),
        FakePage(name="private/y"),
    ]
    robots = {HOST: "User-agent: *\nDisallow: /private"}
    return web_table(pages, robots=robots), [page_url("p0")]


def transient_web():
    """Transient-failure pages (http.rb:211-216 retry model): 'flaky'
    succeeds after 2 failed attempts; 'dead4' exhausts the 3-retry budget
    and yields an error page. Failed attempts cost latency on the
    politeness clock; response_time is the successful attempt's alone."""
    pages = [
        FakePage(name="p0", links=["flaky", "dead4", "ok"], latency_ms=10),
        FakePage(name="flaky", fail_times=2, latency_ms=10, texts=["survived retries"]),
        FakePage(name="dead4", fail_times=5, latency_ms=10),
        FakePage(name="ok", latency_ms=10),
    ]
    return web_table(pages), [page_url("p0")]


def branching_web(branch=3, depth=3):
    """Deterministic high-branching tree — the ChildSpawningBatchJob analog
    (spec/child_spawning_batch_job.rb:29-76) used for job_limit/spill tests."""
    pages = []

    def build(name, d):
        kids = [f"{name}-{i}" for i in range(branch)] if d < depth else []
        pages.append(FakePage(name=name, links=kids))
        for k in kids:
            build(k, d + 1)

    build("r", 0)
    return web_table(pages), [page_url("r")]


def dead_link_web():
    """A link to an unregistered URL → error page (fetched=False). The page
    row exists but no document row does (ADVICE r1: documents() must filter
    on fetched; the reference emits documents only for fetched pages)."""
    pages = [
        FakePage(name="p0", links=["ok", "missing"]),
        FakePage(name="ok", texts=["alive"]),
        # "missing" is intentionally NOT registered
    ]
    return web_table(pages), [page_url("p0")]


def cookie_web():
    pages = [
        FakePage(name="p0", links=["p1"], set_cookie="session=abc123; Path=/"),
        FakePage(name="p1", set_cookie="pref=dark"),
    ]
    return web_table(pages), [page_url("p0")]


def cookie_gate_web():
    """Cookie round-trip (http.rb:196 + crawl_job_spec.rb:221-224 analog):
    p0 sets a session cookie and links to 'gate', whose real body (with the
    'members only' text) is served only when the request Cookie header
    carries session=abc123 — otherwise a login stub."""
    pages = [
        FakePage(name="p0", links=["gate"], set_cookie="session=abc123; Path=/"),
        FakePage(
            name="gate",
            require_cookie="session=abc123",
            texts=["members only"],
            links=["inner"],
        ),
        FakePage(name="inner", texts=["inner sanctum"]),
    ]
    return web_table(pages), [page_url("p0")]


def vip_gate_web():
    """Initial-cookies (opts[:cookies]) gate — no Set-Cookie involved."""
    pages = [
        FakePage(name="p0", links=["vip"]),
        FakePage(name="vip", require_cookie="vip=1", texts=["vip lounge"]),
    ]
    return web_table(pages), [page_url("p0")]


def seen_set(handle) -> set[str]:
    """Test helper: collect the committed seen set into a Python set (the
    library returns a Dataset so the set never materializes driver-side in
    production code). Fails if the Dataset repeats a key."""
    df = handle.seen_urls().to_pandas()
    # Ray's to_pandas drops the schema on empty datasets
    urls = list(df["canonical_url"]) if "canonical_url" in df.columns else []
    out = set(urls)
    assert len(out) == len(urls), f"seen_urls() holds {len(urls)} rows for {len(out)} keys"
    return out
