"""Real-socket fetch path: HttpNet (stages/httpnet.py) against an in-process
loopback origin (tests/loopback.py), unit-level and end-to-end through the
full crawl engine — the reference capability (http.rb:174-240) the synthetic
backend only models. The e2e test pins engine-over-real-HTTP against the
serial oracle running on a SyntheticNet of the SAME site table: identical
page set, crawl order, span sequences, and politeness spacing on the wire."""

from __future__ import annotations

import pytest

from cloud_crawler_ray.oracle import SyntheticNet, crawl_oracle, etag_of, fetch_chain
from cloud_crawler_ray.spec import CrawlSpec
from cloud_crawler_ray.stages.httpnet import HttpNet
from cloud_crawler_ray.synthweb import FakePage, page_url, web_table

from tests.loopback import serve_site


def test_basic_get_and_404():
    with serve_site() as srv:
        pages = [FakePage(name="p0", host=srv.netloc, texts=["hello wire"])]
        web = web_table(pages)
        srv.load(web)
        net = HttpNet()
        chain = net.chain(page_url("p0", srv.netloc), 0, "", 5)
        assert len(chain) == 1
        p = chain[0]
        assert p.code == 200 and p.fetched
        assert b"hello wire" in p.body
        assert p.content_type == "text/html"
        # same etag the synthetic origin would compute for the same bytes
        assert p.etag == etag_of(p.body, "text/html")
        miss = net.chain(page_url("nope", srv.netloc), 0, "", 5)[0]
        # a 404 is a FETCHED response (no transport error), just not a page
        assert miss.code == 404 and miss.error == "" and miss.fetched
        net.close()


def test_connection_refused_and_retries():
    with serve_site() as srv:
        pages = [
            FakePage(name="flaky", host=srv.netloc, fail_times=2),
            FakePage(name="dead", host=srv.netloc, fail_times=4),
        ]
        web = web_table(pages)
        srv.load(web)
        net = HttpNet(timeout=5)
        ok = net.chain(page_url("flaky", srv.netloc), 0, "", 5)[0]
        assert ok.code == 200 and ok.fetched
        assert len([p for _, p in srv.page_paths() if p == "/flaky"]) == 3  # 2 aborts + 1
        bad = net.chain(page_url("dead", srv.netloc), 0, "", 5)[0]
        assert bad.error == "retries exhausted" and not bad.fetched
        assert len([p for _, p in srv.page_paths() if p == "/dead"]) == 4  # full budget
        net.close()
    # nothing listening at all → permanent, no retries
    refused = HttpNet(timeout=2).chain("http://127.0.0.1:1/never", 0, "", 5)[0]
    assert refused.error == "connection refused" and refused.code == 0


@pytest.mark.parametrize("scheme", ["http", "https"])
def test_silently_closed_keepalive_reconnects(scheme):
    """An origin that closes each connection after its response without
    announcing it: the pooled socket is dead by the next request, which
    must go out on a fresh connection instead of failing — even with no
    retry budget to absorb it. A connection aborted after the request was
    sent still spends the budget (test_connection_refused_and_retries)."""
    with serve_site(tls=scheme == "https", silent_close=True) as srv:
        pages = [FakePage(name=f"p{i}", host=srv.netloc, scheme=scheme) for i in range(4)]
        srv.load(web_table(pages, scheme=scheme))
        net = HttpNet(timeout=5, max_retries=0)
        for i in range(4):
            p = net.chain(page_url(f"p{i}", srv.netloc, scheme), 0, "", 5)[0]
            assert p.fetched and p.code == 200, (i, p.error)
            assert srv.conns_closed.acquire(timeout=5)  # the origin hung up
        assert len(srv.page_paths()) == 4  # one request per fetch
        net.close()


def test_redirect_chain_limit_matches_synthetic():
    with serve_site() as srv:
        pages = [
            FakePage(name=f"r{i}", host=srv.netloc, redirect=f"r{i+1}") for i in range(7)
        ] + [FakePage(name="r7", host=srv.netloc)]
        web = web_table(pages)
        srv.load(web)
        real = HttpNet().chain(page_url("r0", srv.netloc), 0, "", 5)
        synth = fetch_chain(SyntheticNet(web), page_url("r0", srv.netloc), 0, "", 5)
        assert [(p.url, p.code, p.redirect_to) for p in real] == [
            (p.url, p.code, p.redirect_to) for p in synth
        ]
        assert len(real) == 6 and real[-1].code == 301  # limit 5 → 6 hops, unresolved


def test_offhost_redirect_not_followed():
    with serve_site() as srv:
        # localhost vs 127.0.0.1 are distinct politeness hosts on one box
        pages = [
            FakePage(
                name="roff", host=srv.netloc,
                redirect=f"http://localhost:{srv.server_address[1]}/t2",
            )
        ]
        web = web_table(pages)
        srv.load(web)
        chain = HttpNet().chain(page_url("roff", srv.netloc), 0, "", 5)
        assert len(chain) == 1 and chain[0].code == 301
        assert chain[0].redirect_to.startswith("http://localhost:")


def test_basic_auth():
    with serve_site() as srv:
        pages = [FakePage(name="secret", host=srv.netloc, auth="user:pw", texts=["inner"])]
        web = web_table(pages)
        srv.load(web)
        net = HttpNet()
        denied = net.chain(page_url("secret", srv.netloc), 0, "", 5)[0]
        assert denied.code == 401
        granted = net.chain(f"http://user:pw@{srv.netloc}/secret", 0, "", 5)[0]
        assert granted.code == 200 and b"inner" in granted.body
        # synthetic origin agrees on both outcomes
        snet = SyntheticNet(web)
        assert fetch_chain(snet, page_url("secret", srv.netloc), 0, "", 5)[0].code == 401
        assert fetch_chain(snet, f"http://user:pw@{srv.netloc}/secret", 0, "", 5)[0].code == 200
        net.close()


def test_cookie_gate_roundtrip():
    with serve_site() as srv:
        pages = [
            FakePage(name="login", host=srv.netloc, set_cookie="sid=tok1; Path=/"),
            FakePage(name="inbox", host=srv.netloc, require_cookie="sid=tok1",
                     texts=["private mail"]),
        ]
        web = web_table(pages)
        srv.load(web)
        net = HttpNet()
        login = net.chain(page_url("login", srv.netloc), 0, "", 5)[0]
        assert "sid=tok1" in login.set_cookie
        anon = net.chain(page_url("inbox", srv.netloc), 0, "", 5)[0]
        assert b"login required" in anon.body
        authed = net.chain(page_url("inbox", srv.netloc), 0, "", 5, cookie_header="sid=tok1")[0]
        assert b"private mail" in authed.body
        net.close()


def test_conditional_get_304():
    with serve_site() as srv:
        pages = [FakePage(name="p0", host=srv.netloc)]
        web = web_table(pages)
        srv.load(web)
        net = HttpNet()
        first = net.chain(page_url("p0", srv.netloc), 0, "", 5)[0]
        assert first.etag
        again = net.chain(page_url("p0", srv.netloc), 0, "", 5, prior_etag=first.etag)[0]
        assert again.not_modified and again.code == 304 and again.body == b""
        assert again.etag == first.etag
        net.close()


def test_robots_for_real_socket():
    with serve_site() as srv:
        pages = [FakePage(name="p0", host=srv.netloc)]
        web = web_table(pages, robots={srv.netloc: "User-agent: *\nDisallow: /private"})
        srv.load(web)
        port = srv.server_address[1]
        net = HttpNet(port_map={"127.0.0.1": port})
        rp = net.robots_for("127.0.0.1")
        assert not rp.can_fetch("*", "http://127.0.0.1/private/x")
        assert rp.can_fetch("*", "http://127.0.0.1/ok")
        net.close()
    # unreachable robots → allow all (the SyntheticNet convention)
    rp = HttpNet(timeout=2, port_map={"127.0.0.1": 1}).robots_for("127.0.0.1")
    assert rp.can_fetch("*", "http://127.0.0.1/anything")


def _parity_site(netloc: str, offhost: str):
    """BFS site exercising redirects, 404, robots, off-host links."""
    return [
        FakePage(name="p0", host=netloc, links=["p1", "p2", "r1", "missing", "private/x"],
                 hrefs=[f"http://{offhost}/away"], media=[("img", "/m0.png")]),
        FakePage(name="p1", host=netloc, links=["p3", "p2"]),
        FakePage(name="p2", host=netloc, links=["p3"], media=[("video", "/v.mp4")]),
        FakePage(name="r1", host=netloc, redirect="t1"),
        FakePage(name="t1", host=netloc, links=["p3"]),
        FakePage(name="p3", host=netloc, links=["p0"]),
        FakePage(name="missing", host=netloc, status=404),
        FakePage(name="private/x", host=netloc),
        FakePage(name="roff", host=netloc, redirect=f"http://{offhost}/t2"),
    ]


def test_crawl_engine_over_real_http_matches_oracle(ray_session, tmp_path):
    """The flagship parity: the distributed engine fetching over REAL
    sockets reproduces the serial oracle's crawl order, URL-seen set, page
    codes and span sequences computed on a SyntheticNet of the same site."""
    from cloud_crawler_ray.pipelines.crawl import crawl

    with serve_site() as srv:
        port = srv.server_address[1]
        offhost = f"localhost:{port}"
        robots_txt = "User-agent: *\nDisallow: /private"
        # one table, two robots keys: the netloc row is what the wire serves,
        # the portless row is what SyntheticNet's host-keyed lookup finds
        # (host_of strips ports — the politeness/robots key is "127.0.0.1")
        web = web_table(
            _parity_site(srv.netloc, offhost),
            robots={srv.netloc: robots_txt, "127.0.0.1": robots_txt},
        )
        srv.load(web)
        seeds = [page_url("p0", srv.netloc)]
        spec = CrawlSpec(delay=0.05, obey_robots_txt=True)

        res = crawl_oracle(web, seeds, spec)
        net = HttpNet(port_map={"127.0.0.1": port})
        handle = crawl(net, seeds, spec, str(tmp_path / "out"))

        got_order = [
            (r["wave"], r["seq"], r["url"]) for r in handle.crawl_order().take_all()
        ]
        assert got_order == res.crawl_order

        from tests.webs import seen_set

        assert seen_set(handle) == res.seen

        # page rows: everything except the timing fields (real sockets have
        # real latencies; the virtual politeness clock is the synthetic
        # backend's model, not the wire's)
        keys = ("url", "code", "depth", "referer", "redirect_to", "fetched",
                "seq", "wave", "etag", "not_modified")
        keyfn = lambda p: (p["seq"], p["url"])
        got_pages = sorted(
            ({k: r[k] for k in keys} for r in handle.pages().take_all()), key=keyfn
        )
        exp_pages = sorted(({k: p[k] for k in keys} for p in res.pages), key=keyfn)
        assert got_pages == exp_pages

        # documents: span-sequence equality (kind, text, media_ref, order)
        def span_key(spans):
            return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]

        got_docs = sorted(
            (r["doc_id"], span_key(r["spans"] or []))
            for r in handle.documents().take_all()
        )
        exp_docs = sorted((d["doc_id"], span_key(d["spans"])) for d in res.documents)
        assert got_docs == exp_docs

        # robots actually consulted on the wire
        robots_hits = [p for _, p, _ in srv.request_log if p == "/robots.txt"]
        assert robots_hits, "admission never fetched robots.txt over the socket"
        # disallowed path never requested
        assert all(not p.startswith("/private") for _, p in srv.page_paths())


def test_real_socket_politeness_spacing(ray_session, tmp_path):
    """Same-host fetches over the wire are spaced by ≥ spec.delay: the
    loopback origin timestamps every request; consecutive page requests must
    be at least the delay apart (modest tolerance for sleep jitter)."""
    _assert_spacing(tmp_path, {"p0": ["a", "b", "c", "d"]})


def test_real_socket_politeness_spacing_fetch_tasks(ray_session, tmp_path):
    """The same spacing when waves alternate between the driver (1 job) and
    Ray tasks (2 jobs): a wave's same-host jobs share one task, and the
    host's remaining wait is carried between the driver and the tasks."""
    _assert_spacing(
        tmp_path, {"p0": ["a", "b"], "a": ["c"], "c": ["d", "e"]},
        driver_fetch_threshold=1,
    )


def _assert_spacing(tmp_path, links: dict[str, list[str]], **crawl_kw):
    from cloud_crawler_ray.pipelines.crawl import crawl

    delay = 0.25
    names = list(dict.fromkeys(n for page, kids in links.items() for n in [page, *kids]))
    with serve_site() as srv:
        pages = [
            FakePage(name=n, host=srv.netloc, links=links.get(n, [])) for n in names
        ]
        web = web_table(pages)
        srv.load(web)
        net = HttpNet(port_map={"127.0.0.1": srv.server_address[1]})
        crawl(net, [page_url("p0", srv.netloc)], CrawlSpec(delay=delay),
              str(tmp_path / "out"), **crawl_kw)
        stamps = sorted(t for t, _ in srv.page_paths())
        assert len(stamps) == len(names)
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(g >= delay * 0.9 for g in gaps), gaps
