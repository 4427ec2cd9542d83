"""Cookie round-trip end-to-end: the jar built from Set-Cookie responses is
emitted as the Cookie request header (http.rb:196), with wave-commit
semantics (requests in wave N carry cookies committed by waves < N) so the
fetch is deterministic whichever planner makes a wave and wherever it is
fetched."""

import pytest

from cloud_crawler_ray.oracle import crawl_oracle
from cloud_crawler_ray.pipelines.crawl import crawl
from cloud_crawler_ray.spec import CrawlSpec

from tests import webs
from tests.test_crawl_engine import assert_parity, run_both


def _doc_texts(handle, suffix):
    for d in handle.documents().take_all():
        if d["doc_id"].endswith(suffix):
            return [s["text"] for s in d["spans"] or [] if s["kind"] == "text"]
    return None


@pytest.mark.parametrize("small_wave_threshold", [100_000, 0], ids=["local", "distributed"])
def test_cookie_round_trip(ray_session, tmp_path, small_wave_threshold):
    """p0 (wave 0) sets the session cookie; gate (wave 1) presents it and
    receives the members-only body, whose link is then crawled."""
    web, seeds = webs.cookie_gate_web()
    spec = CrawlSpec(accept_cookies=True)
    res = crawl_oracle(web, seeds, spec)
    handle = crawl(
        web, seeds, spec, str(tmp_path / "out"), small_wave_threshold=small_wave_threshold
    )
    assert_parity(res, handle)
    assert "members only" in (_doc_texts(handle, "/gate") or [])
    # the gated page's link was followed → inner got crawled
    assert any(p["url"].endswith("/inner") for p in handle.pages().take_all())


def test_cookie_gate_blocked_without_accept(ray_session, tmp_path):
    """accept_cookies=False: the jar never grows, gate serves the login stub
    and its inner link is never discovered."""
    web, seeds = webs.cookie_gate_web()
    res, handle = run_both(web, seeds, CrawlSpec(accept_cookies=False), tmp_path)
    assert_parity(res, handle)
    texts = _doc_texts(handle, "/gate")
    assert texts == ["login required"]
    assert not any(p["url"].endswith("/inner") for p in handle.pages().take_all())


def test_initial_cookies_option(ray_session, tmp_path):
    """opts[:cookies] analog: spec.cookies are sent even with
    accept_cookies=False (http.rb:179 emission condition)."""
    web, seeds = webs.vip_gate_web()
    spec = CrawlSpec(cookies={"vip": "1"})
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)
    assert "vip lounge" in (_doc_texts(handle, "/vip") or [])

    res2, handle2 = run_both(web, seeds, CrawlSpec(), tmp_path / "2")
    assert_parity(res2, handle2)
    assert _doc_texts(handle2, "/vip") == ["login required"]


def test_cookies_survive_resume(ray_session, tmp_path):
    """The committed jar is in the lineage marker: a resume between the
    setting wave and the gated wave still presents the cookie."""
    web, seeds = webs.cookie_gate_web()
    spec = CrawlSpec(accept_cookies=True)
    out = str(tmp_path / "out")
    crawl(web, seeds, spec, out, max_waves=1)  # p0 fetched, cookie committed
    handle = crawl(web, seeds, spec, out, resume=True)
    res = crawl_oracle(web, seeds, spec)
    assert_parity(res, handle)
    assert "members only" in (_doc_texts(handle, "/gate") or [])
