"""Per-host parallel connections (spec.host_connections): a host's jobs
round-robin over k lanes, the politeness delay applies per lane, the clock
commits to the max lane end — the reference's connection pool
(http.rb:219-240) made explicit. Oracle-parity on both planners; k=1 must
be byte-identical to the serial model."""

import pytest

from cloud_crawler_ray.oracle import crawl_oracle
from cloud_crawler_ray.pipelines.crawl import crawl
from cloud_crawler_ray.spec import CrawlSpec
from cloud_crawler_ray.synthweb import FakePage, page_url, web_table

from tests.test_crawl_engine import assert_parity, run_both


def wide_host_web(n: int = 12):
    """One host, one root fanning out to n leaves fetched in one wave —
    the regime where lanes matter."""
    pages = [FakePage(name="root", links=[f"leaf{i}" for i in range(n)], latency_ms=100)]
    pages += [FakePage(name=f"leaf{i}", latency_ms=100) for i in range(n)]
    return web_table(pages), [page_url("root")]


def _wave1_times(handle) -> list[int]:
    return sorted(
        r["fetch_time_ms"] for r in handle.pages().take_all() if r["wave"] == 1
    )


def test_two_lanes_parity_and_throughput(ray_session, tmp_path):
    web, seeds = wide_host_web(12)
    spec = CrawlSpec(delay=0.2, host_connections=2)
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)
    # serial: 12 leaves x (200 delay + 100 latency) = span 3300; two lanes
    # halve it — last start = clock0 + 6*(200+100) - 100
    times = _wave1_times(handle)
    assert len(times) == 12
    span = times[-1] - times[0]
    assert span == 5 * 300  # 6 jobs per lane: starts at +300 steps
    # lanes pair up: each start time appears exactly twice
    from collections import Counter
    assert set(Counter(times).values()) == {2}


def test_lanes_distributed_planner(ray_session, tmp_path):
    web, seeds = wide_host_web(9)
    spec = CrawlSpec(delay=0.2, host_connections=3)
    res = crawl_oracle(web, seeds, spec)
    handle = crawl(web, seeds, spec, str(tmp_path / "out"), small_wave_threshold=0)
    assert_parity(res, handle)


def test_one_lane_is_serial_model(ray_session, tmp_path):
    # k=1 must be bit-identical to the default serial politeness
    web, seeds = wide_host_web(6)
    r1 = crawl_oracle(web, seeds, CrawlSpec(delay=0.1))
    r2 = crawl_oracle(web, seeds, CrawlSpec(delay=0.1, host_connections=1))
    assert [p["fetch_time_ms"] for p in r1.pages] == [
        p["fetch_time_ms"] for p in r2.pages
    ]
    spec = CrawlSpec(delay=0.1, host_connections=1)
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)


@pytest.mark.parametrize(
    "small_wave_threshold", [100_000, 0], ids=["local", "distributed"]
)
def test_lanes_compose_with_adaptive_delay(ray_session, tmp_path, small_wave_threshold):
    web, seeds = wide_host_web(10)
    spec = CrawlSpec(delay=0.05, host_connections=2, adaptive_delay_pct=200)
    res, handle = run_both(
        web, seeds, spec, tmp_path, small_wave_threshold=small_wave_threshold
    )
    assert_parity(res, handle)
