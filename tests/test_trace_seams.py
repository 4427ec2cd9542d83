"""The benchmark's per-layer trace (perfbench/trace.py) wraps engine
functions, classes and ``ShardedState`` methods by name. A renamed seam
would only show when a traced benchmark run fails; this enters the trace
around tiny crawls on both planners and checks that it counts their
waves."""

from __future__ import annotations

import pytest

from cloud_crawler_ray.pipelines.crawl import crawl
from cloud_crawler_ray.spec import CrawlSpec
from perfbench.trace import Tracer, traced_crawl

from tests import webs


@pytest.mark.parametrize(
    "small_wave_threshold,kind",
    [(100_000, "local_waves"), (0, "distributed_waves")],
    ids=["local", "distributed"],
)
def test_traced_crawl_counts_waves(ray_session, tmp_path, small_wave_threshold, kind):
    web, seeds = webs.small_dag()
    tracer = Tracer()
    with traced_crawl(tracer):
        handle = crawl(
            web, seeds, CrawlSpec(), str(tmp_path / "out"),
            small_wave_threshold=small_wave_threshold,
        )
    assert handle.waves >= 2
    assert tracer.counts[kind] == handle.waves
    other = "distributed_waves" if kind == "local_waves" else "local_waves"
    assert tracer.counts[other] == 0
    assert any(s.name.startswith("state.") for s in tracer.spans)
