"""The benchmark's per-layer trace (perfbench/trace.py) wraps engine
functions, classes and ``ShardedState`` methods by name. A renamed seam
would only show when a traced benchmark run fails; this enters the trace
around tiny crawls on both planners, and around one that hands a wave to
the distributed planner while the state stays in the driver, and checks
that it counts their waves."""

from __future__ import annotations

import pytest

from cloud_crawler_ray.pipelines.crawl import crawl
from cloud_crawler_ray.spec import CrawlSpec
from cloud_crawler_ray.state.shards import ShardedState
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
    # both planners slot a wave on the driver, in one slot_block call
    slot_spans = [s for s in tracer.spans if s.name == "politeness.slot_block"]
    assert len(slot_spans) == handle.waves


def test_traced_handoff_crawl_keeps_state_in_driver(ray_session, tmp_path):
    """A hand-off crawl (waves planned L, L, D) whose distributed plan only
    reads the state: the trace still counts its distributed wave, and the
    state stays in the driver."""
    web, seeds = webs.handoff_web(3)
    tracer = Tracer()
    state = ShardedState(4)
    try:
        with traced_crawl(tracer):
            handle = crawl(
                web, seeds, CrawlSpec(), str(tmp_path / "out"),
                small_wave_threshold=20, state=state,
            )
        assert not state.promoted
    finally:
        state.shutdown()
    assert handle.waves == 3
    assert tracer.counts["local_waves"] == 2
    assert tracer.counts["distributed_waves"] == 1
