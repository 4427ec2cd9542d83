"""Where the crawl state lives: ``ShardedState`` keeps its partitions in the
driver until a Ray task needs them, then moves them into ``StateShard``
actors. Results must not depend on where the state is — per method, in a
task that receives a pickled state, across crawls that switch between the
driver-side and the distributed planner, and across resume."""

from __future__ import annotations

import os
import pickle
import re
import signal
import subprocess
import sys

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from cloud_crawler_ray.oracle import crawl_oracle
from cloud_crawler_ray.pipelines.crawl import crawl
from cloud_crawler_ray.spec import CrawlSpec
from cloud_crawler_ray.state.shards import ShardedState
from cloud_crawler_ray.synthweb import FakePage, page_url, web_table

from tests import webs
from tests.test_crawl_engine import assert_parity

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KEYS = [f"http://h{i % 5}.com/p{i}" for i in range(60)]
HOSTS = [f"h{i}.com" for i in range(7)]


def _step1(s: ShardedState) -> None:
    s.add(KEYS[:25])
    s.advance_clocks({h: 100 * i for i, h in enumerate(HOSTS[:5])})
    s.add_sched({h: i + 1 for i, h in enumerate(HOSTS[:4])})
    s.add_lat({h: (10 * i, i + 1) for i, h in enumerate(HOSTS[:3])})


def _step2(s: ShardedState) -> None:
    s.add(KEYS[20:40])
    s.advance_clocks({HOSTS[0]: 50, HOSTS[1]: 1_000, HOSTS[6]: 7})  # max-merge
    s.add_sched({HOSTS[0]: 2, HOSTS[5]: 3})  # additive
    s.add_lat({HOSTS[0]: (5, 1), HOSTS[6]: (9, 2)})


def _reads(s: ShardedState):
    return (
        s.check(KEYS),
        s.get_clocks(HOSTS),
        s.get_sched(HOSTS),
        s.get_lat(HOSTS),
        s.seen_count(),
        [pickle.loads(b) for b in s.snapshots()],
    )


def test_methods_equal_before_and_after_promotion(ray_session):
    local, moved = ShardedState(3), ShardedState(3)
    try:
        for s in (local, moved):
            _step1(s)
        assert _reads(local) == _reads(moved)
        moved.promote()
        assert moved.promoted and not local.promoted
        assert _reads(local) == _reads(moved)
        for s in (local, moved):
            _step2(s)
        assert _reads(local) == _reads(moved)
        assert _reads(local)[4] == 40
        # restore round-trips either way
        fresh = ShardedState(3)
        fresh.restore(moved.snapshots())
        assert _reads(fresh)[:5] == _reads(local)[:5]
    finally:
        local.shutdown()
        moved.shutdown()


def test_promotion_carries_claims(ray_session):
    """Claims registered while the state is in the driver reach the actors:
    admit_frontier drops a row that lost its key's first-wins claim."""
    from cloud_crawler_ray.stages.frontier_ops import AdmitFrontier

    state = ShardedState(3)
    try:
        urls = ["http://h.com/a", "http://h.com/b", "http://h.com/a", "http://h.com/c"]
        state.claim_frontier(1, urls, [5, 4, 2, 9], [0, 0, 3, 1])
        state.add(["http://h.com/c"])
        assert not state.promoted
        # the losing copy of a, plus b and the already-seen c
        batch = pa.table(
            {
                "canonical_url": [urls[0], urls[1], urls[3]],
                "parent_seq": pa.array([5, 4, 9], pa.int64()),
                "ordinal": pa.array([0, 0, 1], pa.int32()),
            }
        )
        kept = AdmitFrontier(state.shards, 1)(batch)
        assert state.promoted
        assert kept.column("canonical_url").to_pylist() == ["http://h.com/b"]
        state.clear_claims(1)
        assert AdmitFrontier(state.shards, 1)(batch).num_rows == 2
    finally:
        state.shutdown()


def test_task_sees_driver_state_through_pickle(ray_session):
    """A task that captures a never-promoted state works on the driver's
    state, not on a pickled copy of it."""
    state = ShardedState(3)
    try:
        state.add(["http://h.com/a"])
        state.advance_clocks({"h.com": 42})

        @ray.remote
        def probe(st):
            st.add(["http://h.com/b"])
            return (
                st.check(["http://h.com/a", "http://h.com/b", "http://h.com/c"]),
                st.get_clocks(["h.com"]),
                st.promoted,
            )

        assert ray.get(probe.remote(state)) == ([False, False, True], {"h.com": 42}, True)
        assert state.promoted
        assert state.check(["http://h.com/b"]) == [False]  # the task's write
    finally:
        state.shutdown()


def test_shutdown_of_unpromoted_state_is_noop():
    state = ShardedState(2)
    state.add(["http://h.com/a"])
    state.shutdown()
    assert not state.promoted
    assert state.check(["http://h.com/a"]) == [False]


def pulse_web():
    """Frontiers that grow and shrink around a small threshold (5): waves
    plan on the driver, hand off to the distributed planner (a driver wave
    whose frontier holds its job_limit spill and duplicate children), and
    come back."""
    pages = [
        FakePage(name="r", links=[f"a{i}" for i in range(5)]),
        FakePage(name="a0", links=["b0", "b1"]),
        FakePage(name="a1", links=["a0"]),
        FakePage(name="a2", links=["c0", "c1", "c2", "c3"]),
        FakePage(name="a3", links=["c1"]),
        FakePage(name="a4", links=["c0"]),
        FakePage(name="b0", links=["c0", "c1", "c2"], hrefs=[f"http://{webs.OTHER}/d0"]),
        FakePage(name="b1", links=["c1", "c2", "c3"]),
        FakePage(name="c0", links=["e0"]),
        FakePage(name="c1"), FakePage(name="c2"), FakePage(name="c3"),
        FakePage(name="e0"),
        FakePage(name="d0", host=webs.OTHER),
    ]
    return web_table(pages), [page_url("r")]


PULSE_SPEC = CrawlSpec(
    job_limit=2, trap_guard=4, max_pages_per_host=12, outside_domain=True,
    delay=0.05, on_every_page=lambda p: {"pages": 1},
)


@pytest.fixture
def planner_log(monkeypatch):
    """Records each planned wave: "L" (driver) or "D" (distributed)."""
    import cloud_crawler_ray.pipelines.crawl as crawl_mod

    log: list[str] = []
    local, dist = crawl_mod._plan_wave_local, crawl_mod.zip_with_index

    def on_local(*a, **k):
        log.append("L")
        return local(*a, **k)

    def on_dist(*a, **k):
        log.append("D")
        return dist(*a, **k)

    monkeypatch.setattr(crawl_mod, "_plan_wave_local", on_local)
    monkeypatch.setattr(crawl_mod, "zip_with_index", on_dist)
    return log


@pytest.mark.parametrize(
    "spec,threshold,plan_re",
    [
        (PULSE_SPEC, 100_000, "L+"),
        (PULSE_SPEC, 5, "LLLDD+L+"),
        (PULSE_SPEC, 0, "D+"),
        # no job_limit: the frontier handed to the distributed planner holds
        # duplicate children (c0, c1), all due in that wave
        (CrawlSpec(delay=0.05), 5, "LLD+"),
    ],
    ids=["local", "mixed", "distributed", "mixed-unlimited"],
)
def test_mixed_planner_parity(
    ray_session, tmp_path, monkeypatch, planner_log, spec, threshold, plan_re
):
    """Same crawl order, seen set, pages, documents and counters as the
    oracle whichever planner each wave takes — under PULSE_SPEC with
    job_limit spill, a host budget and the trap guard all binding. Every
    driver table enters Ray Data as one-row blocks, so no stage can lean on
    a frontier arriving as one batch (AdmitFrontier's in-batch dedup would
    hide a missing first-wins dedup at the hand-off)."""
    from_arrow = rd.from_arrow

    def one_row_blocks(t):
        if isinstance(t, pa.Table) and t.num_rows > 1:
            return from_arrow([t.slice(i, 1) for i in range(t.num_rows)])
        return from_arrow(t)

    monkeypatch.setattr(rd, "from_arrow", one_row_blocks)
    web, seeds = pulse_web()
    res = crawl_oracle(web, seeds, spec)
    state = ShardedState(4)
    try:
        handle = crawl(
            web, seeds, spec, str(tmp_path / "out"),
            small_wave_threshold=threshold, state=state,
        )
        assert_parity(res, handle)
        assert handle.counters() == res.counters
        # an all-driver crawl never starts a shard actor
        assert state.promoted == ("D" in planner_log)
    finally:
        state.shutdown()
    assert re.fullmatch(plan_re, "".join(planner_log)), planner_log


def test_resume_from_unpromoted_crawl(ray_session, tmp_path):
    """A crawl cut short while its state was still in the driver resumes —
    here into the mixed planner — to the oracle's result."""
    web, seeds = pulse_web()
    out = str(tmp_path / "out")
    state = ShardedState(4)
    try:
        partial = crawl(web, seeds, PULSE_SPEC, out, max_waves=3, state=state)
        assert partial.waves == 3 and not state.promoted
    finally:
        state.shutdown()
    resumed = crawl(web, seeds, PULSE_SPEC, out, resume=True, small_wave_threshold=5)
    res = crawl_oracle(web, seeds, PULSE_SPEC)
    assert_parity(res, resumed)
    assert resumed.counters() == res.counters


_ONE_CPU_CRAWL = """
import sys
import ray
from cloud_crawler_ray.oracle import crawl_oracle
from cloud_crawler_ray.pipelines.crawl import crawl
from cloud_crawler_ray.spec import CrawlSpec
from tests import webs
from tests.test_crawl_engine import assert_parity

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
web, seeds = webs.small_dag()
spec = CrawlSpec(delay=0.1)
handle = crawl(web, seeds, spec, sys.argv[1], small_wave_threshold=0)
assert_parity(crawl_oracle(web, seeds, spec), handle)
ray.shutdown()
print("ONE_CPU_CRAWL_OK")
"""


def test_one_cpu_session_crawls(tmp_path):
    """Shard actors hold no logical CPU: a num_cpus=1 session still has one
    for the fetch tasks of a fully distributed crawl."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CRAWL, str(tmp_path / "out")],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=REPO),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,  # one process group: Ray's processes too
    )
    try:
        out, _ = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        pytest.fail("num_cpus=1 crawl still running after 240 s:\n" + out[-3000:])
    assert proc.returncode == 0 and "ONE_CPU_CRAWL_OK" in out, out[-3000:]


def test_shard_module_does_not_import_pandas():
    """A StateShard actor process imports state.shards but never routes
    keys, so the module must not pull in pandas (about half a second of
    each actor's start-up); shards_of imports it when called."""
    code = (
        "import sys\n"
        "import cloud_crawler_ray.state.shards as s\n"
        "assert 'pandas' not in sys.modules, 'pandas imported'\n"
        "s.shards_of(['a', 'b'], 2)\n"
        "assert 'pandas' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=dict(os.environ, PYTHONPATH=REPO),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
