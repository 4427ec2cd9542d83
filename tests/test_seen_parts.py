"""The on-disk URL-seen record: each wave writes one seen part holding the
keys that wave newly marked, so every key is stored once and
``seen_urls()`` is a plain scan. This must hold whichever planner makes a
wave and whether the driver or tasks fetch it, when a redirect lands on a
key that is seen already, when Ray retries a task whose worker died, and
across a driver crash and resume."""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq
import pytest

import cloud_crawler_ray.pipelines.crawl as crawl_mod
from cloud_crawler_ray.oracle import crawl_oracle
from cloud_crawler_ray.pipelines.crawl import crawl
from cloud_crawler_ray.spec import CrawlSpec
from cloud_crawler_ray.stages.frontier_ops import ClaimChildren
from cloud_crawler_ray.state.shards import ShardedState

from tests import webs
from tests.test_crawl_engine import assert_parity
from tests.test_wave_fetch import _crash_once, _lineage


def _seen_parts(out: str) -> dict[int, list[str]]:
    """wave → the keys of its seen part (exactly one part per wave)."""
    parts = {}
    for d in sorted(glob.glob(os.path.join(out, "seen", "wave=*"))):
        files = glob.glob(os.path.join(d, "*.parquet"))
        assert len(files) == 1, files
        wave = int(os.path.basename(d).split("=")[1])
        parts[wave] = sorted(pq.read_table(files[0]).column("canonical_url").to_pylist())
    return parts


def _assert_disjoint(parts: dict[int, list[str]], seen: set[str]) -> None:
    keys = [k for p in parts.values() for k in p]
    assert len(keys) == len(set(keys)) == len(seen)
    assert set(keys) == seen


def test_take_fresh_across_promotion_and_restore(ray_session):
    """Fresh keys are the newly inserted ones, in insertion order; they
    follow the partitions into their actors, and a restore clears them."""
    keys = [f"http://h{i % 3}.com/p{i}" for i in range(12)]
    state = ShardedState(3)
    try:
        state.add(keys[:5] + keys[:2])
        assert sorted(state.take_fresh()) == sorted(keys[:5])
        assert state.take_fresh() == []
        state.add(keys[3:8])
        state.promote()
        state.add(keys[6:10])
        assert sorted(state.take_fresh()) == sorted(keys[5:10])
        snap = state.snapshots()
        state.add(keys[10:])
        state.restore(snap)
        assert state.take_fresh() == []
        assert state.check(keys) == [False] * 10 + [True] * 2
    finally:
        state.shutdown()


@pytest.mark.parametrize("keep_redirects", [False, True], ids=["plain", "keep"])
@pytest.mark.parametrize("driver_fetch_threshold", [256, 0])
@pytest.mark.parametrize("small_wave_threshold", [100_000, 2, 0])
def test_redirects_onto_seen_keys_are_stored_once(
    ray_session, tmp_path, small_wave_threshold, driver_fetch_threshold, keep_redirects
):
    """a and b redirect to one key, d and e to keys of earlier waves: the
    crawl equals the oracle, and its seen parts hold the 8 keys once each."""
    web, seeds = webs.redirect_repeat_web()
    spec = CrawlSpec(keep_redirects=keep_redirects)
    out = str(tmp_path / "out")
    handle = crawl(
        web, seeds, spec, out,
        small_wave_threshold=small_wave_threshold,
        driver_fetch_threshold=driver_fetch_threshold,
    )
    res = crawl_oracle(web, seeds, spec)
    assert_parity(res, handle)
    parts = _seen_parts(out)
    assert sorted(parts) == list(range(handle.waves))
    assert len(res.seen) == 8
    _assert_disjoint(parts, res.seen)


def _claim_then_exit(marker: str, driver_pid: int):
    """A ``ClaimChildren`` whose first call in a worker process registers
    its part's claims, creates *marker* and kills the worker: the retried
    task registers the same claims again. Built on the driver and pickled
    by value into the fetch tasks."""

    class ClaimThenExit(ClaimChildren):
        def __call__(self, batch):
            out = super().__call__(batch)
            if os.getpid() != driver_pid:
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    os._exit(1)
            return out

    return ClaimThenExit


@pytest.mark.parametrize("crash_at", ["fetch", "after_claims"])
def test_distributed_wave_worker_death_is_retried(
    ray_session, tmp_path, monkeypatch, crash_at
):
    """A distributed-planned wave whose fetch worker exits — on its first
    page (before any claim of its part) or right after its part registered
    its next-wave claims — is retried by Ray; the crawl equals a clean run
    in crawl order, seen parts, documents, counters and lineage markers.
    driver_fetch_threshold=0 sends even these small waves to fetch tasks."""
    web, seeds = webs.redirect_repeat_web()
    runs = {}
    for name in ("clean", "crash"):
        marker = str(tmp_path / f"{name}.marker")
        if name == "clean":
            open(marker, "w").close()  # nothing exits
        on_page = lambda p: {"pages": 1}
        if crash_at == "fetch":
            on_page = _crash_once(marker, os.getpid())
        else:
            monkeypatch.setattr(
                crawl_mod, "ClaimChildren", _claim_then_exit(marker, os.getpid())
            )
        spec = CrawlSpec(on_every_page=on_page)
        out = str(tmp_path / name)
        runs[name] = (out, crawl(
            web, seeds, spec, out, small_wave_threshold=0, driver_fetch_threshold=0
        ))
        assert os.path.exists(marker)
    (clean_out, clean), (crash_out, crashed) = runs["clean"], runs["crash"]

    res = crawl_oracle(web, seeds, CrawlSpec(on_every_page=lambda p: {"pages": 1}))
    assert_parity(res, crashed)
    assert crashed.crawl_order().take_all() == clean.crawl_order().take_all()
    assert crashed.counters() == clean.counters() == res.counters
    assert _lineage(crash_out) == _lineage(clean_out)
    docs = lambda h: sorted((r["doc_id"], str(r["spans"])) for r in h.documents().take_all())
    assert docs(crashed) == docs(clean)
    assert _seen_parts(crash_out) == _seen_parts(clean_out)
    _assert_disjoint(_seen_parts(crash_out), res.seen)


class _DriverCrash(Exception):
    pass


@pytest.mark.parametrize("small_wave_threshold", [100_000, 0], ids=["local", "distributed"])
def test_resume_after_crash_writes_no_replayed_key(ray_session, tmp_path, small_wave_threshold):
    """The driver dies after wave 2 wrote its seen part but before its
    lineage marker. The resumed crawl replays waves 0-1 into new shards and
    recomputes wave 2; its seen parts equal a clean run's, wave by wave, so
    no replayed key is written again."""
    web, seeds = webs.redirect_repeat_web()
    armed = {"on": True}

    def after_batch(ctx):
        if armed["on"] and ctx["wave"] == 2:
            armed["on"] = False
            raise _DriverCrash

    spec = CrawlSpec(after_batch=after_batch)
    kw = dict(small_wave_threshold=small_wave_threshold)
    out = str(tmp_path / "out")
    with pytest.raises(_DriverCrash):
        crawl(web, seeds, spec, out, **kw)
    assert len(_lineage(out)) == 2
    assert 2 in _seen_parts(out)  # the uncommitted wave's part is on disk

    resumed = crawl(web, seeds, spec, out, resume=True, **kw)
    clean_out = str(tmp_path / "clean")
    crawl(web, seeds, spec, clean_out, **kw)
    res = crawl_oracle(web, seeds, spec)
    assert_parity(res, resumed)
    assert _seen_parts(out) == _seen_parts(clean_out)
    _assert_disjoint(_seen_parts(out), res.seen)
