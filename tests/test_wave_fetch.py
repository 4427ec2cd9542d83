"""Waves above ``driver_fetch_threshold`` are fetched by plain Ray tasks
over slices of the wave's job table, each task writing its own raw parts,
whichever planner made the wave. The crawl's outputs must not depend on how
a wave is sliced, nor on a fetch task whose worker dies and is retried by
Ray."""

from __future__ import annotations

import glob
import json
import math
import os
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from cloud_crawler_ray.oracle import crawl_oracle
from cloud_crawler_ray.pipelines.crawl import _wave_slices, crawl
from cloud_crawler_ray.spec import CrawlSpec

from tests import webs
from tests.test_crawl_engine import assert_parity

THRESHOLD = 8  # driver_fetch_threshold: waves of 1 and 4 jobs stay in-process
SPEC = CrawlSpec(delay=0.05, on_every_page=lambda p: {"pages": 1})


def _web():
    """Waves of 1, 4, 16 and 64 jobs."""
    return webs.branching_web(branch=4, depth=3)


def _raw_parts(out: str, wave: int) -> list[str]:
    return sorted(glob.glob(os.path.join(out, "raw", f"wave={wave:05d}", "*.parquet")))


def _expected_parts(n_jobs: int, fetch_batch_size: int) -> int:
    ncpus = int(ray.cluster_resources()["CPU"])
    return min(n_jobs, max(ncpus, math.ceil(n_jobs / fetch_batch_size)))


@pytest.mark.parametrize("fetch_batch_size", [512, 5], ids=["default", "k-above-cpus"])
@pytest.mark.parametrize("small_wave_threshold", [100_000, 0], ids=["local", "distributed"])
def test_wave_fetch_tasks(ray_session, tmp_path, small_wave_threshold, fetch_batch_size):
    """Each task-fetched wave writes one part per slice — k of them, more
    than the CPUs when fetch_batch_size caps the slices — whether the
    driver or the distributed planner made it, and the crawl equals the
    oracle."""
    web, seeds = _web()
    out = str(tmp_path / "out")
    handle = crawl(
        web, seeds, SPEC, out,
        small_wave_threshold=small_wave_threshold,
        driver_fetch_threshold=THRESHOLD, fetch_batch_size=fetch_batch_size,
    )
    res = crawl_oracle(web, seeds, SPEC)
    assert_parity(res, handle)
    assert handle.counters() == res.counters
    m = handle.wave_metrics()
    assert list(m.n_jobs) == [1, 4, 16, 64]
    for wave, n in zip(m.wave, m.n_jobs):
        want = _expected_parts(n, fetch_batch_size) if n > THRESHOLD else 1
        assert len(_raw_parts(out, wave)) == want, (wave, n)
    if fetch_batch_size == 5:
        assert _expected_parts(64, 5) > int(ray.cluster_resources()["CPU"])


def _crash_once(marker: str, driver_pid: int):
    """on_every_page hook: the first call in a worker process (a task-fetched
    wave — smaller waves run in the driver) creates *marker* and kills its
    worker; every later call counts the page."""

    def hook(page):
        if os.getpid() != driver_pid:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os._exit(1)
        return {"pages": 1}

    return hook


def _lineage(out: str) -> list[dict]:
    markers = sorted(glob.glob(os.path.join(out, "lineage", "wave=*.json")))
    return [json.loads(Path(m).read_text()) for m in markers]


def test_fetch_task_worker_death_is_retried(ray_session, tmp_path):
    """A fetch task whose worker exits mid-wave is retried by Ray; the crawl
    equals a clean run — crawl order, seen set, documents, counters and
    lineage markers — and the wave's raw dir holds exactly k parts with no
    row twice."""
    web, seeds = _web()
    runs = {}
    for name in ("clean", "crash"):
        marker = str(tmp_path / f"{name}.marker")
        if name == "clean":
            open(marker, "w").close()  # the hook never exits
        spec = CrawlSpec(delay=0.05, on_every_page=_crash_once(marker, os.getpid()))
        out = str(tmp_path / name)
        runs[name] = (out, crawl(web, seeds, spec, out, driver_fetch_threshold=THRESHOLD))
        assert os.path.exists(marker)
    (clean_out, clean), (crash_out, crashed) = runs["clean"], runs["crash"]

    assert_parity(crawl_oracle(web, seeds, SPEC), crashed)
    assert crashed.crawl_order().take_all() == clean.crawl_order().take_all()
    assert crashed.counters() == clean.counters() == {"pages": 85}
    assert _lineage(crash_out) == _lineage(clean_out)
    docs = lambda h: sorted((r["doc_id"], str(r["spans"])) for r in h.documents().take_all())
    assert docs(crashed) == docs(clean)

    # wave 2 (16 jobs) is the first task-fetched wave: the one that crashed
    parts = _raw_parts(crash_out, 2)
    assert len(parts) == _expected_parts(16, 512)
    raw = pa.concat_tables([pq.read_table(p, columns=["seq", "chain_pos"]) for p in parts])
    keys = pc.binary_join_element_wise(
        pc.cast(raw.column("seq"), pa.string()),
        pc.cast(raw.column("chain_pos"), pa.string()), ":",
    )
    assert raw.num_rows == 16 == len(pc.unique(keys))


def test_wave_slices():
    """Contiguous near-equal ranges in seq order; by host, each host's rows
    form one range and keep their seq order."""
    hosts = ["a", "b", "a", "c", "b", "a", "d", "c", "a", "b"]
    t = pa.table({"seq": pa.array(range(10), pa.int64()), "host": hosts})
    tbl, bounds = _wave_slices(t, 4)
    assert tbl is t
    assert bounds == [(0, 2), (2, 5), (5, 7), (7, 10)]

    tbl, bounds = _wave_slices(t, 3, by_host=True)
    assert sorted(tbl.column("seq").to_pylist()) == list(range(10))
    assert bounds[0][0] == 0 and bounds[-1][1] == 10
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    owner = {}
    for i, (lo, hi) in enumerate(bounds):
        part = tbl.slice(lo, hi - lo)
        seqs = part.column("seq").to_pylist()
        assert seqs == sorted(seqs)
        for h in part.column("host").to_pylist():
            assert owner.setdefault(h, i) == i
