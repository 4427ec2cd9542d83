"""Checkpoint / resume semantics: kill-and-resume equals a full run, no
committed wave is refetched, politeness clocks survive the kill, and both
planner paths (driver-side and fully distributed) agree."""

import glob
import os

from cloud_crawler_ray.oracle import crawl_oracle
from cloud_crawler_ray.pipelines.crawl import crawl
from cloud_crawler_ray.spec import CrawlSpec

from tests import webs
from tests.test_crawl_engine import assert_parity


def _mtimes(out):
    return {
        f: os.path.getmtime(f)
        for f in glob.glob(os.path.join(out, "raw", "wave=*", "*.parquet"))
    }


def test_resume_after_partial_run(ray_session, tmp_path):
    web, seeds = webs.multi_host_web()
    spec = CrawlSpec(delay=0.5)
    out = str(tmp_path / "out")

    partial = crawl(web, seeds, spec, out, max_waves=2)
    assert partial.waves == 2
    before = _mtimes(out)
    assert before  # waves 0-1 committed

    resumed = crawl(web, seeds, spec, out, resume=True)
    after = _mtimes(out)
    # committed waves were not refetched
    assert all(after[f] == t for f, t in before.items())

    res = crawl_oracle(web, seeds, spec)
    assert_parity(res, resumed)


def test_resume_after_uncommitted_wave(ray_session, tmp_path):
    """Simulate a crash after wave data was written but before the lineage
    marker landed: the wave must be recomputed deterministically."""
    web, seeds = webs.small_dag()
    spec = CrawlSpec(delay=0.2)
    out = str(tmp_path / "out")

    full = crawl(web, seeds, spec, out)
    # fake the crash: drop the last lineage marker (wave data stays on disk)
    markers = sorted(glob.glob(os.path.join(out, "lineage", "wave=*.json")))
    os.remove(markers[-1])

    resumed = crawl(web, seeds, spec, out, resume=True)
    res = crawl_oracle(web, seeds, spec)
    assert_parity(res, resumed)


def test_resume_after_crash_before_first_commit(ray_session, tmp_path):
    """Crash before the FIRST lineage marker lands: partial wave-0 parquet
    parts must be purged on resume, not duplicated alongside the rerun's
    files (ADVICE r1 — the purge used to be gated on `committed`)."""
    import shutil

    web, seeds = webs.small_dag()
    spec = CrawlSpec(delay=0.2)
    out = str(tmp_path / "out")

    full = crawl(web, seeds, spec, out)
    # fake the crash: remove ALL lineage markers, keep every wave's data
    shutil.rmtree(os.path.join(out, "lineage"))

    resumed = crawl(web, seeds, spec, out, resume=True)
    res = crawl_oracle(web, seeds, spec)
    assert_parity(res, resumed)  # would see 2x rows without the purge


def test_distributed_planner_matches(ray_session, tmp_path):
    """small_wave_threshold=0 forces the distributed planner on every wave
    (claim pass, sharded admission, sort+zip_with_index, then the driver's
    slot tail); must be row-identical to the oracle."""
    web, seeds = webs.redirect_web()
    spec = CrawlSpec(delay=0.3, keep_redirects=True)
    res = crawl_oracle(web, seeds, spec)
    handle = crawl(web, seeds, spec, str(tmp_path / "o1"), small_wave_threshold=0)
    assert_parity(res, handle)


def test_resume_distributed_path(ray_session, tmp_path):
    web, seeds = webs.multi_host_web()
    spec = CrawlSpec(delay=0.5)
    out = str(tmp_path / "out")
    crawl(web, seeds, spec, out, max_waves=1, small_wave_threshold=0)
    resumed = crawl(web, seeds, spec, out, resume=True, small_wave_threshold=0)
    res = crawl_oracle(web, seeds, spec)
    assert_parity(res, resumed)


def test_wave_metrics_in_lineage_markers(ray_session, tmp_path):
    """Each committed wave's marker carries (n_raw_rows, n_fetched, n_failed,
    spilled); totals reconcile with the page store, and a pure resume leaves
    the committed metrics untouched."""
    import pyarrow.compute as pc

    from cloud_crawler_ray.pipelines.crawl import crawl
    from cloud_crawler_ray.spec import CrawlSpec
    from cloud_crawler_ray.synthweb import make_skewed_web

    web, seeds = make_skewed_web(200, n_hosts=5, seed=3)
    out = str(tmp_path / "metrics_crawl")
    h = crawl(web, seeds, CrawlSpec(depth_limit=4, job_limit=40), out)
    m = h.wave_metrics()
    assert len(m) == h.waves
    assert (m["n_raw_rows"] >= 0).all() and (m["n_fetched"] >= 0).all()
    assert (m["n_failed"] == m["n_raw_rows"] - m["n_fetched"]).all()
    assert m["spilled"].any()  # job_limit=40 forces spills on this web
    pages = h.pages().to_pandas()
    assert int(m["n_raw_rows"].sum()) == len(pages)
    assert int(m["n_fetched"].sum()) == int(pages["fetched"].sum())
    assert m["total_jobs"].iloc[-1] == h.n_jobs

    # pure resume: committed metrics identical
    h2 = crawl(web, seeds, CrawlSpec(depth_limit=4, job_limit=40), out, resume=True)
    m2 = h2.wave_metrics()
    assert m2[m.columns].iloc[: len(m)].equals(m)
