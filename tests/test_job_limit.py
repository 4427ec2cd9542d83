"""job_limit wave-cap + spill-to-checkpoint semantics (batch_job.rb:229-241,
dsl_front_end.rb:73-77; test shape from spec/batch_job_spec.rb:115-259).

A capped wave fetches at most job_limit jobs; the planned remainder spills to
a durable partition merged into the next wave's candidate pool. Because the
candidate priority (parent_seq, ordinal) is monotone across waves, the capped
run assigns every URL the SAME seq as the uncapped run — only wave numbers
and politeness clocks shift."""

import glob
import os

import pytest

from cloud_crawler_ray.oracle import crawl_oracle
from cloud_crawler_ray.pipelines.crawl import crawl
from cloud_crawler_ray.spec import CrawlSpec

from tests import webs
from tests.test_crawl_engine import assert_parity, run_both


def test_job_limit_parity(ray_session, tmp_path):
    web, seeds = webs.branching_web(branch=3, depth=3)
    spec = CrawlSpec(job_limit=5, delay=0.1)
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)
    # the cap is real: 40 pages at limit 5 needs >= 8 waves
    assert handle.waves >= 8
    assert os.path.isdir(os.path.join(str(tmp_path / "out"), "spill"))


def test_job_limit_preserves_uncapped_seq_order(ray_session, tmp_path):
    """Capped and uncapped runs fetch identical (seq, url) sequences and
    identical documents; only wave/fetch_time differ."""
    web, seeds = webs.branching_web(branch=3, depth=2)
    capped = crawl(web, seeds, CrawlSpec(job_limit=4), str(tmp_path / "cap"))
    free = crawl(web, seeds, CrawlSpec(), str(tmp_path / "free"))

    def order(h):
        return [(r["seq"], r["url"]) for r in h.crawl_order().take_all()]

    assert order(capped) == order(free)

    def docs(h):
        out = {}
        for r in h.documents().take_all():
            out[r["doc_id"]] = [
                (s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"] or []
            ]
        return out

    assert docs(capped) == docs(free)
    from tests.webs import seen_set
    assert seen_set(capped) == seen_set(free)


def test_job_limit_distributed_planner(ray_session, tmp_path):
    web, seeds = webs.branching_web(branch=3, depth=2)
    spec = CrawlSpec(job_limit=4)
    res = crawl_oracle(web, seeds, spec)
    handle = crawl(web, seeds, spec, str(tmp_path / "out"), small_wave_threshold=0)
    assert_parity(res, handle)


def test_job_limit_curl_mode(ray_session, tmp_path):
    """url-list (non-follow) crawl drains the seed list in capped waves."""
    web, _ = webs.branching_web(branch=2, depth=2)
    from cloud_crawler_ray.synthweb import page_url

    seeds = [page_url(n) for n in ("r", "r-0", "r-1", "r-0-0", "r-0-1", "r-1-0", "r-1-1")]
    spec = CrawlSpec(follow_links=False, job_limit=3)
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)
    assert handle.n_jobs == len(seeds)
    assert handle.waves == 3  # 3 + 3 + 1


def _prefer_branch_2(job: dict) -> int:
    return 1 if "/r-2" in job["url"] else 0


def test_priority_queue_ordering(ray_session, tmp_path):
    """priority_fn orders each wave's jobs (priority DESC, then BFS order) —
    the north-rule priority-queue surface; engine matches oracle exactly."""
    web, seeds = webs.branching_web(branch=3, depth=2)
    spec = CrawlSpec(priority_fn=_prefer_branch_2, delay=0.1)
    res, handle = run_both(web, seeds, spec, tmp_path)
    assert_parity(res, handle)
    seq = {r["url"].rsplit("/", 1)[1]: r["seq"] for r in handle.crawl_order().take_all()}
    # in wave 1 the priority-1 branch root fetches before its siblings
    assert seq["r-2"] < seq["r-0"] < seq["r-1"]


def test_priority_queue_distributed(ray_session, tmp_path):
    web, seeds = webs.branching_web(branch=3, depth=2)
    spec = CrawlSpec(priority_fn=_prefer_branch_2)
    res = crawl_oracle(web, seeds, spec)
    handle = crawl(web, seeds, spec, str(tmp_path / "out"), small_wave_threshold=0)
    assert_parity(res, handle)


@pytest.mark.parametrize(
    "small_wave_threshold", [100_000, 0], ids=["local", "distributed"]
)
def test_priority_with_job_limit_is_best_first(ray_session, tmp_path, small_wave_threshold):
    """With a cap, the kept jobs are the TOP-priority ones; the rest spill —
    on either planner."""
    web, seeds = webs.branching_web(branch=3, depth=2)
    spec = CrawlSpec(priority_fn=_prefer_branch_2, job_limit=2)
    res, handle = run_both(
        web, seeds, spec, tmp_path, small_wave_threshold=small_wave_threshold
    )
    assert_parity(res, handle)
    order = [
        r["url"].rsplit("/", 1)[1]
        for r in sorted(handle.crawl_order().take_all(), key=lambda r: r["seq"])
    ]
    # wave 0: r; wave 1 (cap 2): r-2 first (priority), then r-0; r-1 spills
    # and is outranked next wave by r-2's children (also priority-1)
    assert order[:3] == ["r", "r-2", "r-0"]
    assert order.index("r-1") > order.index("r-2-0")


def test_job_limit_resume_mid_spill(ray_session, tmp_path):
    """Kill after a capped wave committed (spill pending on disk): resume
    must drain the spill and match the oracle exactly."""
    web, seeds = webs.branching_web(branch=3, depth=3)
    spec = CrawlSpec(job_limit=5, delay=0.1)
    out = str(tmp_path / "out")
    partial = crawl(web, seeds, spec, out, max_waves=3)
    assert glob.glob(os.path.join(out, "spill", "wave=*", "*.parquet"))
    resumed = crawl(web, seeds, spec, out, resume=True)
    res = crawl_oracle(web, seeds, spec)
    assert_parity(res, resumed)


def test_job_limit_resume_uncommitted_spill_wave(ray_session, tmp_path):
    """Crash mid-wave AFTER the spill partition was written but BEFORE the
    lineage marker: the orphan spill must be purged and recomputed."""
    import shutil

    web, seeds = webs.branching_web(branch=3, depth=3)
    spec = CrawlSpec(job_limit=5)
    out = str(tmp_path / "out")
    crawl(web, seeds, spec, out, max_waves=4)
    markers = sorted(glob.glob(os.path.join(out, "lineage", "wave=*.json")))
    os.remove(markers[-1])  # wave 3 uncommitted; its spill/raw stay on disk

    resumed = crawl(web, seeds, spec, out, resume=True)
    res = crawl_oracle(web, seeds, spec)
    assert_parity(res, resumed)
