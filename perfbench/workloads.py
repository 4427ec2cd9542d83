"""The benchmark's workloads: seeded synthetic webs, seed lists and specs.

Every input is a pure function of (workload name, seed, size): the crawl
engine receives only the generated web and the seed list. A seed changes
page latencies and link targets, never the page or link counts, so every
seed crawls the same number of jobs.

Hooks live in this importable module so that Ray workers unpickle them by
reference.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from cloud_crawler_ray.spec import CrawlSpec
from cloud_crawler_ray.synthweb import (
    FakePage,
    ProceduralWeb,
    SkewedWebParams,
    web_table,
)


def score_hook(page: dict) -> dict:
    """Per-page scoring: quality counts + rolling fingerprint over the text
    spans (the training-data analysis a crawl runs on every page)."""
    from cloud_crawler_ray.functions.text import quality_counts, rolling_fingerprint

    text = " ".join(s["text"] for s in page["spans"] if s["kind"] == "text")
    q = quality_counts(text)
    return {"pages": 1, "tokens": q["n_tokens"], "fp_parity": rolling_fingerprint(text) & 1}


def count_hook(page: dict) -> dict:
    """Counter-only hook: one increment per page, no text work."""
    return {"pages": 1}


@dataclass
class Workload:
    name: str
    web: object  # ProceduralWeb or a WEB_SCHEMA pa.Table
    seeds: list[str]
    spec: CrawlSpec


def bfs_skewed(seed: int, n_pages: int) -> Workload:
    """BFS over the procedural skewed web: one host holds half the pages,
    8 text runs of 24 words per page, the scoring hook on every page."""
    web = ProceduralWeb(
        SkewedWebParams(
            n_pages=n_pages,
            n_hosts=max(8, min(n_pages // 250, 400)),
            branching=3,
            seed=seed,
            texts_per_page=8,
            words_per_text=24,
        )
    )
    spec = CrawlSpec(delay=0.02, on_every_page=score_hook)
    return Workload("bfs_skewed", web, web.seeds(), spec)


# link_dense page shape: each host is an 11-ary tree of 1,400 pages, so the
# widest wave holds 4 x 1,267 leaf pages; each page links its tree children,
# BACK_LINKS distinct random pages of lower index (found in the same or an
# earlier wave), and a fixed set of variants of them
_LD_HOSTS = 4
_LD_BRANCHING = 11
_LD_BACK_LINKS = 19
_LD_MISSING_EVERY = 4  # every 4th page links one page the web serves as a 404


def link_dense_pages(seed: int, n_pages: int) -> tuple[list[FakePage], dict[str, str]]:
    """Pages and robots.txt bodies of the link-dense web. Each page carries
    ~25 same-host links — tree children, back-links to distinct random
    earlier pages (already found), fragment and case variants of them (same canonical
    URL), a query variant the web does not serve, a 404 page every
    ``_LD_MISSING_EVERY`` pages — plus two links into the host's
    robots-disallowed ``/private`` subtree and one cross-host href (outside
    the crawl's domain)."""
    per_host = n_pages // _LD_HOSTS
    hosts = [f"dense{h}.example.com" for h in range(_LD_HOSTS)]
    pages: list[FakePage] = []
    for h, host in enumerate(hosts):
        rng = random.Random(f"{seed}:{h}")
        for i in range(per_host):
            first = i * _LD_BRANCHING + 1
            links = [f"p{c}" for c in range(first, min(first + _LD_BRANCHING, per_host))]
            back = rng.sample(range(i), min(_LD_BACK_LINKS, i))  # distinct
            links += [f"p{j}" for j in back]
            v = [back[k % len(back)] if back else 0 for k in range(5)]
            links += [f"p{v[0]}#top", f"p{v[1]}#s{i % 5}"]  # fragments
            links.append(f"P{v[2]}")  # case variant
            links.append(f"p{i // 64}?sort=asc")  # query variant: not served
            if i % _LD_MISSING_EVERY == 0:
                links.append(f"gone{i}")
            links += [f"private/p{v[3]}", f"private/p{v[4]}"]  # robots
            other = hosts[(h + 1 + rng.randrange(_LD_HOSTS - 1)) % _LD_HOSTS]
            pages.append(
                FakePage(
                    name=f"p{i}",
                    host=host,
                    links=links,
                    hrefs=[f"http://{other}/p{rng.randrange(per_host)}"],
                    texts=[f"page {i}"],
                    latency_ms=5 + rng.randrange(25),
                )
            )
            if i % _LD_MISSING_EVERY == 0:
                pages.append(FakePage(name=f"gone{i}", host=host, status=404, texts=["gone"]))
    robots = {host: "User-agent: *\nDisallow: /private\n" for host in hosts}
    return pages, robots


def link_dense(seed: int, n_pages: int) -> Workload:
    """BFS over a materialized web_table of FakePages with ~25 links per
    page, robots obeyed; the last wave's 107,692 candidate rows (for every
    seed) cross the engine's default 100,000-row small-wave threshold."""
    pages, robots = link_dense_pages(seed, n_pages)
    web = web_table(pages, robots=robots)
    seeds = sorted({f"http://{p.host}/p0" for p in pages})
    spec = CrawlSpec(delay=0.02, obey_robots_txt=True, on_every_page=count_hook)
    return Workload("link_dense", web, seeds, spec)


BUILDERS = {"bfs_skewed": bfs_skewed, "link_dense": link_dense}

# crawl size per workload: a crawl takes a few seconds at 4 logical CPUs,
# so that set-up, three crawls, the serial oracle and the checks fit a run
SIZES = {"bfs_skewed": 3000, "link_dense": 4 * 1400}
# the untimed warm-up crawl: a web of the same shape whose widest wave still
# exceeds the 256 jobs the engine fetches on the driver, so Ray Data's fetch
# path starts too
WARMUP_SIZES = {"bfs_skewed": 1000, "link_dense": 4 * 200}


def build(name: str, seed: int, n_pages: int | None = None) -> Workload:
    return BUILDERS[name](seed, SIZES[name] if n_pages is None else n_pages)


def web_digest(wl: Workload, sample_every: int = 37) -> str:
    """SHA-256 over the seed list and the served rows of every
    ``sample_every``-th page: equal digests mean the same inputs."""
    h = hashlib.sha256()
    for u in wl.seeds:
        h.update(u.encode())
        h.update(b"\n")
    if isinstance(wl.web, ProceduralWeb):
        urls = wl.web.all_urls()[::sample_every]
        rows = [wl.web.lookup(u) for u in urls]
    else:
        rows = wl.web.slice(0).to_pylist()[::sample_every]
    for r in rows:
        for k in ("url", "status", "body", "latency_ms"):
            v = r[k]
            h.update(v if isinstance(v, bytes) else str(v).encode())
            h.update(b"\x1f")
    return h.hexdigest()
