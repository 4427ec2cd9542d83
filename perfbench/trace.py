"""Span recording from outside the engine.

``Tracer`` keeps spans in memory: name, start, end and the enclosing span.
``traced_crawl`` wraps the crawl driver's calls into each layer for the
duration of one crawl; ``replay_block`` times the per-page kernels that run
inside Ray workers by running the engine's ``FetchExtract`` in-process on a
page sample, each kernel wrapped as a nested span. Nothing here edits the
engine: wrappers are installed on module and class attributes and removed
afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on one thread, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, parent, name, self.clock(), 0.0))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid].end = self.clock()

    def wrap(self, name: str, fn, on_result=None) -> "_Traced":
        return _Traced(self, name, fn, on_result)

    def wrap_method(self, name: str, fn):
        """Like ``wrap`` for a function stored on a class (binds ``self``)."""

        @functools.wraps(fn)
        def method(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return method


def _identity(x):
    return x


class _Traced:
    """Callable recording a span around *fn*. Pickles as the bare *fn*, so a
    copy shipped to a Ray worker runs untraced and carries no tracer."""

    def __init__(self, tracer: Tracer, name: str, fn, on_result=None):
        functools.update_wrapper(self, fn)
        self.tracer, self.name, self.fn, self.on_result = tracer, name, fn, on_result

    def __call__(self, *args, **kwargs):
        with self.tracer.span(self.name):
            out = self.fn(*args, **kwargs)
        if self.on_result is not None:
            self.on_result(out, args)
        return out

    def __reduce__(self):
        return (_identity, (self.fn,))


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed self time: each span's duration minus the
    durations of its direct children."""
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.dur
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.dur - child_total[s.id]
    return dict(out)


def total_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed duration (children included)."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.dur
    return dict(out)


def covered(spans: list[Span], start: float, end: float) -> float:
    """Seconds of [start, end] covered by top-level spans (which never
    overlap: spans nest on one thread)."""
    return sum(
        max(0.0, min(s.end, end) - max(s.start, start)) for s in spans if s.parent is None
    )


class _Patcher:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


# ShardedState methods the driver calls; each is one batched RPC round
_STATE_METHODS = (
    "__init__", "check", "add", "get_clocks", "advance_clocks", "get_sched",
    "add_sched", "get_lat", "add_lat", "seen_count", "claim_frontier",
    "clear_claims", "shutdown",
)


@contextmanager
def traced_crawl(tracer: Tracer):
    """Wrap the crawl driver's calls into each layer. Span names are
    ``<layer>.<call>``; counters record wave kinds and candidate rows.

    - plan: ``_plan_wave_local`` (driver-side planner) and ``zip_with_index``
      (the distributed planner's execution, which pulls its admission and
      claim stages);
    - frontier: ``explode_children`` on the driver and ``_collect_if_small``
      (the execution that builds the next wave's frontier);
    - exec: Ray Data ``write_parquet`` executions (fetch + extract + writes)
      and the driver's in-process ``FetchExtract`` calls;
    - state: every ``ShardedState`` method;
    - politeness: ``slot_block`` on the driver;
    - storage: the driver's parquet and lineage JSON reads and writes.
    """
    import pyarrow.parquet as pq
    import ray.data as rd

    import cloud_crawler_ray.pipelines.crawl as crawl_mod
    import cloud_crawler_ray.stages.politeness as politeness
    from cloud_crawler_ray.state.shards import ShardedState

    counts = tracer.counts
    threshold = inspect.signature(crawl_mod.crawl).parameters["small_wave_threshold"].default

    def on_local_plan(out, args):
        counts["candidates"] += args[0].num_rows
        if out[0].num_rows:
            counts["local_waves"] += 1

    def on_distributed_plan(out, args):
        if out[1]:
            counts["distributed_waves"] += 1

    # candidate rows reach a plan through one of three calls: the driver-side
    # planner's input, or a frontier bound for the distributed planner —
    # built on the driver (explode) or in Ray Data (collect)
    def on_explode(out, args):
        if out.num_rows > threshold:
            counts["candidates"] += out.num_rows

    def on_collect(out, args):
        if out[0] is None:
            counts["candidates"] += out[1].count()  # materialized: metadata

    class TracedFetchExtract(crawl_mod.FetchExtract):
        def __call__(self, batch):
            with tracer.span("exec.driver_fetch"):
                return super().__call__(batch)

    p = _Patcher()
    p.set(crawl_mod, "_plan_wave_local",
          tracer.wrap("plan.local", crawl_mod._plan_wave_local, on_local_plan))
    p.set(crawl_mod, "zip_with_index",
          tracer.wrap("plan.distributed", crawl_mod.zip_with_index, on_distributed_plan))
    p.set(crawl_mod, "_collect_if_small",
          tracer.wrap("frontier.collect", crawl_mod._collect_if_small, on_collect))
    p.set(crawl_mod, "explode_children",
          tracer.wrap("frontier.explode", crawl_mod.explode_children, on_explode))
    p.set(crawl_mod, "FetchExtract", TracedFetchExtract)
    p.set(crawl_mod, "write_json", tracer.wrap("storage.lineage", crawl_mod.write_json))
    p.set(politeness, "slot_block", tracer.wrap("politeness.slot_block", politeness.slot_block))
    p.set(rd.Dataset, "write_parquet",
          tracer.wrap_method("exec.ray_data", rd.Dataset.write_parquet))
    p.set(pq, "write_table", tracer.wrap("storage.parquet", pq.write_table))
    p.set(pq, "read_table", tracer.wrap("storage.parquet", pq.read_table))
    for m in _STATE_METHODS:
        p.set(ShardedState, m, tracer.wrap_method(f"state.{m}", getattr(ShardedState, m)))
    try:
        yield
    finally:
        p.restore()


def replay_block(tracer: Tracer, web_ref, spec, sample):
    """Run one ``FetchExtract`` block on the sample with its kernels wrapped
    (spans nest under ``stages.fetch.block``, so the block's self time is
    its assembly cost), then ``explode_children`` on the block's output.
    Counts the extracted spans and links; returns the block's output."""
    import cloud_crawler_ray.canon as canon
    import cloud_crawler_ray.stages.fetch as fetch
    from cloud_crawler_ray.oracle import LinkAdmission
    from cloud_crawler_ray.stages.frontier_ops import explode_children

    def on_extract(ex, args):
        tracer.counts["spans"] += len(ex.spans)
        tracer.counts["links"] += len(ex.links)

    if spec.on_every_page is not None:
        spec = dataclasses.replace(
            spec, on_every_page=tracer.wrap("functions.text.hook", spec.on_every_page)
        )
    fx = fetch.FetchExtract(web_ref, spec, 0)
    p = _Patcher()
    p.set(fetch, "fetch_chain", tracer.wrap("oracle.fetch_chain", fetch.fetch_chain))
    p.set(fetch, "extract_page",
          tracer.wrap("extract.extract_page", fetch.extract_page, on_extract))
    p.set(canon, "canonical_urls", tracer.wrap("canon.canonical_urls", canon.canonical_urls))
    p.set(LinkAdmission, "admit", tracer.wrap_method("oracle.admit", LinkAdmission.admit))
    p.set(fx.net, "lookup", tracer.wrap("synthweb.lookup", fx.net.lookup))
    try:
        with tracer.span("stages.fetch.block"):
            out = fx(sample)
    finally:
        p.restore()
    with tracer.span("stages.frontier_ops.explode_children"):
        explode_children(out)
    return out


def replay_state(tracer: Tracer, keys: list[str], n_shards: int) -> None:
    """Time the URL-seen layer on *keys*: check, add and claim against fresh
    shards (one batched RPC per shard each)."""
    from cloud_crawler_ray.state.shards import ShardedState

    state = ShardedState(n_shards)
    try:
        state.seen_count()  # actors are up before timing
        zeros = [0] * len(keys)
        with tracer.span("state.check"):
            state.check(keys)
        with tracer.span("state.add"):
            state.add(keys)
        with tracer.span("state.claim_frontier"):
            state.claim_frontier(1, keys, zeros, zeros)
    finally:
        state.shutdown()
