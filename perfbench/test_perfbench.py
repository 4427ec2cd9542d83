"""Tests of the benchmark's own code (no Ray session needed).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pickle
import statistics

import pyarrow as pa
import pytest

from perfbench import check, measure, query_set, trace, workloads

SMALL = {"bfs_skewed": 300, "link_dense": 4 * 73}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_seed_determines_inputs(name):
    a = workloads.web_digest(workloads.build(name, 7, SMALL[name]))
    b = workloads.web_digest(workloads.build(name, 7, SMALL[name]))
    c = workloads.web_digest(workloads.build(name, 8, SMALL[name]))
    assert a == b
    assert a != c


def test_link_dense_shape_is_seed_independent():
    def shape(seed):
        pages, robots = workloads.link_dense_pages(seed, 4 * 73)
        return [(p.host, p.name, len(p.links), len(p.hrefs), p.status) for p in pages], robots

    assert shape(1) == shape(2)


def test_median():
    # even count: mean of the middle two; an outlier does not move it
    assert measure.median([10.0, 12.0, 11.0, 13.0, 9.0, 30.0, 10.5, 11.5, 12.5, 10.0]) == 11.25
    assert measure.median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        measure.median([])


def test_failed_share():
    assert measure.failed_share(0, 3) == 0.0
    assert measure.failed_share(1, 4) == 0.25
    assert measure.failed_share(4, 4) == 1.0
    for failed, attempted in ((0, 0), (5, 4), (-1, 4)):
        with pytest.raises(ValueError):
            measure.failed_share(failed, attempted)


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_from_nested_spans():
    clock = _FakeClock()
    tr = trace.Tracer(clock)
    with tr.span("plan"):  # 0..10
        clock.t = 2.0
        with tr.span("state"):  # 2..5
            clock.t = 5.0
        with tr.span("politeness"):  # 5..6
            with tr.span("state"):  # 5..5.5
                clock.t = 5.5
            clock.t = 6.0
        clock.t = 10.0
    clock.t = 12.0
    with tr.span("exec"):  # 12..20
        clock.t = 20.0
    st = trace.self_times(tr.spans)
    assert st == pytest.approx({"plan": 6.0, "state": 3.5, "politeness": 0.5, "exec": 8.0})
    assert trace.total_times(tr.spans)["state"] == pytest.approx(3.5)
    # top-level spans cover 10 + 8 of the 20 s window; clipping at the edges
    assert trace.covered(tr.spans, 0.0, 20.0) == pytest.approx(18.0)
    assert trace.covered(tr.spans, 5.0, 15.0) == pytest.approx(8.0)


def test_traced_wrapper_records_and_pickles_bare():
    tr = trace.Tracer()
    seen = []
    wrapped = tr.wrap("kernel", statistics.median, on_result=lambda out, args: seen.append(out))
    assert wrapped([1, 2, 3]) == 2
    assert [s.name for s in tr.spans] == ["kernel"] and seen == [2]
    assert wrapped.__name__ == "median"
    assert pickle.loads(pickle.dumps(wrapped)) is statistics.median


def test_span_rows_ignore_document_order():
    from cloud_crawler_ray.schemas import SPAN_TYPE

    def spans(*texts):
        return [{"kind": "text", "text": t, "media_ref": "", "offset": i} for i, t in enumerate(texts)]

    docs = [("a", spans("x", "y")), ("b", spans("z"))]
    one = check._span_rows(
        pa.array([d for d, _ in docs]), pa.array([s for _, s in docs], pa.list_(SPAN_TYPE))
    )
    two = check._span_rows(
        pa.array([d for d, _ in docs[::-1]]),
        pa.array([s for _, s in docs[::-1]], pa.list_(SPAN_TYPE)),
    )
    assert one.equals(two)
    swapped = check._span_rows(
        pa.array(["a", "b"]), pa.array([spans("y", "x"), spans("z")], pa.list_(SPAN_TYPE))
    )
    assert not one.equals(swapped)


def test_query_tables_follow_the_seed(tmp_path):
    import pyarrow.parquet as pq

    dirs = {k: str(tmp_path / k) for k in ("a", "b", "c")}
    for k, seed in (("a", 4), ("b", 4), ("c", 5)):
        query_set.make_tables(seed, dirs[k])

    def table(k, name):
        return pq.read_table(f"{dirs[k]}/{name}.parquet")

    for name in ("documents", "events", "embeddings", "customer", "orders", "lineitem"):
        assert table("a", name).equals(table("b", name))
        assert not table("a", name).equals(table("c", name))


def test_query_set_names_one_query_per_module():
    import inspect

    from cloud_crawler_ray.pipelines.queries import QUERIES

    assert len(set(query_set.MODULES)) == len(query_set.QUERY_SET)
    for module, name in query_set.QUERY_SET:
        assert f"ops.{module} import" in inspect.getsource(QUERIES[name])


def test_module_seconds_sums_each_module():
    per_query = {q: float(i + 1) for i, (_, q) in enumerate(query_set.QUERY_SET)}
    out = query_set.module_seconds(per_query)
    assert out["pipelines.queries.textstats_s"] == 1.0
    assert out["pipelines.queries.lm_s"] == float(len(query_set.QUERY_SET))
    n = len(query_set.QUERY_SET)
    assert out["pipelines.queries.suite_s"] == n * (n + 1) / 2
    assert len(out) == len(set(query_set.MODULES)) + 1
