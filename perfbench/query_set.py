"""The query layer: a fixed set of registry queries over seeded tables.

One query per ops module that has a query reading only the star-schema
tables (``multimodal`` and ``png`` have none: all their queries read the
crawl fixture the registry keeps under ``/tmp``). The tables are generated
from the seed inside the run directory, in the shapes of the repository's
sf0.01 test data, so no run reads data outside its checkout. Each result is
checked against the query's DuckDB oracle; oracles that read a serial twin
table get that table computed here, from the same generated inputs.
"""

from __future__ import annotations

import os
import time
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# (implementing ops module, registry query)
QUERY_SET = (
    ("textstats", "word_count"),
    ("dedup", "exact_dedup"),
    ("curation", "quality_gate"),
    ("sampling", "train_test_split"),
    ("similarity", "knn_cosine"),
    ("sketches", "hll_distinct"),
    ("windows", "windowed_count"),
    ("joins", "customers_no_orders"),
    ("pareto", "skyline_orders"),
    ("graph", "part_triangles"),
    ("bpe", "bpe_merges"),
    ("classify", "nb_classify"),
    ("dsir", "dsir_weights"),
    ("lm", "lm_score"),
)
MODULES = tuple(m for m, _ in QUERY_SET)

# sf0.01 row counts
N_DOCS, N_EVENTS, N_EMB, EMB_DIM = 500, 10_000, 500, 64
N_CUSTOMERS, N_ORDERS, N_PARTS, N_SUPPLIERS = 1_500, 15_000, 2_000, 100

_WORDS = (
    "the a of and to in is for on with data table scan join hash merge sort "
    "order part line batch stream window spark query row value filter group "
    "agg key small fast slow customer dup shard index plan cache crawl page "
    "link host token model score"
).split()
_LANGS = ("en", "en", "en", "de", "es", "fr", "zh")
_EVENT_TYPES = ("click", "view", "purchase", "signup", "error")
_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")


def _timestamps(start: datetime, offsets_s: np.ndarray) -> pa.Array:
    base = np.datetime64(start, "us")
    return pa.array(base + (offsets_s * 1e6).astype("timedelta64[us]"), pa.timestamp("us"))


def make_tables(seed: int, out_dir: str) -> dict[str, int]:
    """Write the documents, events, embeddings, customer, orders and
    lineitem tables for *seed* under *out_dir*; returns their row counts."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    n_words = rng.integers(8, 90, N_DOCS)
    texts = []
    for i, n in enumerate(n_words):
        if i and rng.random() < 0.05:  # exact duplicates for the dedup queries
            texts.append(texts[int(rng.integers(0, i))])
        else:
            texts.append(" ".join(rng.choice(_WORDS, n)))
    docs = pa.table({
        "doc_id": pa.array(np.arange(N_DOCS), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(rng.choice(_LANGS, N_DOCS), pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(N_DOCS)], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })

    ev_ts = np.sort(rng.uniform(0, 30 * 86400, N_EVENTS))
    events = pa.table({
        "event_id": pa.array(np.arange(N_EVENTS), pa.int64()),
        "ts": _timestamps(datetime(2024, 1, 1), ev_ts),
        "user_id": pa.array(rng.integers(0, 150, N_EVENTS), pa.int64()),
        "event_type": pa.array(rng.choice(_EVENT_TYPES, N_EVENTS), pa.string()),
        "value": pa.array(np.round(rng.uniform(1, 200, N_EVENTS), 2), pa.float64()),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, N_EVENTS)]),
    })

    vecs = rng.normal(0, 0.1, (N_EMB, EMB_DIM)).astype(np.float32)
    emb = pa.table({
        "vec_id": pa.array(np.arange(N_EMB), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, N_EMB), pa.int32()),
    })

    customer = pa.table({
        "c_custkey": pa.array(np.arange(N_CUSTOMERS), pa.int64()),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(N_CUSTOMERS)]),
        "c_nationkey": pa.array(rng.integers(0, 25, N_CUSTOMERS), pa.int32()),
        "c_acctbal": pa.array(np.round(rng.uniform(-999, 9999, N_CUSTOMERS), 2)),
        "c_mktsegment": pa.array(rng.choice(_SEGMENTS, N_CUSTOMERS), pa.string()),
    })

    # two thirds of the customers order, so some have no orders
    o_days = rng.integers(0, 7 * 365, N_ORDERS)
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(N_ORDERS), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, 2 * N_CUSTOMERS // 3, N_ORDERS), pa.int64()),
        "o_orderstatus": pa.array(rng.choice(("F", "O", "P"), N_ORDERS), pa.string()),
        "o_totalprice": pa.array(np.round(rng.uniform(1000, 400_000, N_ORDERS), 2)),
        "o_orderdate": _timestamps(datetime(1992, 1, 1), o_days * 86400.0),
        "o_orderpriority": pa.array(rng.choice(_PRIORITIES, N_ORDERS), pa.string()),
    })

    # 1..7 lines per order; one line in seven names one of 60 popular
    # parts, so some pairs of parts are ordered together more than once
    # (the part graph's edges)
    lines = rng.integers(1, 8, N_ORDERS)
    n_li = int(lines.sum())
    l_order = np.repeat(np.arange(N_ORDERS), lines)
    l_num = np.concatenate([np.arange(1, k + 1) for k in lines])
    l_part = np.where(rng.random(n_li) < 0.15, rng.integers(0, 60, n_li),
                      rng.integers(0, N_PARTS, n_li))
    qty = rng.integers(1, 51, n_li).astype(np.float64)
    ship = o_days[l_order] + rng.integers(1, 122, n_li)
    lineitem = pa.table({
        "l_orderkey": pa.array(l_order, pa.int64()),
        "l_partkey": pa.array(l_part, pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, N_SUPPLIERS, n_li), pa.int64()),
        "l_linenumber": pa.array(l_num, pa.int32()),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(np.round(qty * rng.uniform(900, 2000, n_li), 2)),
        "l_discount": pa.array(np.round(rng.integers(0, 11, n_li) / 100, 2)),
        "l_tax": pa.array(np.round(rng.integers(0, 9, n_li) / 100, 2)),
        "l_returnflag": pa.array(rng.choice(("A", "N", "R"), n_li), pa.string()),
        "l_linestatus": pa.array(rng.choice(("F", "O"), n_li), pa.string()),
        "l_shipdate": _timestamps(datetime(1992, 1, 1), ship * 86400.0),
    })

    tables = {"documents": docs, "events": events, "embeddings": emb,
              "customer": customer, "orders": orders, "lineitem": lineitem}
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    return {name: t.num_rows for name, t in tables.items()}


def _frame(result):
    import pandas as pd
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    if not isinstance(result, pd.DataFrame):
        raise TypeError(f"query returned {type(result).__name__}")
    return result


def _normalized(df):
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def run_queries(sf_dir: str) -> tuple[dict[str, float], dict[str, object]]:
    """Run every query of the set once, in order; each timing covers the
    call and collecting its result on the driver. Returns (seconds per
    query, result frame per query)."""
    from cloud_crawler_ray.pipelines.queries import QUERIES

    seconds, frames = {}, {}
    for _, name in QUERY_SET:
        t0 = time.perf_counter()
        frames[name] = _frame(QUERIES[name](sf_dir))
        seconds[name] = time.perf_counter() - t0
    return seconds, frames


def module_seconds(per_query: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from per-query seconds: the time of each
    implementing module's queries, and the whole set's."""
    out = {f"pipelines.queries.{m}_s": 0.0 for m in MODULES}
    for m, q in QUERY_SET:
        out[f"pipelines.queries.{m}_s"] += per_query[q]
    out["pipelines.queries.suite_s"] = sum(per_query[q] for _, q in QUERY_SET)
    return out


def check(sf_dir: str, twin_dir: str, frames: dict[str, object]) -> list[str]:
    """Mismatches between each query's result and its DuckDB oracle on the
    same tables (columns by name, rows in any order, values exactly)."""
    import duckdb

    from cloud_crawler_ray.pipelines import serial_twins
    from cloud_crawler_ray.pipelines.queries import ORACLE_SQL

    os.makedirs(twin_dir, exist_ok=True)
    docs = None
    bad = []
    with duckdb.connect() as con:
        for f in sorted(os.listdir(sf_dir)):
            con.execute(f"CREATE VIEW {f.removesuffix('.parquet')} AS "
                        f"SELECT * FROM '{os.path.join(sf_dir, f)}'")
        for _, name in QUERY_SET:
            sql = ORACLE_SQL[name]
            if serial_twins.TWIN_DIR in sql:  # oracle reads a serial twin table
                if name in serial_twins._DOC_TWINS:
                    if docs is None:
                        docs = serial_twins._docs_table(sf_dir)
                    twin = serial_twins._DOC_TWINS[name](docs)
                else:
                    twin = serial_twins._SF_TWINS[name](sf_dir)
                pq.write_table(twin, os.path.join(twin_dir, f"{name}.parquet"))
                sql = sql.replace(serial_twins.TWIN_DIR, twin_dir)
            got, exp = _normalized(frames[name]), _normalized(con.execute(sql).df())
            if list(got.columns) != list(exp.columns):
                bad.append(f"{name}: columns {list(got.columns)} != oracle {list(exp.columns)}")
            elif len(got) != len(exp):
                bad.append(f"{name}: {len(got)} rows, oracle {len(exp)}")
            elif any(got[c].tolist() != exp[c].tolist() for c in got.columns):
                bad.append(f"{name}: values differ from the oracle")
    return bad


def clear_memo_caches() -> None:
    """Empty the registry's path-keyed memo caches, so a query does not
    time another query's cached derivation (``part_triangles`` shares its
    edge table with the part-graph family)."""
    from cloud_crawler_ray.pipelines import queries

    for cache in (queries._PART_EDGE_CACHE, queries._LSH_PAIR_CACHE,
                  queries._LW_EDGE_CACHE):
        cache.clear()
