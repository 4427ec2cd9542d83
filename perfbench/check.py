"""Reading a finished crawl back and checking it against the serial oracle.

The comparison covers the crawl order ``(wave, seq, url)``, the URL-seen
set, each document's span sequence ``(kind, text, media_ref, offset)`` and
the hook counters, against ``oracle.crawl_oracle`` on the same inputs.
"""

from __future__ import annotations

import pyarrow as pa


def _to_arrow(ds) -> pa.Table:
    # iterated to the end, not through to_arrow_refs(): that one then asks
    # for the schema, which can start a second execution (limit 1) whose
    # tasks are cancelled when it stops, and Ray 2.49 can abort this process
    # on such a cancellation ("Tried to complete task that was not pending")
    tables = [t for t in ds.iter_batches(batch_format="pyarrow", batch_size=None) if t.num_rows]
    if not tables:
        return ds.schema().base_schema.empty_table()
    return pa.concat_tables(tables, promote_options="default")


def read_back(handle) -> dict[str, pa.Table]:
    """Read the crawl through ``CrawlHandle`` into driver-side Arrow tables
    (the timed read: documents, URL-seen set, crawl order)."""
    return {
        "order": _to_arrow(handle.crawl_order()),
        "seen": _to_arrow(handle.seen_urls()),
        "docs": _to_arrow(handle.documents()),
    }


_SPAN_FIELDS = ("kind", "text", "media_ref", "offset")


_ORDER_SCHEMA = pa.schema([("wave", pa.int64()), ("seq", pa.int64()), ("url", pa.string())])


def _order_table(t: pa.Table) -> pa.Table:
    return t.select(_ORDER_SCHEMA.names).cast(_ORDER_SCHEMA).sort_by("seq")


def _span_rows(doc_ids: pa.Array, spans: pa.Array) -> pa.Table:
    """One row per (document, span), sorted: the documents' span sequences
    as a table ``Table.equals`` can compare."""
    import pyarrow.compute as pc

    flat = pc.list_flatten(spans)
    cols = {"doc_id": pc.take(doc_ids, pc.list_parent_indices(spans)).cast(pa.string())}
    for f in _SPAN_FIELDS:
        col = pc.struct_field(flat, f)
        cols[f] = col.cast(pa.int64() if f == "offset" else pa.string())
    t = pa.table(cols)
    return t.sort_by([(c, "ascending") for c in ("doc_id", "offset", "kind", "text", "media_ref")])


class Expected:
    """The oracle's outputs in the shapes ``compare`` checks."""

    def __init__(self, res):
        from cloud_crawler_ray.schemas import SPAN_TYPE

        self.order = _order_table(
            pa.Table.from_pylist(
                [dict(zip(_ORDER_SCHEMA.names, r)) for r in res.crawl_order], _ORDER_SCHEMA
            )
        )
        self.seen = sorted(res.seen)
        self.doc_ids = sorted(d["doc_id"] for d in res.documents)
        self.spans = _span_rows(
            pa.array([d["doc_id"] for d in res.documents], pa.string()),
            pa.array([d["spans"] for d in res.documents], pa.list_(SPAN_TYPE)),
        )
        self.counters = {k: int(v) for k, v in res.counters.items()}
        self.n_jobs = len(res.crawl_order)


def compare(exp: Expected, got: dict[str, pa.Table], counters: dict[str, int]) -> list[str]:
    """Mismatches between a crawl's read-back and the oracle (empty = equal)."""
    bad = []
    order = _order_table(got["order"])
    if not order.equals(exp.order):
        bad.append(f"crawl order differs ({order.num_rows} rows, oracle {exp.n_jobs})")
    seen = sorted(got["seen"].column("canonical_url").to_pylist())
    if seen != exp.seen:
        bad.append(f"seen set differs ({len(seen)} urls, oracle {len(exp.seen)})")
    d = got["docs"]
    doc_ids = sorted(d.column("doc_id").to_pylist())
    if doc_ids != exp.doc_ids:
        bad.append(f"document ids differ ({len(doc_ids)} docs, oracle {len(exp.doc_ids)})")
    spans = _span_rows(d.column("doc_id").combine_chunks(), d.column("spans").combine_chunks())
    if not spans.equals(exp.spans):
        bad.append(f"document spans differ ({spans.num_rows} spans, oracle {exp.spans.num_rows})")
    if counters != exp.counters:
        bad.append(f"hook counters {counters} != oracle {exp.counters}")
    return bad
