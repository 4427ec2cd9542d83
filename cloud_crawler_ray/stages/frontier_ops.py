"""Frontier wave operators: in-wave dedup, committed-seen filter, child
expansion. All vectorized Arrow batch transforms.

- Dedup replaces the reference's queue serialization (first job to check the
  bloom filter wins, crawl_job.rb:96): the min (parent_seq, ordinal) row
  per canonical_url wins — deterministic first-wins, decided by claims
  registered on the state shards (below) or by ``_dedup_batch`` on the
  driver.
- The seen filter is the cross-wave anti-join against the sharded membership
  state (the Redis bloom analog), fused with the claim check into one
  batched call per shard per batch (``admit_frontier``), check-only —
  marking happens at wave commit (batch_crawl_job.rb:139-153). Being
  read-only, it runs on a task's copy of the driver's state while the
  state is unpromoted, and against the shard actors after.
- Child expansion explodes the fetch stage's already-admitted ``child_urls``
  lists into next-wave frontier rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd


def _dedup_batch(batch: pa.Table) -> pa.Table:
    """Within-batch dedup: keep min (parent_seq, ordinal) per canonical_url
    — exact on a whole driver-side frontier, a partial that shrinks the
    claim RPCs on a Dataset block."""
    order = pc.sort_indices(
        batch,
        sort_keys=[
            ("canonical_url", "ascending"),
            ("parent_seq", "ascending"),
            ("ordinal", "ascending"),
        ],
    )
    batch = batch.take(order)
    return batch.filter(_first_of_run_mask(batch.column("canonical_url")))


def _first_of_run_mask(keys) -> pa.Array:
    """Boolean mask keeping the first row of each equal-key run (input must
    be sorted by key) — vectorized neighbor comparison."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    n = len(keys)
    if n == 0:
        return pa.array([], pa.bool_())
    neq = pc.not_equal(keys.slice(1), keys.slice(0, n - 1))
    return pa.concat_arrays([pa.array([True]), neq.combine_chunks() if isinstance(neq, pa.ChunkedArray) else neq])


# Hash-shard floor for the groupby(shard) stages (host slotting and budgets,
# crawl_diff, the document semi-join, ops/dedup). A group-per-key groupby
# pays Ray's ~2 ms/group UDF overhead per distinct key; hashing to a bounded
# shard count keeps the per-group overhead constant while the per-shard work
# stays a vectorized sort+mask kernel.
_DEDUP_SHARDS = 64


def _cluster_shards(floor: int = _DEDUP_SHARDS) -> int:
    """Shard count scaled to the cluster: ~2 shards per CPU keeps every core
    busy in the per-shard stage and bounds per-shard size as the cluster
    (and the wave) grows — a fixed 64 would cap parallelism on a multi-node
    cluster and balloon per-shard sorts at 10^8-row waves."""
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(floor, 2 * ncpu)


# ---- claim-based in-wave dedup (no shuffle) --------------------------------
#
# A dedup groupby would move every candidate row through an all-to-all
# hash shuffle each wave. The claim protocol avoids it: whoever PRODUCES a
# candidate in a distributed-planned wave (the fetch task emitting
# children, the driver cutting the job_limit spill, the seeds pass)
# registers a first-wins claim — canonical_url → min (parent_seq, ordinal) —
# on the same state shards that hold the seen set (idempotent min-merge, so
# task retries are safe). The
# producing wave's execution is the barrier: by the time wave W+1 plans,
# every claim for it is committed.
# Planning then needs only a map-side filter (`admit_frontier`) that asks
# each key's shard "am I the claim winner, and is the key unseen?" — the
# in-wave dedup and the cross-wave anti-join in ONE batched RPC per shard
# per block, moving (key, 2 ints) instead of whole frontier rows.
# Registering writes the state from tasks, so only a promoted state takes
# claims from a fetch (and then from the driver for the spill, so a wave's
# claims are all or none); a wave planned while the state is still in the
# driver registers none, and the next distributed plan runs the fallback
# pass (`claim_candidates`), which promotes.


def _flat_children(batch: pa.Table):
    """(flat canonical, parent_seq, ordinal) numpy triples from a raw fetch
    block's child columns — shared by claim registration and explode."""
    batch = batch.combine_chunks()
    kids = batch.column("child_canonical_urls")
    if isinstance(kids, pa.ChunkedArray):
        kids = kids.combine_chunks()
    flat = pc.list_flatten(kids)
    counts = pc.list_value_length(kids).to_numpy(zero_copy_only=False)
    counts = np.nan_to_num(counts).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return flat, np.empty(0, np.int64), np.empty(0, np.int64), counts
    seqs = batch.column("seq").to_numpy(zero_copy_only=False).astype(np.int64)
    bases = (
        batch.column("child_ordinal_base").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    ordinals = (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(bases, counts)
    )
    return flat, np.repeat(seqs, counts), ordinals, counts


class ClaimChildren:
    """Passthrough over raw fetch parts: registers next-wave claims for
    every admitted child (canonical, parent seq, ordinal) on *state*, which
    must be promoted when it is pickled into a task (the registration is
    DONE when the call returns — the enclosing task's completion is the
    planning barrier)."""

    def __init__(self, state, next_wave: int):
        self.state = state
        self.next_wave = next_wave

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, pseqs, ords, _ = _flat_children(batch)
        self.state.claim_frontier(self.next_wave, flat.to_pylist(), pseqs, ords)
        return batch


def claim_candidates(ds: rd.Dataset, state, wave: int) -> rd.Dataset:
    """Fallback claim pass over already-exploded candidate rows (seed waves
    and resume replans, where no producing execution registered claims):
    partial in-batch dedup → claim RPCs → materialize (the barrier). Its
    tasks write to the state, so it promotes the state first."""
    state.promote()

    def claim(batch: pa.Table) -> pa.Table:
        batch = _dedup_batch(batch)
        state.claim_frontier(
            wave,
            batch.column("canonical_url").to_pylist(),
            batch.column("parent_seq").to_numpy(zero_copy_only=False),
            batch.column("ordinal").to_numpy(zero_copy_only=False),
        )
        return batch

    return ds.map_batches(claim, batch_format="pyarrow").materialize()


class AdmitFrontier:
    """map_batches callable: keep a candidate row iff it is its key's claim
    winner AND the key is not in the committed seen set — the in-wave dedup
    and the seen anti-join fused into one batched call per shard per block
    (``ShardedState.admit_frontier``). It only reads the state, so a task
    runs it on the read-only copy of an unpromoted state."""

    def __init__(self, state, wave: int):
        self.state = state
        self.wave = wave

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = _dedup_batch(batch)  # in-batch partial: shrink the calls
        if not batch.num_rows:
            return batch
        mask = self.state.admit_frontier(
            self.wave,
            batch.column("canonical_url").to_pylist(),
            batch.column("parent_seq").to_numpy(zero_copy_only=False),
            batch.column("ordinal").to_numpy(zero_copy_only=False),
        )
        return batch.filter(pa.array(mask, pa.bool_()))


def admit_frontier(ds: rd.Dataset, state, wave: int) -> rd.Dataset:
    return ds.map_batches(AdmitFrontier(state, wave), batch_format="pyarrow")


def explode_children(batch: pa.Table) -> pa.Table:
    """Fetch output rows → next-wave frontier candidates, pure Arrow/numpy:
    list_flatten for the URL/canonical/host lists (the canonical form and
    politeness host were computed ONCE by the fetch stage and stored as
    parallel list columns), numpy repeat/arange for parent columns and
    ordinals. Child ordinals were numbered per job by the fetch stage
    (child_ordinal_base), so (parent_seq, ordinal) is a strict total order
    within a wave even when a job's kept pages split across blocks. No
    Python loop remains."""
    batch = batch.combine_chunks()
    flat_canon, pseqs, ordinals, counts = _flat_children(batch)
    kids_col = batch.column("child_urls")
    if isinstance(kids_col, pa.ChunkedArray):
        kids_col = kids_col.combine_chunks()
    hosts_col = batch.column("child_hosts")
    if isinstance(hosts_col, pa.ChunkedArray):
        hosts_col = hosts_col.combine_chunks()
    total = int(counts.sum())
    if total == 0:
        return pa.table(
            {
                "url": pa.array([], pa.string()),
                "canonical_url": pa.array([], pa.string()),
                "host": pa.array([], pa.string()),
                "referer": pa.array([], pa.string()),
                "depth": pa.array([], pa.int32()),
                "parent_seq": pa.array([], pa.int64()),
                "ordinal": pa.array([], pa.int32()),
            }
        )
    depths = batch.column("depth").to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "url": pc.list_flatten(kids_col),
            "canonical_url": flat_canon,
            "host": pc.list_flatten(hosts_col),
            "referer": pc.take(
                batch.column("url"), pa.array(np.repeat(np.arange(len(depths)), counts))
            ),
            "depth": pa.array(np.repeat(depths + 1, counts).astype(np.int32)),
            "parent_seq": pa.array(pseqs),
            "ordinal": pa.array(ordinals.astype(np.int32)),
        }
    )
