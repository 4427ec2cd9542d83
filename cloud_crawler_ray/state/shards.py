"""Sharded crawl state: URL-seen membership + per-host politeness clocks.

The reference keeps this state in a master Redis instance (bloom filter
redis_url_bloomfilter.rb; implicit per-host pacing via sleep(delay)
batch_job.rb:178-183). Here it is hash-partitioned by key —
``StatePartition`` holds one partition of the exact seen set plus a Bloom
summary (the at-scale representation; exact set gives test-scale
exactness) and one partition of the host→virtual-clock map. The partitions
stay in the driver, and a Ray task that only reads them gets a read-only
copy; they move into ``StateShard`` actors when a task must write to them,
or once the crawl's committed jobs outgrow the driver (``ShardedState``).
Shard count scales with the cluster (256 shards on a 256-node cluster ⇒
~47 MB bloom per shard at 10^10 URLs, see filters.py memory math); all
calls are batched (one call per shard per wave-stage, not per URL).

Snapshot/restore supports per-partition checkpointing with lineage
(north_rule resumability).
"""

from __future__ import annotations

import pickle

import numpy as np
import ray

from .filters import BloomFilter


def shards_of(keys: list[str], n_shards: int) -> np.ndarray:
    """Vectorized shard routing (pandas' SipHash — deterministic across
    processes, ~30x faster than a per-key Python crc32 loop). Routing only
    needs within-run consistency; results never depend on the partition.

    CAUTION: keys must not contain NUL (\\x00). pandas' categorizing hasher
    factorizes object keys through a C-string hashtable that truncates at
    NUL, so NUL-keys sharing a prefix collapse into one category and the
    SAME key can route to different shards depending on its neighbors in
    the array — i.e. routing becomes block-content-dependent. Composite
    keys should join with a non-NUL separator (\\x1f, or a char the parts
    cannot contain)."""
    # imported here, not at module level: a StateShard actor imports this
    # module and never routes, and pandas would add to its start-up
    import pandas as pd

    if not keys:
        return np.empty(0, dtype=np.int64)
    arr = np.asarray(keys, dtype=object)
    return (pd.util.hash_array(arr) % n_shards).astype(np.int64)


def group_indices_by_shard(keys: list[str], n_shards: int) -> dict[int, np.ndarray]:
    """shard id → numpy indices of *keys* routed there (order-preserving)."""
    sh = shards_of(keys, n_shards)
    order = np.argsort(sh, kind="stable")
    sorted_sh = sh[order]
    bounds = np.flatnonzero(np.diff(sorted_sh)) + 1
    return {
        int(sorted_sh[s]): order[s:e]
        for s, e in zip(
            np.concatenate([[0], bounds]), np.concatenate([bounds, [len(sh)]])
        )
    } if len(sh) else {}


class StatePartition:
    """One partition of seen-set + host clocks: a plain object in the driver
    until ``ShardedState`` promotes it, then the body of a ``StateShard``
    actor — one implementation in both places.

    ``fresh`` lists the keys this partition inserted since the last
    ``take_fresh``: the batched check-and-update returns what was new (the
    DRUM pattern), so a wave's seen part stores each key once, in the wave
    that first marks it. It is transient like the claims: a snapshot leaves
    it out and ``restore`` clears it."""

    def __init__(
        self, shard_id: int, bloom_bits: int = 1 << 20, fields: dict | None = None
    ):
        if fields is not None:
            # every field of a driver-held partition, claims included — how
            # it moves into its actor
            self.__dict__.update(fields)
            return
        self.shard_id = shard_id
        self.seen: set[str] = set()
        self.bloom = BloomFilter(n_bits=bloom_bits)
        self.clocks: dict[str, int] = {}
        # per-host scheduled-page counts (max_pages_per_host budget); same
        # partitioning and commit discipline as the clocks
        self.sched: dict[str, int] = {}
        # per-host observed-latency (sum_ms, n_jobs) for adaptive politeness;
        # same partitioning and commit discipline as the clocks
        self.lat: dict[str, tuple[int, int]] = {}
        # transient per-wave first-wins claims (in-wave dedup without a
        # shuffle): wave → {canonical_url: min (parent_seq, ordinal)}.
        # Registered by candidate PRODUCERS (fetch tasks / the driver for a
        # job_limit spill / the fallback pass), consumed by admit_frontier
        # during the next wave's planning, cleared at that wave's commit.
        # Never checkpointed — a resumed plan re-registers via the fallback
        # claim pass.
        self.claims: dict[int, dict[str, tuple[int, int]]] = {}
        self.fresh: list[str] = []

    # ---- membership (the Redis bloom analog) ----
    def check(self, keys: list[str]) -> list[bool]:
        """True = unseen. Bloom fast-path, batched: a bloom miss is
        definitely unseen; a hit falls back to the exact set (no false
        positives at test scale, while exercising the at-scale data
        structure)."""
        return [
            not (hit and k in self.seen)
            for k, hit in zip(keys, self.bloom.contains_many(keys))
        ]

    def add(self, keys: list[str]) -> int:
        """Mark *keys* and list the ones not seen before as fresh, in first
        occurrence order; returns the seen count."""
        new = [k for k in dict.fromkeys(keys) if k not in self.seen]
        self.seen.update(new)
        self.bloom.add_many(new)
        self.fresh.extend(new)
        return len(self.seen)

    def take_fresh(self) -> list[str]:
        """The keys inserted since the last call, in insertion order; clears
        the list."""
        out, self.fresh = self.fresh, []
        return out

    def seen_count(self) -> int:
        return len(self.seen)

    # ---- in-wave frontier claims (dedup without a shuffle) ----
    def claim_frontier(
        self, wave: int, keys: list[str], pseqs: list[int], ords: list[int]
    ) -> None:
        """First-wins claim registration: per key keep the min (parent_seq,
        ordinal). Idempotent min-merge — task retries and duplicate
        registration converge to the same winner."""
        claims = self.claims.setdefault(wave, {})
        for k, p, o in zip(keys, pseqs, ords):
            cur = claims.get(k)
            if cur is None or (p, o) < cur:
                claims[k] = (p, o)

    def admit_frontier(
        self, wave: int, keys: list[str], pseqs: list[int], ords: list[int]
    ) -> list[bool]:
        """True = this row is its key's claim winner AND the key is unseen —
        the in-wave first-wins dedup and the cross-wave anti-join in one
        batched call. A key with no registered claim was never contested
        (degenerate single-producer case): seen check only."""
        claims = self.claims.get(wave, {})
        return [
            unseen and claims.get(k, (p, o)) == (p, o)
            for k, p, o, unseen in zip(keys, pseqs, ords, self.check(keys))
        ]

    def clear_claims(self, wave: int) -> None:
        self.claims.pop(wave, None)

    # ---- politeness clocks ----
    def advance_clocks(self, updates: dict[str, int]) -> None:
        for host, t in updates.items():
            self.clocks[host] = max(self.clocks.get(host, 0), t)

    def get_clocks(self, hosts: list[str]) -> dict[str, int]:
        return {h: self.clocks.get(h, 0) for h in hosts}

    # ---- per-host crawl budget (scheduled-page counts) ----
    def add_sched(self, updates: dict[str, int]) -> None:
        for host, n in updates.items():
            self.sched[host] = self.sched.get(host, 0) + int(n)

    def get_sched(self, hosts: list[str]) -> dict[str, int]:
        return {h: self.sched.get(h, 0) for h in hosts}

    # ---- per-host observed-latency stats (adaptive politeness) ----
    def add_lat(self, updates: dict[str, tuple[int, int]]) -> None:
        for host, (s, n) in updates.items():
            ps, pn = self.lat.get(host, (0, 0))
            self.lat[host] = (ps + int(s), pn + int(n))

    def get_lat(self, hosts: list[str]) -> dict[str, tuple[int, int]]:
        return {h: self.lat.get(h, (0, 0)) for h in hosts}

    # ---- checkpoint ----
    def snapshot(self) -> bytes:
        return pickle.dumps(
            {
                "shard_id": self.shard_id,
                "seen": self.seen,
                "clocks": self.clocks,
                "sched": self.sched,
                "lat": self.lat,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def restore(self, blob: bytes) -> None:
        state = pickle.loads(blob)
        self.seen = state["seen"]
        self.clocks = state["clocks"]
        self.sched = state.get("sched", {})
        self.lat = state.get("lat", {})
        self.fresh = []
        self.bloom = BloomFilter(n_bits=self.bloom.n_bits)
        self.bloom.add_many(list(self.seen))


# num_cpus=0, like PriorShard: a shard only answers batched calls, so it
# must hold no logical CPU that fetch tasks need (4 shards at 0.25 used to
# take the only CPU of a num_cpus=1 session), and its kill at crawl end
# frees none
StateShard = ray.remote(num_cpus=0)(StatePartition)


# the methods that change a partition: a task's read-only copy of the
# driver's state refuses them (ShardedState.__getstate__)
_WRITES = frozenset({
    "add", "advance_clocks", "add_sched", "add_lat", "claim_frontier",
    "clear_claims", "take_fresh", "restore",
})


class ShardedState:
    """The crawl's seen set, clocks, budgets, latency stats, claims and
    fresh-key lists, hash-partitioned into ``n_shards`` ``StatePartition``s.

    The partitions start in the driver process as plain objects, so a crawl
    whose waves are all planned on the driver starts no actor, and neither
    does a Ray task that only reads the state: pickling an unpromoted state
    (map_batches closures capture it) ships a read-only copy of its
    partitions, on which every read runs in the task and every write —
    and ``promote`` — raises, so a task never forks the state. The state
    moves into actors only when ``promote`` is called: one ``StateShard``
    actor per partition, constructed with every field, after which the
    state lives only in the actors and a pickle ships their handles. The
    crawl promotes before a
    task must write (the fallback claim pass, a resume replay) and
    once its committed job count passes the small-wave threshold, which
    also bounds the size of a task's copy. Every method batches per shard
    (one call per shard, never per key): a direct call on a partition
    before promotion, one ``.remote`` per shard and one ``ray.get`` after.
    ``take_fresh`` gathers the keys every partition inserted since its last
    call: after a wave's ``add``, its seen delta."""

    def __init__(self, n_shards: int, bloom_bits: int = 1 << 20):
        self.n_shards = n_shards
        self._parts: list[StatePartition] | None = [
            StatePartition(i, bloom_bits=bloom_bits) for i in range(n_shards)
        ]
        self._actors: list | None = None
        self._read_only = False

    @property
    def promoted(self) -> bool:
        return self._actors is not None

    def promote(self) -> None:
        """Move every partition into its own ``StateShard`` actor (no-op
        once promoted). Returns without waiting for the actors to start:
        calls on them queue until they are up, so the caller's next work
        overlaps their start-up."""
        if self._actors is not None:
            return
        self._refuse_on_copy("promote")
        self._actors = [
            StateShard.remote(p.shard_id, fields=vars(p)) for p in self._parts
        ]
        self._parts = None

    def __getstate__(self) -> dict:
        # promoted: the actor handles; unpromoted: a read-only copy of the
        # partitions (a copy of a copy stays read-only)
        return vars(self) | {"_read_only": not self.promoted}

    def _refuse_on_copy(self, method: str) -> None:
        if self._read_only:
            raise RuntimeError(
                f"ShardedState.{method} on a task's read-only copy of the "
                "driver's state: promote the state before the task runs"
            )

    def _call(self, method: str, args: dict[int, tuple]) -> dict:
        """{shard id: args} → {shard id: method(*args)} on those shards."""
        if method in _WRITES:
            self._refuse_on_copy(method)
        if self._actors is None:
            return {sid: getattr(self._parts[sid], method)(*a) for sid, a in args.items()}
        futs = [getattr(self._actors[sid], method).remote(*a) for sid, a in args.items()]
        return dict(zip(args, ray.get(futs)))

    def _each(self, method: str, *args) -> list:
        return list(self._call(method, dict.fromkeys(range(self.n_shards), args)).values())

    def _routed(self, method: str, keys: list[str], args_of) -> list[tuple[np.ndarray, object]]:
        """Route *keys* to their shards and call method(*args_of(idxs)) on
        each, idxs being the indices of that shard's keys; [(idxs, result)]."""
        groups = group_indices_by_shard(keys, self.n_shards)
        res = self._call(method, {sid: args_of(idxs) for sid, idxs in groups.items()})
        return [(idxs, res[sid]) for sid, idxs in groups.items()]

    def _keyed(self, method: str, keys: list[str]) -> list[tuple[np.ndarray, object]]:
        return self._routed(method, keys, lambda idxs: ([keys[i] for i in idxs],))

    def _claimed(
        self, method: str, wave: int, keys: list[str], pseqs, ords
    ) -> list[tuple[np.ndarray, object]]:
        """A per-row (wave, key, parent seq, ordinal) call: the claim
        methods."""
        return self._routed(
            method,
            keys,
            lambda idxs: (
                wave,
                [keys[i] for i in idxs],
                [int(pseqs[i]) for i in idxs],
                [int(ords[i]) for i in idxs],
            ),
        )

    @staticmethod
    def _mask(n: int, parts: list[tuple[np.ndarray, object]]) -> list[bool]:
        """Per-shard boolean results scattered back into key order."""
        out = np.zeros(n, dtype=bool)
        for idxs, res in parts:
            out[idxs] = res
        return out.tolist()

    def _update(self, method: str, updates: dict) -> None:
        """Route a {key: value} update to the shards that own its keys."""
        keys = list(updates)
        self._routed(
            method, keys, lambda idxs: ({keys[i]: updates[keys[i]] for i in idxs},)
        )

    def _merged(self, method: str, keys: list[str]) -> dict:
        out: dict = {}
        for _, d in self._keyed(method, keys):
            out.update(d)
        return out

    def check(self, keys: list[str]) -> list[bool]:
        """True = unseen."""
        return self._mask(len(keys), self._keyed("check", keys))

    def add(self, keys: list[str]) -> None:
        self._keyed("add", keys)

    def get_clocks(self, hosts: list[str]) -> dict[str, int]:
        return self._merged("get_clocks", hosts)

    def advance_clocks(self, updates: dict[str, int]) -> None:
        self._update("advance_clocks", updates)

    def get_sched(self, hosts: list[str]) -> dict[str, int]:
        return self._merged("get_sched", hosts)

    def add_sched(self, updates: dict[str, int]) -> None:
        self._update("add_sched", updates)

    def get_lat(self, hosts: list[str]) -> dict[str, tuple[int, int]]:
        return self._merged("get_lat", hosts)

    def add_lat(self, updates: dict[str, tuple[int, int]]) -> None:
        self._update("add_lat", updates)

    def seen_count(self) -> int:
        return sum(self._each("seen_count"))

    def take_fresh(self) -> list[str]:
        return [k for part in self._each("take_fresh") for k in part]

    def claim_frontier(
        self, wave: int, keys: list[str], pseqs: list[int], ords: list[int]
    ) -> None:
        """Register first-wins claims; they are all registered when this
        returns."""
        self._claimed("claim_frontier", wave, keys, pseqs, ords)

    def admit_frontier(
        self, wave: int, keys: list[str], pseqs: list[int], ords: list[int]
    ) -> list[bool]:
        """Per row: its key's claim winner and unseen (StatePartition)."""
        return self._mask(len(keys), self._claimed("admit_frontier", wave, keys, pseqs, ords))

    def clear_claims(self, wave: int) -> None:
        self._each("clear_claims", wave)

    def snapshots(self) -> list[bytes]:
        return self._each("snapshot")

    def restore(self, blobs: list[bytes]) -> None:
        assert len(blobs) == self.n_shards
        self._call("restore", {sid: (b,) for sid, b in enumerate(blobs)})

    def shutdown(self) -> None:
        if self._actors is None:
            return
        for s in self._actors:
            ray.kill(s)
        self._actors = []
