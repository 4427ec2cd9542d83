"""One benchmark run of one workload, in this process.

Started by ``perfbench/run.py``, which holds the deadline. Prints a
``{"record": ...}`` line (configuration, per-crawl figures, checks) and then
the result line: ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Timed regions: set-up (imports, ``ray.init``, fixture build, worker warm-up),
each in a fresh process; each ``crawl()`` call; the read-back of each
crawl through ``CrawlHandle``; in a traced run, each query of the
query set. The oracles, the checks and the trace replay run outside them.
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import time

from perfbench import measure

# Ray's logical CPUs and the crawl's shard count. Fixed: with num_cpus=1 a
# crawl deadlocks (4 shards x 0.25 CPU reserve the whole CPU), and with
# num_cpus=2 the lang_id query's fixed actor pool starves its read task.
NUM_CPUS = 4
N_SHARDS = 4
OBJECT_STORE_BYTES = 256 * 1024 * 1024
SETUP_REPS = 3  # set-ups per untraced run, each in a fresh process; setup_s is their median
MIN_CRAWLS = 3  # timed crawls per run, more while --seconds lasts; crawl_s is their median
MAX_CRAWLS = 4
REPLAY_SAMPLE = 256  # pages replayed in-process for the kernel spans
REPLAY_PASSES = 3  # replay passes; per-layer kernel times are their median
QUERY_PASSES = 1  # timed passes of the query set in a traced run, after an untimed one

KNOWN_DEFECTS = [
    "num_cpus=1 hangs every crawl: 4 StateShard actors x num_cpus=0.25 "
    "(state/shards.py) reserve the only CPU, so no fetch task is scheduled",
    "num_cpus=2 hangs the lang_id query: its fixed concurrency=2 actor pool "
    "(ops/textstats.py; same pattern in ops/bpe.py, ops/multimodal.py) "
    "holds both CPUs and starves its own read task",
]


def _quiet_ray_data() -> None:
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)


def ray_start(ray_dir: str) -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=ray_dir,
    )
    _quiet_ray_data()


def ray_stop(timeout_s: float = 30.0) -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    pids = [p for p in measure.descendants(os.getpid()) if p != os.getpid()]
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        live = [p for p in pids if os.path.exists(f"/proc/{p}") and not _zombie(p)]
        if not live:
            return
        time.sleep(0.1)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _warm_worker() -> int:
    import cloud_crawler_ray.pipelines.crawl  # noqa: F401  (the fetch stage's imports)

    from perfbench import workloads  # noqa: F401  (the hooks)

    time.sleep(0.2)  # hold this worker so each task lands on its own
    return os.getpid()


def setup(name: str, seed: int, ray_dir: str):
    """Imports, ``ray.init``, fixture build and worker warm-up: one task per
    logical CPU starts a worker process and imports the engine into it."""
    import ray

    from perfbench import workloads

    ray_start(ray_dir)
    wl = workloads.build(name, seed)
    warm = ray.remote(_warm_worker)
    ray.get([warm.remote() for _ in range(NUM_CPUS)])
    return wl


def setup_in_child(name: str, seed: int, ray_dir: str) -> float:
    """Seconds from starting a fresh Python process until it has done the
    workload's set-up, imports included. The child then stops Ray and
    exits; this waits for it."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "perfbench.bench", "--setup-only", "--workload", name,
         "--seed", str(seed), "--ray-dir", ray_dir],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        ready = False
        for line in child.stdout:  # a line printed before 'ready' goes to stderr
            if line.strip() == "ready":
                ready = True
                break
            print(line, end="", file=sys.stderr)
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or not ready:
        raise RuntimeError(f"set-up in a child process failed (exit code {child.returncode})")
    return elapsed


def start_oracle(name: str, seed: int, path: str) -> subprocess.Popen:
    """Start the serial oracle of the workload in a child process, which
    builds the same inputs from the seed and pickles the ``check.Expected``
    to *path*. It runs beside the untimed warm-up crawl."""
    return subprocess.Popen(
        [sys.executable, "-m", "perfbench.bench", "--oracle-to", path, "--workload", name,
         "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    )


def finish_oracle(child: subprocess.Popen, path: str):
    """Wait for ``start_oracle``'s child; (its ``Expected``, its seconds)."""
    import pickle

    out, _ = child.communicate()
    if child.returncode != 0:
        raise RuntimeError(f"the oracle's child process failed (exit code {child.returncode})")
    with open(path, "rb") as f:
        return pickle.load(f), float(out.split()[-1])


def oracle_to(name: str, seed: int, path: str) -> None:
    import pickle

    from cloud_crawler_ray.oracle import crawl_oracle

    from perfbench import check, workloads

    t0 = time.perf_counter()
    wl = workloads.build(name, seed)
    expected = check.Expected(crawl_oracle(wl.web, wl.seeds, wl.spec))
    with open(path, "wb") as f:
        pickle.dump(expected, f)
    print(time.perf_counter() - t0, flush=True)


def _lineage_wave_seconds(out_dir: str, t_start_wall: float) -> list[float]:
    """Per-wave wall time from the lineage markers' mtimes (each wave ends
    when its marker is written)."""
    marks = sorted(glob.glob(os.path.join(out_dir, "lineage", "wave=*.json")))
    ends = [os.stat(m).st_mtime for m in marks]
    return [b - a for a, b in zip([t_start_wall] + ends[:-1], ends)]


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def crawl_once(wl, out_dir: str, expected, tracer=None) -> dict:
    """One timed crawl, its timed read-back, then the (untimed) oracle
    check of what was read."""
    from contextlib import nullcontext

    from cloud_crawler_ray.pipelines.crawl import crawl

    from perfbench import check, trace

    shutil.rmtree(out_dir, ignore_errors=True)
    me = os.getpid()
    cpu0 = measure.cpu_by_pid(measure.descendants(me))
    wall0 = time.time()
    t0 = time.perf_counter()
    with trace.traced_crawl(tracer) if tracer is not None else nullcontext():
        handle = crawl(wl.web, wl.seeds, wl.spec, out_dir, n_shards=N_SHARDS)
    t1 = time.perf_counter()
    cpu_s = measure.cpu_delta(cpu0, measure.cpu_by_pid(measure.descendants(me)))
    t2 = time.perf_counter()
    got = check.read_back(handle)
    read_s = time.perf_counter() - t2
    mismatches = check.compare(expected, got, handle.counters())
    if handle.n_jobs != expected.n_jobs:
        mismatches.append(f"{handle.n_jobs} jobs, oracle {expected.n_jobs}")
    waves = _lineage_wave_seconds(out_dir, wall0)
    return {
        "crawl_s": t1 - t0,
        "t0": t0,
        "t1": t1,
        "read_s": read_s,
        "cpu_s": cpu_s,
        "jobs": handle.n_jobs,
        "waves": handle.waves,
        "wave_s": waves,
        "bytes": _dir_bytes(out_dir),
        "mismatches": mismatches,
    }


def layer_metrics(tracer, crawl_rep: dict, reps: list[dict]) -> dict[str, float]:
    """Per-layer figures of the traced crawl (driver-side spans); CPU per
    job and wave times from the untraced crawls *reps*."""
    from perfbench.trace import covered, self_times

    st = self_times(tracer.spans)
    jobs = crawl_rep["jobs"]

    def layer(prefix: str) -> float:
        return sum(v for k, v in st.items() if k.startswith(prefix))

    cov = covered(tracer.spans, crawl_rep["t0"], crawl_rep["t1"])
    n = tracer.counts
    state_calls = sum(1 for s in tracer.spans if s.name.startswith("state."))
    wave_s = [w for r in reps for w in r["wave_s"]]
    return {
        "pipelines.crawl.cpu_per_page_us": measure.median(
            [1e6 * r["cpu_s"] / r["jobs"] for r in reps]
        ),
        "pipelines.crawl.plan_s": layer("plan."),
        "pipelines.crawl.frontier_s": layer("frontier."),
        "pipelines.crawl.wave_exec_s": layer("exec."),
        "pipelines.crawl.wave_other_s": crawl_rep["crawl_s"] - cov,
        "pipelines.crawl.waves": crawl_rep["waves"],
        "pipelines.crawl.local_waves": n["local_waves"],
        "pipelines.crawl.distributed_waves": n["distributed_waves"],
        "pipelines.crawl.wave_commit_p50_s": measure.median(wave_s),
        "pipelines.crawl.wave_commit_max_s": max(wave_s),
        "state.shards.rpc_s": layer("state."),
        "state.shards.rpc_calls": state_calls,
        "stages.politeness.slot_block_us": 1e6 * layer("politeness.") / jobs,
        "stages.frontier_ops.admit_ratio": jobs / n["candidates"],
        "storage.driver_io_s": layer("storage."),
        "storage.bytes_per_page": crawl_rep["bytes"] / jobs,
        "trace.span_coverage": cov / crawl_rep["crawl_s"],
        "trace.overhead_s": crawl_rep["crawl_s"] - measure.median([r["crawl_s"] for r in reps]),
    }


def replay_metrics(wl, out_dir: str) -> dict[str, float]:
    """Per-page kernel costs, replayed in-process on a fixed sample of the
    crawl's jobs (every k-th job in seq order); medians over passes."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from cloud_crawler_ray.oracle import SyntheticNet

    from perfbench import trace

    parts = sorted(glob.glob(os.path.join(out_dir, "frontier", "wave=*", "*.parquet")))
    jobs = pa.concat_tables([pq.ParquetFile(f).read() for f in parts]).sort_by("seq")
    sample = jobs.take(list(range(0, jobs.num_rows, max(1, jobs.num_rows // REPLAY_SAMPLE))))
    n = sample.num_rows
    payload = wl.web if not isinstance(wl.web, pa.Table) else (
        wl.web, SyntheticNet.build_indexes(wl.web)
    )
    web_ref = ray.put(payload)
    passes: list[dict[str, float]] = []
    for _ in range(REPLAY_PASSES):
        bt = trace.Tracer()
        out = trace.replay_block(bt, web_ref, wl.spec, sample)
        b_self, b_total = trace.self_times(bt.spans), trace.total_times(bt.spans)
        keys = out.column("canonical_url").to_pylist() + pc.list_flatten(
            out.column("child_canonical_urls")
        ).to_pylist()
        stt = trace.Tracer()
        trace.replay_state(stt, keys, N_SHARDS)
        s_total = trace.total_times(stt.spans)
        passes.append(
            {
                "synthweb.page_gen_us": 1e6 * b_self["synthweb.lookup"] / n,
                "oracle.fetch_chain_us": 1e6 * b_self["oracle.fetch_chain"] / n,
                "extract.extract_page_us": 1e6 * b_self["extract.extract_page"] / n,
                "extract.spans_per_page": bt.counts["spans"] / n,
                "extract.links_per_page": bt.counts["links"] / n,
                "functions.text.hook_us": 1e6 * b_self["functions.text.hook"] / n,
                "oracle.admit_us": 1e6 * b_self["oracle.admit"] / n,
                "canon.canonical_urls_us": 1e6 * b_self["canon.canonical_urls"] / n,
                "stages.fetch.block_us": 1e6 * b_total["stages.fetch.block"] / n,
                "stages.fetch.assembly_us": 1e6 * b_self["stages.fetch.block"] / n,
                "stages.frontier_ops.explode_children_us":
                    1e6 * b_total["stages.frontier_ops.explode_children"] / n,
                "state.shards.check_us": 1e6 * s_total["state.check"] / len(keys),
                "state.shards.add_us": 1e6 * s_total["state.add"] / len(keys),
                "state.shards.claim_us": 1e6 * s_total["state.claim_frontier"] / len(keys),
            }
        )
    return {k: measure.median([p[k] for p in passes]) for k in passes[0]}


def query_metrics(seed: int, run_dir: str) -> tuple[dict[str, float], list[str]]:
    """Per-module query times: the query set over tables generated from the
    seed, one untimed pass (first-use costs: imports in the workers, actor
    pools) and then ``QUERY_PASSES`` timed ones, each query's median.
    Returns the metrics and the oracle mismatches of the last pass."""
    from perfbench import query_set

    sf_dir = os.path.join(run_dir, "tables")
    query_set.make_tables(seed, sf_dir)
    passes = []
    for _ in range(1 + QUERY_PASSES):
        query_set.clear_memo_caches()
        seconds, frames = query_set.run_queries(sf_dir)
        passes.append(seconds)
    per_query = {q: measure.median([p[q] for p in passes[1:]]) for q in passes[0]}
    bad = query_set.check(sf_dir, os.path.join(run_dir, "twins"), frames)
    return query_set.module_seconds(per_query), bad


def run(name: str, seed: int, seconds: float, traced: bool, run_dir: str, ray_dir: str) -> dict:
    # a traced run reports no setup_s; this process is fresh too (nothing
    # heavy is imported yet), so its own set-up is the last sample
    setup_s = [] if traced else [
        setup_in_child(name, seed, ray_dir) for _ in range(SETUP_REPS - 1)
    ]
    t0 = time.perf_counter()
    wl = setup(name, seed, ray_dir)
    setup_s.append(time.perf_counter() - t0)

    import pyarrow
    import ray

    from cloud_crawler_ray.pipelines.crawl import crawl

    from perfbench import query_set, workloads
    from perfbench.trace import Tracer

    # the first crawl of a session starts Ray Data's operators and more
    # workers; an untimed crawl of a smaller web of the same shape pays that,
    # while the oracle runs in a child process
    oracle_path = os.path.join(run_dir, "oracle.pkl")
    oracle_child = start_oracle(name, seed, oracle_path)
    try:
        t0 = time.perf_counter()
        warm = workloads.build(name, seed, workloads.WARMUP_SIZES[name])
        crawl(warm.web, warm.seeds, warm.spec, os.path.join(run_dir, "warmup"),
              n_shards=N_SHARDS)
        warmup_crawl_s = time.perf_counter() - t0
        expected, oracle_s = finish_oracle(oracle_child, oracle_path)
    finally:
        if oracle_child.poll() is None:
            oracle_child.kill()
            oracle_child.wait()

    out_dir = os.path.join(run_dir, "crawl")
    measure.reset_peak_rss(measure.descendants(os.getpid()))
    reps: list[dict] = []
    spent = 0.0
    while len(reps) < MIN_CRAWLS or (spent < seconds and len(reps) < MAX_CRAWLS):
        reps.append(crawl_once(wl, out_dir, expected))
        spent += reps[-1]["crawl_s"] + reps[-1]["read_s"]
    peak_rss_mb = measure.peak_rss_mb(measure.descendants(os.getpid()))

    traced_rep = None
    query_bad: list[str] = []
    if traced:
        tracer = Tracer()
        traced_rep = crawl_once(wl, out_dir, expected, tracer)
        layers = layer_metrics(tracer, traced_rep, reps) | replay_metrics(wl, out_dir)
        q_layers, query_bad = query_metrics(seed, run_dir)
        layers |= q_layers

    all_reps = reps + ([traced_rep] if traced_rep else [])
    # a traced run also runs each query of the set (checked once)
    attempted = len(all_reps) + (len(query_set.QUERY_SET) if traced else 0)
    failed = sum(1 for r in all_reps if r["mismatches"]) + len(query_bad)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "cpus_visible": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),  # what nproc reports
        "ray_logical_cpus": NUM_CPUS,
        "n_shards": N_SHARDS,
        "ray_memory_monitor_refresh_ms": os.environ.get("RAY_memory_monitor_refresh_ms"),
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "web_digest": workloads.web_digest(wl),
        "jobs": reps[0]["jobs"],
        "waves": reps[0]["waves"],
        "setup_s_all": setup_s,
        "warmup_crawl_s": warmup_crawl_s,
        "crawl_s_all": [r["crawl_s"] for r in reps],
        "wave_s_first": reps[0]["wave_s"],
        "read_s_all": [r["read_s"] for r in reps],
        "oracle_s": oracle_s,
        "cpu_s_all": [r["cpu_s"] for r in reps],
        "failed_share": measure.failed_share(failed, attempted),
        "mismatches": [r["mismatches"] for r in all_reps if r["mismatches"]] + query_bad,
        "scaling": "N-vs-4N scaling efficiency is not measured: nproc reports 1 "
        "and the visible CPUs are shared; no proxy is reported",
        "known_defects": KNOWN_DEFECTS,
    }
    if traced_rep:
        record["traced_crawl_s"] = traced_rep["crawl_s"]
    print(json.dumps({"record": record}), flush=True)
    for m in record["mismatches"]:
        print(f"perfbench: output differs from its oracle: {m}", file=sys.stderr)

    if traced:
        metrics = layers
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    else:
        metrics = {
            "setup_s": measure.median(setup_s),
            "crawl_s": measure.median([r["crawl_s"] for r in reps]),
            "pages_per_s": measure.median([r["jobs"] / r["crawl_s"] for r in reps]),
            "read_s": measure.median([r["read_s"] for r in reps]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
    ray_stop()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _declared(kind: str) -> list[dict]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir")
    ap.add_argument("--ray-dir")
    ap.add_argument("--setup-only", action="store_true",
                    help="do the set-up, print 'ready', stop Ray and exit")
    ap.add_argument("--oracle-to", metavar="PATH",
                    help="pickle the workload's oracle outputs to PATH, print the seconds taken")
    a = ap.parse_args(argv)
    if a.oracle_to:
        oracle_to(a.workload, a.seed, a.oracle_to)
        return 0
    if a.ray_dir is None:
        ap.error("--ray-dir is required")
    if a.setup_only:
        setup(a.workload, a.seed, a.ray_dir)
        print("ready", flush=True)
        ray_stop()
        return 0
    if a.seconds is None or a.run_dir is None:
        ap.error("--seconds and --run-dir are required")
    result = run(a.workload, a.seed, a.seconds, bool(a.trace), a.run_dir, a.ray_dir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
