"""Crawl benchmark entry point.

    python3 perfbench/run.py --workload bfs_skewed --seed 1 --seconds 12 --trace 0

Runs ``perfbench.bench`` in a child process, from the repository root this
file sits in (whatever the working directory), under a hard deadline: a run
that hangs is killed, Ray is stopped with ``ray stop --force``, and the run
is reported as one failed operation. The last line of standard output is
the result JSON (see ``perfbench/README.md``). Scratch files (the crawl
output and Ray's session directory) live under ``.perfbench_run/`` in the
repository root and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

DEADLINE_S = 170  # the whole run, set-up included, must end within 180 s
WORKLOADS = ("bfs_skewed", "link_dense")
# Ray's Unix socket paths (<temp dir>/session_<time>_<pid>/sockets/...) must
# fit in 107 bytes; a longer repository path falls back to a private
# directory under the system temp dir
_MAX_RAY_DIR = 40


def _run_dir(root: str) -> tuple[str, str]:
    """(scratch dir for the crawl, scratch dir for Ray's session files)."""
    run_dir = os.path.join(root, ".perfbench_run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    if len(os.path.join(run_dir, "ray")) <= _MAX_RAY_DIR:
        return run_dir, os.path.join(run_dir, "ray")
    return run_dir, tempfile.mkdtemp(prefix="pfb")


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the crawl benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "cloud_crawler_ray")):
        print(f"perfbench: no cloud_crawler_ray/ next to perfbench/ in {root}", file=sys.stderr)
        return 2
    run_dir, ray_dir = _run_dir(root)
    env = dict(
        os.environ,
        # Ray workers import the engine and the hooks from the repository,
        # whatever directory the driver was started from
        PYTHONPATH=os.pathsep.join([root] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
        TMPDIR=os.path.join(run_dir, "tmp"),
        # Ray's memory monitor kills workers when the machine's memory is
        # nearly full; on a host shared with other programs that is their
        # memory as much as ours, so it is off (the kernel's OOM killer stays)
        RAY_memory_monitor_refresh_ms="0",
    )
    cmd = [
        sys.executable, "-m", "perfbench.bench",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--run-dir", run_dir, "--ray-dir", ray_dir,
    ]
    child = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    # a terminated harness takes the child's process group down with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = child.communicate(timeout=DEADLINE_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, _ = child.communicate()
        timed_out = True
    finally:
        try:  # whatever the child left behind in its process group
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if timed_out or child.returncode != 0:
        subprocess.run(["ray", "stop", "--force"], env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=60, check=False)
    shutil.rmtree(run_dir, ignore_errors=True)
    if ray_dir != os.path.join(run_dir, "ray"):
        shutil.rmtree(ray_dir, ignore_errors=True)

    lines = out.splitlines()
    # the result is the child's last line that starts with it (a library
    # may print after it at exit)
    at = max((i for i, ln in enumerate(lines) if ln.startswith('{"correct"')), default=None)
    for i, line in enumerate(lines):
        if i != at:
            print(line)
    result = None
    if at is not None and not timed_out and child.returncode == 0:
        try:
            result = json.loads(lines[at])
        except json.JSONDecodeError:
            pass
    if result is None:
        why = f"deadline of {DEADLINE_S} s missed" if timed_out else f"exit code {child.returncode}"
        print(f"perfbench: run failed ({why})", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0  # a wrong output is reported by "correct": false


if __name__ == "__main__":
    sys.exit(main())
