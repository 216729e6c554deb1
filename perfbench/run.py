"""Entry point of the rtcast benchmark.

    python3 perfbench/run.py --workload pipeline-365d --seed 1 --seconds 5 --trace 0

Runs one workload in a fresh child process (rtbench.py) with BLAS pinned to
one thread, then prints a readable report, an ``env`` line and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics. The peak
RSS is read with ``getrusage`` on the child. Scratch files go to
``.perfbench-work/`` at the repository root and are removed afterwards.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
#: Environment pinning every BLAS/OpenMP pool of the child to one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_child(args, workdir, result_path):
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), HERE, os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, os.path.join(HERE, "rtbench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--result", result_path,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        print(f"error: {args.workload} child exited with code {code}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description="rtcast benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["pipeline-365d", "forecast-120d", "explain-120d"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops and reaps its child (see run_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "rtcast", "__init__.py")):
        print("error: src/rtcast not found next to perfbench/", file=sys.stderr)
        return 2
    names = declared_metrics(args.trace)

    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        doc = run_child(args, workdir, os.path.join(workdir, "result.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if doc is None:
        return 1

    metrics = doc["metrics"]
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    attempted, failed = doc["attempted"], doc["failed"]
    metrics["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}

    env = {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": doc["numpy"],
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "passes": doc["passes"],
        "setups_s": doc["setups"],
        "walls_s": doc["walls"],
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for err in doc["errors"]:
        print(f"  FAILED {err}")
    if args.trace:
        print("  top call edges (caller -> callee: calls, total s, self s):")
        for e in doc["edges"][:15]:
            print(f"    {e['caller']} -> {e['callee']}: {e['calls']}, "
                  f"{e['total_s']:.4f}, {e['self_s']:.4f}")
    print("env " + json.dumps(env, sort_keys=True))

    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
