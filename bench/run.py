"""The divproj benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {estimate,project,cli} --seed N --seconds S --trace {0,1}
                         [--mix {gated,full}]

Run from the root of a source checkout; the library is imported from
``src/`` through ``PYTHONPATH``, as the test suite does.  Each workload runs
in its own worker process (``bench/worker.py``) with BLAS/OpenMP threads
pinned to 1, one process at a time, as a closed loop: one client, one op at
a time.

``--mix gated`` (the default, and what BENCHMARK.json gates) draws only
instances the library is built to solve, so no op should fail; ``--mix
full`` adds the shapes that hit the known failure classes of ``catalog.py``
(sparse samples, boundary faces, single-member linear families) and counts
those failures per class.

``--trace 0`` measures the end-to-end metrics.  The worker is started
``SETUPS`` times; ``setup_s`` is the median time from process start to the
first op (interpreter, ``import divproj``, input generation).  The last
start runs the closed loop for ``--seconds`` seconds, rounded up to a whole
period of the workload's mix.  ``throughput_ops_s`` is the median over those
periods of each period's ops per second of op time, so one rare slow op
(a multistart fallback) does not swing it; ``latency_p50_ms`` and
``latency_tail_ms`` are percentiles of every op's latency.

``--trace 1`` runs the workload's fixed op list twice in one worker,
untraced and then with span recorders around every layer
(``bench/tracing.py``), and reports per-op layer metrics, the tracing
overhead and the time no layer span covers.

The last line of stdout is the JSON result; the lines before it print every
metric with its unit, the failure classes with their counts, and the
environment.  Exits 2 without a result when the checkout has no
``src/divproj``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402

SETUPS = 7
RUN_LIMIT_S = 170.0  # a run, all its workers included, ends within this
# Tail percentile per workload, fixed so that runs of one workload compare
# the same percentile.  Each sits inside the costliest band of its mix, with
# at least ten samples beyond it in a 30 s run on a 2-CPU Xeon: on estimate
# the Basu k=2 ops (one in twenty, each a 301 x 301 normalizer oracle), on
# project the clamped alpha = 3 projections (about one op in twenty), on cli
# the slowest quarter of the commands.  The report says how many samples lie
# beyond it.
TAIL_PERCENTILE = {"estimate": 97.5, "project": 97.5, "cli": 75.0}


def declared() -> dict:
    """Metric names and units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    data = sorted(values)
    pos = (len(data) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def environment() -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def git_sha(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, mode: str, workdir: str, deadline: float):
    """Start a worker; returns (seconds until READY, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir, "--mix", args.mix]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bench: {args.workload} worker timed out") from None
    if first.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"bench: {args.workload} worker failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def summarize_outcomes(outcomes: dict) -> tuple[int, int, bool]:
    attempted = sum(outcomes.values())
    failed = sum(n for name, n in outcomes.items() if name in catalog.KNOWN_FAILURES or name == "incorrect")
    return attempted, failed, "incorrect" not in outcomes


def print_outcomes(outcomes: dict, messages) -> None:
    for name, n in sorted(outcomes.items()):
        what = catalog.KNOWN_FAILURES.get(name) or catalog.PASS_NOTES.get(name) or ""
        status = "failed" if name in catalog.KNOWN_FAILURES or name == "incorrect" else "passed"
        print(f"  outcome {name:<26} {n:>6}  {status}  {what}")
    for message in messages:
        print(f"  ! {message}")


def timed(args, workdir: str, units: dict, deadline: float) -> dict:
    setups = [start_worker(args, "setup", workdir, deadline)[0] for _ in range(SETUPS - 1)]
    ready, result = start_worker(args, "timed", workdir, deadline)
    setups.append(ready)
    lat_ms = [s * 1e3 for s in result["latencies"]]
    attempted, failed, correct = summarize_outcomes(result["outcomes"])
    p = TAIL_PERCENTILE[args.workload]
    tail_ms = percentile(lat_ms, p)
    period = result["period"]
    rates = [period / (sum(lat_ms[i:i + period]) / 1e3) for i in range(0, len(lat_ms), period)]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": statistics.median(rates),
        "latency_p50_ms": percentile(lat_ms, 50.0),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted} ({attempted - len(lat_ms)} "
          f"untimed warm-up)  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:<22} {value:>14.6f} {units[name]}")
    beyond = sum(1 for v in lat_ms if v > tail_ms)
    print(f"  latency_tail_ms is p{p:g}: {beyond} of {len(lat_ms)} timed samples beyond it")
    print(f"  throughput_ops_s is the median rate of {len(rates)} whole periods of {period} ops; "
          f"all timed ops: {len(lat_ms) / (sum(lat_ms) / 1e3):.4f} 1/s")
    print(f"  setup_s is the median of {SETUPS} set-ups: " + ", ".join(f"{s:.4f}" for s in setups))
    print(f"  fail_ratio {failed / attempted:.6f} ({failed} of {attempted}; printed, not gated)")
    print_outcomes(result["outcomes"], result["messages"])
    print(f"  env {json.dumps({**environment(), **result['versions']})}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}


def traced(args, workdir: str, units: dict, deadline: float) -> dict:
    _, result = start_worker(args, "trace", workdir, deadline)
    found = result["layers"]
    attempted, failed, correct = summarize_outcomes(result["outcomes"])
    op_ms = found["trace.op_ms"]
    print(f"workload {args.workload}  seed {args.seed}  traced ops {result['ops']}  "
          f"untraced {result['plain_op_ms']:.3f} ms/op  traced {op_ms:.3f} ms/op")
    print(f"  {'metric':<40} {'per op':>14} {'unit':<6} {'share':>6}  should move")
    for name in sorted(found):
        unit = "ms" if name.endswith("ms") else "ratio" if name.endswith("ratio") else "count"
        share = f"{100 * found[name] / op_ms:5.1f}%" if unit == "ms" and op_ms else ""
        print(f"  {name:<40} {found[name]:>14.6f} {unit:<6} {share:>6}  {catalog.should_move(name)}")
    print_outcomes(result["outcomes"], result["messages"])
    print(f"  env {json.dumps({**environment(), **result['versions']})}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": found[name], "unit": unit} for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="divproj benchmark")
    parser.add_argument("--workload", choices=("estimate", "project", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mix", choices=("gated", "full"), default="gated",
                        help="full: also the shapes that hit the known failure classes "
                             "(not gated; see catalog.py)")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "divproj", "__init__.py")):
        print(f"bench: no src/divproj under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    units = declared()["per_layer" if args.trace else "end_to_end"]
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result = (traced if args.trace else timed)(args, workdir, units, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
