"""One workload process: set up, print READY, then measure.

``run.py`` starts it with the environment it prepares (``PYTHONPATH=src``,
BLAS/OpenMP threads pinned to 1) and reads the JSON line it prints last.

Modes:
  setup  set up and exit; run.py times several set-ups per run
  timed  ``warmup`` untimed ops, then a closed loop of ops for --seconds,
         ending on a whole period
  trace  the workload's fixed ``trace_ops`` ops, each run untraced and then
         traced; the mean difference is the tracing overhead
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_op(workload, i, rec=None):
    """Time op i; returns (seconds, outcome, message)."""
    op = workload.op(i)
    span = len(rec.name) if rec is not None else -1
    if rec is not None:
        rec.op = i
        rec.enter(tracing.OP)
    start = time.perf_counter()
    exc = out = None
    try:
        out = workload.run(op)
    except Exception as err:  # every failure of an op is classified below
        exc = err
    finally:
        elapsed = time.perf_counter() - start
        if rec is not None:
            rec.exit()
            rec.op = -1
    if rec is not None and exc is None and hasattr(workload, "adopt_trace"):
        workload.adopt_trace(rec, op, out, span)
    try:
        outcome = workload.classify(op, exc) if exc is not None else workload.check(op, out)
    except workloads.Incorrect as err:
        return elapsed, "incorrect", str(err)
    return elapsed, outcome, None


def loop(workload, seconds: float):
    """Run ops 0 .. warmup - 1 untimed, then warmup, warmup + 1, ... until
    past ``seconds`` and on a whole period.  Every op is checked and counted;
    only the timed ones have a latency."""
    latencies, outcomes, messages = [], {}, []

    def tally(i):
        elapsed, outcome, message = run_op(workload, i)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if message and len(messages) < 5:
            messages.append(message)
        return elapsed

    for i in range(workload.warmup):
        tally(i)
    start = time.perf_counter()
    i = workload.warmup
    while time.perf_counter() - start < seconds or (i - workload.warmup) % workload.period:
        latencies.append(tally(i))
        i += 1
    return latencies, outcomes, messages


def trace_pairs(kind, seed: int, workdir: str, ops: int, full: bool = False):
    """Run each op untraced, then traced, so both see the same warm state.

    Returns the (latencies, outcomes, messages) of each side and the recorder.
    """
    plain_workload = kind(seed, workdir, full=full)
    traced_workload = kind(seed, workdir, trace=True, full=full)
    plain, traced = ([], {}, []), ([], {}, [])
    rec = tracing.Recorder()
    for i in range(ops):
        for side, workload, recorder in ((plain, plain_workload, None), (traced, traced_workload, rec)):
            patches = tracing.install(rec) if recorder is not None else []
            try:
                elapsed, outcome, message = run_op(workload, i, recorder)
            finally:
                tracing.uninstall(patches)
            side[0].append(elapsed)
            side[1][outcome] = side[1].get(outcome, 0) + 1
            if message:
                side[2].append(message)
    return plain, traced, rec


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if getattr(workload, "children_rss", False) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mix", choices=("gated", "full"), default="gated")
    args = parser.parse_args(argv)
    kind = workloads.WORKLOADS[args.workload]
    full = args.mix == "full"
    workload = kind(args.seed, args.workdir, full=full)
    workload.op(0)  # input generation for the first op is part of set-up
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    result = {
        "versions": {
            "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        },
    }
    if args.mode == "timed":
        latencies, outcomes, messages = loop(workload, args.seconds)
        result.update(latencies=latencies, period=workload.period, peak_rss_mb=peak_rss_mb(workload))
    else:
        ops = workload.trace_ops
        plain, traced, rec = trace_pairs(kind, args.seed, args.workdir, ops, full)
        outcomes, messages = plain[1], plain[2] + traced[2]
        if traced[1] != outcomes:
            messages.append(f"traced outcomes {traced[1]} differ from untraced {outcomes}")
            outcomes["incorrect"] = outcomes.get("incorrect", 0) + 1
        layers = tracing.layer_metrics(rec, ops)
        layers["trace.overhead_ms"] = (sum(traced[0]) - sum(plain[0])) * 1e3 / ops
        rec.save(os.path.join(os.path.dirname(args.workdir), f"spans-{args.workload}.npz"))
        result.update(layers=layers, ops=ops, plain_op_ms=sum(plain[0]) * 1e3 / ops)
    result.update(outcomes=outcomes, messages=messages)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
