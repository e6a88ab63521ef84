"""Every workload, timed and traced, in one command.

    python3 bench/summary.py [--seed N] [--seconds S] [--out FILE]

Runs ``bench/run.py`` for each workload with ``--trace 0`` and then
``--trace 1``, one process at a time, echoing each run's report, and ends
with a table of the end-to-end metrics per workload with their units and
the attempted and failed op counts.  ``--out`` also writes the numbers as
JSON, with the environment, the layer-to-end-to-end mapping and the line
count of ``src/divproj`` (information, not a gated metric).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import subprocess
import sys

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import run  # noqa: E402


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "divproj", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"summary: {workload} --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run every divproj benchmark workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--out", default=None, help="write the numbers as JSON to this file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results[workload] = {
            "timed": bench_run(workload, args.seed, seconds, 0),
            "traced": bench_run(workload, args.seed, seconds, 1),
        }
    print(f"\n{'metric':<22} {'unit':<6}" + "".join(f"{w:>14}" for w in results))
    for metric in bench["end_to_end"]:
        row = "".join(f"{r['timed']['metrics'][metric['name']]['value']:>14.4f}" for r in results.values())
        print(f"{metric['name']:<22} {metric['unit']:<6}{row}")
    for label, key in (("attempted", "attempted"), ("failed", "failed")):
        print(f"{label:<22} {'ops':<6}" + "".join(f"{r['timed'][key]:>14d}" for r in results.values()))
    print(f"{'correct':<22} {'':<6}" + "".join(f"{str(r['timed']['correct']):>14}" for r in results.values()))
    if args.out:
        record = {
            "environment": {
                **run.environment(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
            "seed": args.seed,
            "mix": "gated",
            "run_seconds": seconds,
            "src_divproj_lines": src_lines(),
            "known_failures": catalog.KNOWN_FAILURES,
            "layer_should_move": catalog.SHOULD_MOVE,
            "workloads": results,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
