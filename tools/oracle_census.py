"""Reverse-oracle census over the estimate benchmark's ops, and a comparison of two.

A census runs ops 0..N-1 of the estimate workload (``bench/workloads.py``)
for each seed, exactly as the benchmark builds and checks them, and writes
one JSON line per op: its kind, alpha and k, the outcome (the benchmark's
check class, ``incorrect``, or the failure class of an error), every
route's theta (estimating equation, projection equation, likelihood, and
the reverse projection for Basu ops), the grid oracle's (theta, value), the
share of grid rows the oracle evaluated (its candidate fraction) and the
normalizer's passes over those rows (calls of ``families._bracket``).
Floats are written by ``repr``, so a theta read back is bit for bit the one
computed.

``--compare`` reads two census files (say, of a parent tree and of a
change) and prints, with the op that attains each one:

* the largest |delta theta| of each route, over the ops both sides solved;
* the largest shift of the grid theta and of the grid value, for each k;
* every outcome flip, with both sides' outcome, route thetas and grid answer;
* the outcome counts per class on each side, and the candidate fraction
  and pass count per (kind, alpha, k) on each side.

Run it with one BLAS thread, once per tree, with that tree's ``src`` first
on the path::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/oracle_census.py --seeds 1,2,3 --out new.jsonl
    python tools/oracle_census.py --compare old.jsonl new.jsonl

``--mix full`` runs the wider mix, whose known failures the outcome counts
show.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _theta(value):
    return None if value is None else np.asarray(value, dtype=float).tolist()


def census(seeds, ops: int, full: bool, out) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    import divproj as dp
    import divproj.families as families
    import divproj.oracle as oracle

    stats = {"rows": 0, "passes": 0}
    members, bracket, grid_min = oracle._members, families._bracket, dp.grid_reverse_min

    def counted_members(spec, thetas):
        stats["rows"] += len(thetas)
        return members(spec, thetas)

    def counted_bracket(*args, **kwargs):
        stats["passes"] += 1
        return bracket(*args, **kwargs)

    seen = {}

    def recorded_grid(kind, alpha, sample, spec, grid):
        stats["rows"] = stats["passes"] = 0
        try:
            return grid_min(kind, alpha, sample, spec, grid)
        finally:
            if grid.point_count() > 1:  # the run's oracle, not the check's one-point call
                seen.update(points=grid.point_count(), rows=stats["rows"], passes=stats["passes"])

    oracle._members, families._bracket, dp.grid_reverse_min = counted_members, counted_bracket, recorded_grid
    try:
        for seed in seeds:
            workload = workloads.Estimate(seed, "", full=full)
            for i in range(ops):
                op = workload.op(i)
                seen.clear()
                record = {"seed": seed, "op": i, "kind": op.kind.value, "alpha": op.alpha, "k": op.spec.theta_dim}
                out_ = None
                try:
                    out_ = workload.run(op)
                    record["outcome"] = workload.check(op, out_)
                except workloads.Incorrect:
                    record["outcome"] = "incorrect"
                except Exception as exc:  # the benchmark classifies every failure of an op
                    try:
                        record["outcome"] = workload.classify(op, exc)
                    except workloads.Incorrect:
                        record["outcome"] = f"incorrect: {type(exc).__name__}"
                if out_ is not None:
                    eq, pr, lik, rev, theta_grid, grid_value = out_
                    record["routes"] = {
                        "equation": _theta(eq.theta_star),
                        "projection": _theta(pr.theta_star),
                        "likelihood": _theta(lik.theta_star),
                        "reverse": None if rev is None else _theta(rev.theta),
                    }
                    record["grid"] = {"theta": _theta(theta_grid), "value": float(grid_value)}
                if seen:
                    record["candidates"] = seen["rows"] / seen["points"]
                    record["passes"] = seen["passes"]
                out.write(json.dumps(record) + "\n")
    finally:
        oracle._members, families._bracket, dp.grid_reverse_min = members, bracket, grid_min


def _load(path: str) -> dict:
    with open(path) as fh:
        return {(rec["seed"], rec["op"]): rec for rec in map(json.loads, fh)}


def _shape(rec) -> tuple:
    return rec["kind"], rec["alpha"], rec["k"]


ROUTES = ("equation", "projection", "likelihood", "reverse")


def _shift(x, y) -> float:
    """max |x - y| of two thetas or values as written (None when unsolved):
    inf when only one side has it, 0 when neither does."""
    if x is None or y is None:
        return 0.0 if x is y else np.inf
    return float(np.max(np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)), initial=0.0))


class _Largest:
    """The largest shift seen, the op it was seen on, and how many ops moved."""

    def __init__(self):
        self.value, self.where, self.moved = 0.0, "", 0

    def add(self, shift: float, where: str) -> None:
        self.moved += shift != 0.0
        if shift > self.value:
            self.value, self.where = shift, where

    def __str__(self) -> str:
        return f"{self.value:.3e} on {self.moved} ops" + (f" (largest at {self.where})" if self.moved else "")


def compare(path_a: str, path_b: str) -> int:
    """Print the differences; returns the number of ops whose answers differ."""
    a, b = _load(path_a), _load(path_b)
    shared = sorted(set(a) & set(b))
    print(f"ops: {len(shared)} in both ({len(a)} in {path_a}, {len(b)} in {path_b})")
    routes = {name: _Largest() for name in ROUTES}
    grid = defaultdict(lambda: (_Largest(), _Largest()))
    flips, differ = [], 0
    for key in shared:
        ra, rb = a[key], b[key]
        where = f"seed {key[0]} op {key[1]} ({ra['kind']}, alpha {ra['alpha']:g}, k {ra['k']})"
        differ += any(ra.get(name) != rb.get(name) for name in ("outcome", "routes", "grid"))
        if ra["outcome"] != rb["outcome"]:
            flips.append((where, ra, rb))
        if "routes" in ra and "routes" in rb:
            for name in ROUTES:
                routes[name].add(_shift(ra["routes"][name], rb["routes"][name]), where)
        if "grid" in ra and "grid" in rb:
            theta, value = grid[ra["k"]]
            theta.add(_shift(ra["grid"]["theta"], rb["grid"]["theta"]), where)
            value.add(_shift(ra["grid"]["value"], rb["grid"]["value"]), where)
    print(f"ops whose outcome, route theta or grid answer differs: {differ}")
    print("largest |delta theta| per route, over the ops both sides solved:")
    for name, largest in routes.items():
        print(f"  {name:<10} {largest}")
    print("largest grid shift per k:")
    for k, (theta, value) in sorted(grid.items()):
        print(f"  k {k}: theta {theta}\n       value {value}")
    print(f"outcome flips: {len(flips)}")
    for where, ra, rb in flips:
        print(f"  {where}")
        for label, rec in (("a", ra), ("b", rb)):
            print(f"    {label}: {rec['outcome']}; routes {rec.get('routes')}; grid {rec.get('grid')}")
    for label, recs in (("a", a), ("b", b)):
        counts = Counter(recs[key]["outcome"] for key in shared)
        print(f"outcomes {label}: " + ", ".join(f"{name} {n}" for name, n in sorted(counts.items())))
    shapes = defaultdict(lambda: ([], [], [], []))
    for key in shared:
        if "passes" in a[key] and "passes" in b[key]:
            row = shapes[_shape(a[key])]
            for j, value in enumerate((a[key]["candidates"], b[key]["candidates"], a[key]["passes"], b[key]["passes"])):
                row[j].append(value)
    print("kind       alpha  k  candidates a -> b (median)   passes a -> b (min-max)")
    for (kind, alpha, k), (ca, cb, pa, pb) in sorted(shapes.items()):
        print(
            f"{kind:<10} {alpha:<6g} {k}  {np.median(ca):.4f} -> {np.median(cb):.4f}"
            f"            {min(pa)}-{max(pa)} -> {min(pb)}-{max(pb)}"
        )
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated benchmark seeds")
    parser.add_argument("--ops", type=int, default=240, help="ops per seed (the mix repeats every 240)")
    parser.add_argument("--mix", choices=("gated", "full"), default="gated")
    parser.add_argument("--out", default="-", help="census file to write (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two census files")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    seeds = [int(x) for x in args.seeds.split(",")]
    if args.out == "-":
        census(seeds, args.ops, args.mix == "full", sys.stdout)
    else:
        with open(args.out, "w") as out:
            census(seeds, args.ops, args.mix == "full", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
