"""Forward-projection census over the fuzz corpus, and a comparison of two.

A census runs ``forward_dpd_projection`` on the first N families of
``tests/conftest.py::forward_corpus`` (seed 0) at each alpha, and writes
one JSON line per family: its support face, the margin and centre of its
max-min member, and per alpha the outcome (``solved`` or the error's class
name), the final residual of each dual Newton run (one run, or two when it
restarted from the centre) and p*.  Floats are written
by ``repr``, so a p* read back is bit for bit the one computed.

``--compare`` reads two census files (say, of a parent tree and of a
change) and lists the families whose support face differs, the largest
margin and centre differences, and per alpha the outcome flips with both
trees' residuals, how many p* are bit-identical and the largest |dp*|.

Run it with one BLAS thread, on the tree under test::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/forward_census.py --families 1500 --out new.jsonl
    python tools/forward_census.py --compare old.jsonl new.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ALPHAS = (0.3, 0.5, 2.0, 3.0, 5.0, 10.0)


def census(families: int, alphas, out) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from conftest import forward_corpus

    import divproj.projection as projection
    from divproj import LinearFamilySpec, forward_dpd_projection
    from divproj.errors import DivprojError

    runs = []
    solve = projection._parametric_solve

    def recorded(*args, **kwargs):
        solved = solve(*args, **kwargs)
        runs.append(float(solved[3]))
        return solved

    projection._parametric_solve = recorded
    corpus = forward_corpus(0)
    try:
        for index in range(families):
            q, f, a = next(corpus)
            lin = LinearFamilySpec(f, a, alphabet=q.alphabet)
            center, face = lin.interior_member()[0], lin.support_mask()
            record = {
                "family": index,
                "m": lin.m,
                "k": lin.k,
                "support": face.astype(int).tolist(),
                "margin": float(center[face].min()),
                "center": center.tolist(),
                "outcomes": [],
            }
            for alpha in alphas:
                runs.clear()
                outcome = {"alpha": alpha, "outcome": "solved", "p_star": None}
                try:
                    outcome["p_star"] = forward_dpd_projection(q, lin, alpha).p_star.probs.tolist()
                except DivprojError as exc:
                    outcome["outcome"] = type(exc).__name__
                outcome["runs"] = list(runs)
                record["outcomes"].append(outcome)
            out.write(json.dumps(record) + "\n")
    finally:
        projection._parametric_solve = solve


def _load(path: str) -> dict:
    with open(path) as fh:
        return {rec["family"]: rec for rec in map(json.loads, fh)}


def _runs(outcome: dict) -> str:
    return ", ".join(f"{r:.2g}" for r in outcome["runs"]) or "none"


def compare(path_a: str, path_b: str) -> None:
    a, b = _load(path_a), _load(path_b)
    shared = sorted(set(a) & set(b))
    print(f"families: {len(shared)} in both ({len(a)} in {path_a}, {len(b)} in {path_b})")
    faces = [i for i in shared if a[i]["support"] != b[i]["support"]]
    print(f"support faces that differ: {len(faces)}" + (f" (families {faces})" if faces else ""))
    margin = max((abs(a[i]["margin"] - b[i]["margin"]) for i in shared), default=0.0)
    center = max(
        (float(np.max(np.abs(np.subtract(a[i]["center"], b[i]["center"])))) for i in shared), default=0.0
    )
    print(f"largest |margin difference|: {margin:.3g}; largest |centre difference|: {center:.3g}")
    alphas = [[o["alpha"] for o in rec["outcomes"]] for rec in (a[shared[0]], b[shared[0]])] if shared else [[]]
    if alphas[0] != alphas[-1]:
        raise SystemExit(f"the two censuses ran different alphas: {alphas[0]} and {alphas[-1]}")
    flips = []
    print("alpha  solved_a  solved_b  both  bit-identical  max|dp*|")
    for j, alpha in enumerate(alphas[0]):
        solved_a = solved_b = both = same = 0
        delta = 0.0
        for i in shared:
            oa, ob = a[i]["outcomes"][j], b[i]["outcomes"][j]
            solved_a += oa["outcome"] == "solved"
            solved_b += ob["outcome"] == "solved"
            if oa["outcome"] != ob["outcome"]:
                flips.append((i, alpha, oa, ob))
            elif oa["outcome"] == "solved":
                pa, pb = np.array(oa["p_star"]), np.array(ob["p_star"])
                both += 1
                same += pa.tobytes() == pb.tobytes()
                delta = max(delta, float(np.max(np.abs(pa - pb))))
        print(f"{alpha:<6g} {solved_a:<9d} {solved_b:<9d} {both:<5d} {same:<14d} {delta:.3g}")
    print(f"outcome flips: {len(flips)}")
    for i, alpha, oa, ob in flips:
        print(
            f"  family {i} alpha {alpha:g}: a {oa['outcome']} (runs {_runs(oa)}),"
            f" b {ob['outcome']} (runs {_runs(ob)})"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", type=int, default=1500, help="corpus families to run")
    parser.add_argument("--alphas", default=",".join(f"{a:g}" for a in ALPHAS), help="comma-separated alphas")
    parser.add_argument("--out", default="-", help="census file to write (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two census files")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    alphas = [float(x) for x in args.alphas.split(",")]
    if args.out == "-":
        census(args.families, alphas, sys.stdout)
    else:
        with open(args.out, "w") as out:
            census(args.families, alphas, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
