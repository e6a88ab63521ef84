"""What the benchmark reports about its outcomes and layers, in stdlib-only tables.

``run.py`` reads these without importing numpy or divproj; metric names,
units and bounds live in ``BENCHMARK.json`` at the checkout root.
"""

# Failure classes known at the parent commit: ROADMAP items 4 and 5 name the
# defects.  The gated mix leaves out the inputs that hit them (sparse and
# multinomial samples, boundary faces, single-member linear families); an op
# that still ends in one is counted as failed.  ``--mix full`` draws them, and
# the rates quoted are from that mix.  Any other error or wrong answer makes
# the run incorrect.
KNOWN_FAILURES = {
    "no_convergence_sparse": "estimate: a route raises NoConvergence on an n=30 sample (about 1 in 25)",
    "no_convergence_dense": (
        "estimate, or a cli estimate call (exit 1): a route raises NoConvergence on "
        "n=400 multinomial draws (about 1 op in 500), whose optimum can leave the admissible "
        "region; gated samples are n * P_theta0 rounded, so it stays inside"
    ),
    "route_gap_flat": (
        "estimate: the three routes agree only to between 1e-6 and 1e-4 at nearly flat optima: "
        "a statistic row close to constant, or a small statistic, as the full mix draws at "
        "alpha = 3 with Q(x) down to 0.05 (about 1 dense op in 60; ROADMAP item 5)"
    ),
    "boundary_face_gap_inf": (
        "project: a sample_member draw on a boundary face keeps ~1e-17 mass off "
        "the support, so the alpha<1 Pythagorean gap is -inf (ROADMAP item 4)"
    ),
    "boundary_face_certificate": (
        "project: at alpha>1 on a boundary face the clamp condition and the sign of "
        "the KKT multiplier mu fail on the symbols the face excludes (ROADMAP item 4)"
    ),
    "projection_no_convergence": (
        "project: forward_dpd_projection raises NoConvergence; seen with uncentred statistic "
        "rows on single-member families (m = 3, k = 2) and about 1 op in 5000 at alpha>1 with "
        "a vertex-pushed target (ROADMAP item 4)"
    ),
    "gap_noise": (
        "project: a Pythagorean gap misses its 1e-10 floor or 1e-9 equality by at most "
        "1e-8, on single-member or nearly degenerate families (a statistic row close to "
        "constant, which centred rows rule out) where sample_member draws sit ~1e-9 off the "
        "constraints (ROADMAP item 4)"
    ),
    "boundary_face_no_member": (
        "project: sample_member raises InfeasibleError on a boundary face "
        "(ROADMAP item 4)"
    ),
}
# Outcomes that pass their checks but are worth counting.
PASS_NOTES = {
    "oracle_resolution": (
        "estimate: the 0.02-cell grid argmin is more than 1.1 cells from the estimate, "
        "or off the box faces it crosses (a narrow valley), and the estimate beats every grid point"
    ),
}


# which end-to-end metric each layer metric should move, on which workload
SHOULD_MOVE = {
    "measures": "latency_p50_ms on estimate",
    "divergences": "throughput_ops_s on project; latency_tail_ms on estimate (oracle)",
    "families": "latency_p50_ms / latency_tail_ms + throughput_ops_s on estimate; no change on project",
    "families.linear": "throughput_ops_s on project; latency_p50_ms on cli",
    "estimators": "throughput_ops_s on estimate",
    "solvers": "latency_p50_ms on estimate; latency_tail_ms on estimate --mix full (sparse share)",
    "projection": "throughput_ops_s + latency_tail_ms on project",
    "oracle": "latency_tail_ms on estimate; latency_p50_ms on cli",
    "cli": "latency_p50_ms on cli; setup_s on all",
    "fileio": "latency_p50_ms on cli; setup_s on all",
}


def should_move(metric: str) -> str:
    layer = "families.linear" if metric.startswith("families.linear") else metric.split(".")[0]
    return SHOULD_MOVE.get(layer, "")
