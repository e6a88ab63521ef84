"""Tests of the benchmark's own generators and tracing.

Run with ``PYTHONPATH=src python -m pytest -q bench/test_bench.py`` from the
checkout root.
"""

import sys

import numpy as np
import pytest

import divproj
import tracing
import worker
import workloads
from workloads import Cli, Estimate, Project, estimate_shape, project_shape


def _estimate_inputs(seed, ops, full=False):
    gen = Estimate(seed, None, full=full)
    return [(o.kind, o.alpha, o.spec.q.probs, o.spec.f, o.sample.counts) for o in map(gen.op, range(ops))]


def _project_inputs(seed, families, full=False):
    gen = Project(seed, None, full=full)
    return [(f.q.probs, f.f, f.a, f.face) for f in map(gen.family, range(families))]


def _same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for u, v in zip(x, y):
            assert np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v


@pytest.mark.parametrize("full", [False, True])
def test_one_seed_gives_identical_inputs(full):
    _same(_estimate_inputs(7, 24, full), _estimate_inputs(7, 24, full))
    _same(_project_inputs(7, 12, full), _project_inputs(7, 12, full))
    first, second = _estimate_inputs(7, 8), _estimate_inputs(8, 8)
    assert any(not np.array_equal(a[4], b[4]) for a, b in zip(first, second))


def test_cli_inputs_repeat(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    a, b = Cli(3, str(one)), Cli(3, str(two))
    assert [c[:2] for c in a.commands] == [c[:2] for c in b.commands]
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        assert (one / name).read_text() == (two / name).read_text()


def test_cli_mix_covers_every_subcommand(tmp_path):
    commands = {tuple(c[:2]) if c[0] in ("project", "verify", "oracle", "family") else (c[0],)
                for c in Cli(0, str(tmp_path)).commands}
    assert commands == {
        ("estimate",), ("project", "forward"), ("project", "reverse"), ("verify", "pythagoras"),
        ("suffstat",), ("suffcheck",), ("oracle", "forward"), ("oracle", "reverse"), ("sample",),
        ("family", "eval"), ("divergence",),
    }


@pytest.mark.parametrize("full", [False, True])
def test_estimate_shares_over_one_period(full):
    shapes = [estimate_shape(i, full) for i in range(240)]
    kinds = [s[0] for s in shapes]
    for kind in workloads.ESTIMATORS:
        assert kinds.count(kind) == 60
        alphas = [s[1] for s in shapes if s[0] is kind]
        assert all(alphas.count(a) == 60 // len(workloads.ESTIMATE_ALPHAS[kind])
                   for a in workloads.ESTIMATE_ALPHAS[kind])
    assert sum(s[2] == 2 and s[3] == 4 for s in shapes) == 240 // 5
    assert sum(s[2] == 1 and s[3] == 3 for s in shapes) == 240 - 240 // 5
    assert sum(s[4] == workloads.SPARSE_N for s in shapes) == (240 // 4 if full else 0)
    assert {s[1] < 1.0 for s in shapes} == {True, False}


def test_gated_instances_are_well_posed():
    gen = Estimate(5, None)
    for i in range(40):
        op = gen.op(i)
        f = op.spec.f
        k = op.spec.theta_dim
        assert np.allclose(f.sum(axis=1), 0.0)
        scale = np.linalg.norm(f[0])
        assert np.allclose(f @ f.T, scale**2 * np.eye(k))
        assert op.spec.q.probs.min() == pytest.approx(workloads.Q_FLOOR)
        assert op.sample.n == workloads.DENSE_N
        # the counts are n * P_theta0 rounded: no symbol is missing
        assert op.sample.counts.min() > 0
    fams = [Project(5, None).family(j) for j in range(12)]
    for fam in fams:
        assert np.allclose(fam.f.sum(axis=1), 0.0)
        assert np.allclose(fam.f @ fam.f.T, np.eye(len(fam.f)))


def test_counts_round_n_times_p():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        counts = workloads._counts_of(p, 400)
        assert counts.sum() == 400
        assert np.all(np.abs(counts - 400 * p) < 1.0)


def test_sparse_samples_have_zero_counts():
    gen = Estimate(5, None, full=True)
    sparse = [gen.op(i) for i in range(240) if estimate_shape(i, True)[4] == workloads.SPARSE_N]
    assert all(o.sample.n == workloads.SPARSE_N for o in sparse)
    assert any(np.any(o.sample.counts == 0) for o in sparse)


@pytest.mark.parametrize("full", [False, True])
def test_project_shares_and_faces(full):
    shapes = [project_shape(j, full) for j in range(30)]
    assert sum(s[2] for s in shapes) == 10  # vertex-pushed: one in three
    # boundary faces, one in ten, and single-member families (k = m - 1)
    # only in the full mix
    assert sum(s[3] for s in shapes) == (3 if full else 0)
    single = {(3, 2)} if full else set()
    assert {(s[0], s[1]) for s in shapes} == {(3, 1), (4, 1), (4, 2)} | single
    gen = Project(2, None, full=full)
    for j in range(30):
        fam = gen.family(j)
        lin = divproj.LinearFamilySpec(fam.f, fam.a, alphabet=fam.q.alphabet)
        assert fam.boundary == project_shape(j, full)[3]
        assert np.array_equal(lin.support_mask(), fam.face)
    assert Project.period == 6 * len(workloads.PROJECT_ALPHAS)


def _snapshot():
    owners = [m for name, m in sorted(sys.modules.items())
              if m is not None and (name == "divproj" or name.startswith("divproj."))]
    owners += [divproj.Distribution, divproj.LinearFamilySpec, divproj.SimplexGrid]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_wrappers_are_fully_removed():
    before = _snapshot()
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    try:
        assert hasattr(divproj.families.linprog, "__bench_original__")
        assert hasattr(divproj.estimators.solve_residual, "__bench_original__")
        assert hasattr(divproj.forward_dpd_projection, "__bench_original__")
        assert hasattr(vars(divproj.LinearFamilySpec)["support_mask"], "__bench_original__")
    finally:
        tracing.uninstall(patches)
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert now[name] is value, (owner, name)
            assert not hasattr(now[name], "__bench_original__"), (owner, name)


@pytest.mark.parametrize("kind, ops", [(Estimate, 8), (Project, 12)])
def test_traced_counts_repeat_and_layers_are_bypassed(kind, ops):
    runs = []
    for _ in range(2):
        _, traced, rec = worker.trace_pairs(kind, 4, None, ops)
        runs.append(tracing.layer_metrics(rec, ops))
    counts = ("families.linear.lp_calls", "projection.slsqp_fallbacks",
              "families.normalizer_root.calls", "solvers.fd_jacobian.calls")
    for name in counts:
        assert runs[0][name] == runs[1][name], name
    if kind is Project:
        assert runs[0]["families.normalizer_root.calls"] == 0
        assert runs[0]["solvers.solve_residual.calls"] == 0
        assert runs[0]["families.linear.lp_calls"] > 0
    else:
        assert runs[0]["families.normalizer_root.calls"] > 0
        assert runs[0]["oracle.grid_reverse_min.points"] > 0


def test_self_time_subtracts_direct_children():
    rec = tracing.Recorder()
    rec.op = 0
    rec.record(tracing.OP, 0.0, 10.0)
    rec.stack.append(0)
    rec.record("families.eval_member", 1.0, 5.0)
    rec.stack.append(1)
    rec.record("families.normalizer_root", 2.0, 3.0)
    rec.stack.pop()
    rec.stack.pop()
    found = tracing.layer_metrics(rec, ops=1)
    assert found["trace.op_ms"] == pytest.approx(10e3)
    assert found["trace.unattributed_ms"] == pytest.approx(6e3)
    assert found["families.eval_member.ms"] == pytest.approx(3e3)
    assert found["families.normalizer_root.ms"] == pytest.approx(1e3)
    assert found["families.eval_member.calls"] == 1


def test_scipy_import_time_is_parsed():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   scipy._lib\n"
        "import time:      1000 |       1500 | scipy\n"
        "import time:       400 |        400 |     scipy.optimize._linprog\n"
        "import time:        50 |         50 | numpy.linalg\n"
        "divproj: some other message\n"
    )
    assert tracing.scipy_import_ms(stderr) == pytest.approx(1.52)
