"""Seeded inputs, operations and correctness checks of the three workloads.

Every input is a pure function of ``(seed, op index)``: each op draws from
its own numpy stream ``default_rng([seed, stream, index])``, and the shares
the workloads promise (kinds, k = 2, sparse samples, vertex-pushed targets,
boundary faces) are fixed functions of the index, so they hold exactly on
every prefix of whole periods.  Nothing here imports from ``tests/``: edits
to the test suite cannot change the traffic.

The default (gated) mix holds only well-posed instances, so that no op
fails: statistic rows are centred and orthonormal, Q keeps every symbol at
Q_FLOOR or more, theta0 sits well inside the admissible region, and an
estimate sample is n * P_theta0 rounded to whole counts, so its optimum
cannot leave that region.  ``full=True`` gives the wider mix (multinomial
and sparse samples, boundary faces, single-member linear families) whose
known failures ``catalog.KNOWN_FAILURES`` names.

Each workload object offers ``op(i)`` (the untimed input of op ``i``),
``run(op)`` (the timed work, only public ``divproj`` calls) and
``check(op, out)`` (untimed verification).  A known failure class is
returned as its name; a wrong answer or an unknown error raises
:class:`Incorrect`.  ``run`` reaches the library through the ``divproj``
package attributes, so the traced run's wrappers see every layer call.
A timed run ends on a whole ``period`` of ops, so every run sees the
same mix of costly and cheap shapes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import divproj as dp
from divproj import (
    Alphabet,
    DivergenceKind,
    DivprojError,
    Distribution,
    EstimatorKind,
    FamilyKind,
    FamilySpec,
    InfeasibleError,
    NoConvergence,
    SampleData,
    ThetaGrid,
    empirical,
    eval_member,
    is_admissible,
)
from tracing import scipy_import_ms

class Incorrect(Exception):
    """An op returned a wrong answer or failed outside the known classes."""


def _stream(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _positive_point(rng, m, floor=0.05) -> np.ndarray:
    return (1.0 - m * floor) * rng.dirichlet(np.ones(m)) + floor


def _pinned_point(rng, m: int, floor: float) -> np.ndarray:
    """A point of the simplex whose smallest entry is exactly ``floor``, at a
    random symbol."""
    q = np.full(m, floor)
    q[np.arange(m) != rng.integers(m)] += (1.0 - m * floor) * rng.dirichlet(np.ones(m - 1))
    return q


def _statistic(rng, m: int, k: int) -> np.ndarray:
    """k orthonormal statistic rows, each orthogonal to the constant row.

    A constant component of a statistic is absorbed by the normalizer (and,
    in a linear family, by the sum-to-one constraint), so a row close to
    constant leaves the parameter nearly unidentified: flat optima, solves
    that stall and linear families that are nearly degenerate.
    """
    raw = rng.uniform(-1.0, 1.0, size=(m, k))
    basis, _ = np.linalg.qr(raw - raw.mean(axis=0))
    return basis.T


def _bracket_scale(kind: FamilyKind, alpha: float, q: np.ndarray) -> float:
    """rho <= 1 such that, for orthonormal statistic rows f, the tilt
    (1 - alpha) theta.f stays below the smallest term Q(x)^(alpha - 1)
    (Q(x)^(1 - alpha) for the alpha-exponential kind) of the bracket while
    ||theta|| < rho."""
    if kind is FamilyKind.EXPONENTIAL:
        return 1.0
    power = 1.0 - alpha if kind is FamilyKind.ALPHA_EXPONENTIAL else alpha - 1.0
    return min(1.0, float(np.min(q ** power)) / abs(1.0 - alpha))


def _matched_family(rng, family_kind: FamilyKind, alpha: float, m: int, k: int, floor: float):
    """A family of ``family_kind`` and an admissible theta0 well inside it.

    Q's smallest entry is ``floor``, so that rho, and with it the size of
    the admissible region and the cost of the grid oracle over it, depends
    only on the kind and alpha.  With rho from
    :func:`_bracket_scale`, the statistic rows are orthonormal, centred and
    scaled by STAT_SCALE * sqrt(rho), so every theta with ||theta|| <
    sqrt(rho) / STAT_SCALE is admissible, and theta0 is uniform on
    sqrt(rho) * [-THETA0_HALF_WIDTH, THETA0_HALF_WIDTH]^k: the bracket at
    theta0 keeps at least half of its value at theta = 0.  Splitting rho
    evenly between the statistic and theta keeps the statistic near the O(1)
    scale the solvers' absolute tolerances expect, and the admissible region
    many 0.02 grid cells wide.
    """
    alphabet = Alphabet.of_size(m)
    for _ in range(100):
        q = _pinned_point(rng, m, floor)
        root = np.sqrt(_bracket_scale(family_kind, alpha, q))
        f = STAT_SCALE * root * _statistic(rng, m, k)
        try:
            spec = FamilySpec(family_kind, Distribution(alphabet, q), f, alpha=alpha)
        except DivprojError:
            continue
        theta0 = root * rng.uniform(-THETA0_HALF_WIDTH, THETA0_HALF_WIDTH, size=k)
        if is_admissible(spec, theta0):
            return spec, theta0
    raise RuntimeError(f"no admissible {family_kind.value} family with m={m}, k={k}")


def _counts_of(p: np.ndarray, n: int) -> np.ndarray:
    """n * p rounded to whole counts that sum to n (largest remainders)."""
    raw = n * p
    counts = np.floor(raw).astype(int)
    counts[np.argsort(counts - raw, kind="stable")[: n - int(counts.sum())]] += 1
    return counts


def _observations(counts, symbols) -> list:
    return [s for s, c in zip(symbols, counts) for _ in range(int(c))]


# --- estimate ------------------------------------------------------------------

ESTIMATORS = (
    EstimatorKind.MLE,
    EstimatorKind.HELLINGER,
    EstimatorKind.BASU,
    EstimatorKind.JONES,
)
MATCHED = {
    EstimatorKind.MLE: (FamilyKind.EXPONENTIAL, DivergenceKind.KL),
    EstimatorKind.HELLINGER: (FamilyKind.ALPHA_EXPONENTIAL, DivergenceKind.RENYI),
    EstimatorKind.BASU: (FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, DivergenceKind.DENSITY_POWER),
    EstimatorKind.JONES: (FamilyKind.ALPHA_POWER_LAW, DivergenceKind.REL_ALPHA_ENTROPY),
}
# the alphas of acceptance criterion 4: below 1 for Hellinger, above for Basu/Jones
ESTIMATE_ALPHAS = {
    EstimatorKind.MLE: (1.0,),
    EstimatorKind.HELLINGER: (0.3, 0.5, 0.8),
    EstimatorKind.BASU: (1.5, 2.0, 3.0),
    EstimatorKind.JONES: (1.5, 2.0, 3.0),
}
GRID_HALF_WIDTH = 3.0
GRID_STEP = 0.02
ROUTE_TOL = 1e-6
FLAT_ROUTE_TOL = 1e-4  # route gaps up to this are the route_gap_flat class
ORACLE_CELLS = 1.1
DENSE_N, SPARSE_N = 400, 30
Q_FLOOR = 0.15
FULL_Q_FLOOR = 0.05  # the full mix's, so that some sparse samples miss a symbol
STAT_SCALE = 0.8
THETA0_HALF_WIDTH = 0.3


@dataclass(frozen=True)
class EstimateOp:
    index: int
    kind: EstimatorKind
    alpha: float
    spec: FamilySpec
    sample: SampleData

    @property
    def sparse(self) -> bool:
        return self.sample.n == SPARSE_N


def estimate_shape(i: int, full: bool = False):
    """(estimator, alpha, k, m, n) of op i.

    Kinds rotate with period 4; within a kind, block = i // 4 picks alpha
    (period 3) and k = 2 on one block in five.  The full mix also draws
    n = 30 on one block in four, so every kind sees every combination once
    per 240 ops.
    """
    kind = ESTIMATORS[i % 4]
    block = i // 4
    alphas = ESTIMATE_ALPHAS[kind]
    k = 2 if block % 5 == 4 else 1
    n = SPARSE_N if full and block % 4 == 1 else DENSE_N
    return kind, alphas[block % len(alphas)], k, (4 if k == 2 else 3), n


class Estimate:
    name = "estimate"
    period = 20  # one op of each kind in each k slot
    warmup = period  # untimed ops before a timed loop
    trace_ops = 80

    def __init__(self, seed: int, workdir: str, trace: bool = False, full: bool = False):
        self.seed = seed
        self.full = full

    def op(self, i: int) -> EstimateOp:
        """A matched instance; its sample holds n * P_theta0 rounded to whole
        counts, or in the full mix n multinomial draws from P_theta0."""
        kind, alpha, k, m, n = estimate_shape(i, self.full)
        rng = _stream(self.seed, 0, i)
        floor = FULL_Q_FLOOR if self.full else Q_FLOOR
        spec, theta0 = _matched_family(rng, MATCHED[kind][0], alpha, m, k, floor)
        p = eval_member(spec, theta0).probs
        counts = rng.multinomial(n, p) if self.full else _counts_of(p, n)
        sample = empirical(_observations(counts, spec.alphabet.symbols), spec.alphabet)
        return EstimateOp(i, kind, alpha, spec, sample)

    def run(self, op: EstimateOp):
        spec, sample = op.spec, op.sample
        divergence_kind = MATCHED[op.kind][1]
        eq = dp.solve_estimating_equation(op.kind, spec, sample)
        pr = dp.solve_projection_equation(divergence_kind, spec, sample)
        lik = dp.maximize_likelihood(op.kind, spec, sample)
        rev = dp.reverse_dpd_projection(sample, spec) if op.kind is EstimatorKind.BASU else None
        k = spec.theta_dim
        steps = int(round(2 * GRID_HALF_WIDTH / GRID_STEP)) + 1
        grid = ThetaGrid.of([-GRID_HALF_WIDTH] * k, [GRID_HALF_WIDTH] * k, [steps] * k, k=k)
        theta_grid, grid_value = dp.grid_reverse_min(divergence_kind, op.alpha, sample, spec, grid)
        return eq, pr, lik, rev, theta_grid, grid_value

    def classify(self, op: EstimateOp, exc: Exception) -> str:
        if isinstance(exc, NoConvergence):
            return "no_convergence_sparse" if op.sparse else "no_convergence_dense"
        raise Incorrect(f"estimate op {op.index} ({op.kind.value}, n={op.sample.n}): {exc!r}")

    def check(self, op: EstimateOp, out) -> str:
        eq, pr, lik, rev, theta_grid, grid_value = out
        theta = eq.theta_star
        gap = max(
            float(np.max(np.abs(theta - pr.theta_star))),
            float(np.max(np.abs(theta - lik.theta_star))),
        )
        if gap > ROUTE_TOL:
            if gap <= FLAT_ROUTE_TOL:
                return "route_gap_flat"
            raise Incorrect(f"estimate op {op.index}: routes differ by {gap:.3e}")
        if rev is not None:
            if rev.theta is None or float(np.max(np.abs(rev.theta - theta))) > ROUTE_TOL:
                raise Incorrect(f"estimate op {op.index}: reverse projection disagrees")
        outside = np.abs(theta) > GRID_HALF_WIDTH
        if np.any(outside):
            # the box minimum of a convex objective sits on a face the
            # estimate lies beyond; the grid includes the faces exactly
            located = bool(np.any(theta_grid[outside] == np.sign(theta[outside]) * GRID_HALF_WIDTH))
        else:
            located = float(np.max(np.abs(theta_grid - theta))) <= ORACLE_CELLS * GRID_STEP
        if located:
            return "ok"
        # A narrow or non-convex valley can put the coarse argmin elsewhere; the
        # estimate must then beat every grid point, scored by the oracle's own
        # kernel at the single point theta.
        k = op.spec.theta_dim
        try:
            _, at_theta = dp.grid_reverse_min(
                MATCHED[op.kind][1], op.alpha, op.sample, op.spec, ThetaGrid.of(theta, theta, 1, k=k)
            )
        except DivprojError as exc:
            raise Incorrect(f"estimate op {op.index}: the oracle cannot score the estimate: {exc!r}") from None
        if at_theta > grid_value + 1e-12:
            raise Incorrect(f"estimate op {op.index}: a grid point beats the estimate")
        return "oracle_resolution"


# --- project -------------------------------------------------------------------

PROJECT_ALPHAS = (0.3, 0.5, 0.8, 1.5, 2.0, 3.0)
GAP_FLOOR = -1e-10
EQUALITY_TOL = 1e-9
GAP_NOISE_TOL = 1e-8  # gaps this small that miss the floors are the gap_noise class
SLACKNESS_TOL = 1e-10
MU_FLOOR = -1e-12
CLAMP_TOL = 1e-10  # fit_projection_form's own clamp tolerance
FIT_TOL = 1e-8
PYTHAGORAS_TRIALS = 3


@dataclass(frozen=True)
class ProjectFamily:
    index: int
    q: Distribution
    f: np.ndarray
    a: np.ndarray
    face: np.ndarray  # symbols some member can carry

    @property
    def boundary(self) -> bool:
        return not bool(self.face.all())


@dataclass(frozen=True)
class ProjectOp:
    index: int
    family: ProjectFamily
    alpha: float
    rng: np.random.Generator


def project_shape(j: int, full: bool = False):
    """(m, k, vertex-pushed, boundary face) of family j.

    The full mix is criterion 6's: k = 2 on one family in three, also at
    m = 3, where the family is a single member, and one family in ten a
    boundary face.  Otherwise k = 2 only at m = 4 (one family in six) and no
    face is a boundary face.
    """
    m = 3 if j % 2 == 0 else 4
    k = 2 if j % 3 == 1 and (full or m == 4) else 1
    return m, k, j % 3 == 2, full and j % 10 == 9


class Project:
    name = "project"
    period = 36  # six families: every (m, k) shape, two of them vertex-pushed
    warmup = period
    trace_ops = 120

    def __init__(self, seed: int, workdir: str, trace: bool = False, full: bool = False):
        self.seed = seed
        self.full = full
        self._families = {}
        self._built = {}

    def family(self, j: int) -> ProjectFamily:
        if j not in self._families:
            self._families[j] = self._make_family(j)
        return self._families[j]

    def _make_family(self, j: int) -> ProjectFamily:
        m, k, pushed, boundary = project_shape(j, self.full)
        rng = _stream(self.seed, 1, j)
        q = Distribution(Alphabet.of_size(m), _positive_point(rng, m))
        f = _statistic(rng, m, k)
        support = np.ones(m, dtype=bool)
        if boundary:
            # row 0 pins P(missing) = 0 on every member: a legal face
            missing = int(rng.integers(m))
            support[missing] = False
            f[0] = rng.uniform(-0.5, 0.5)
            f[0, missing] += 1.0
        target = np.zeros(m)
        target[support] = rng.dirichlet(np.ones(int(support.sum())))
        if pushed:
            vertex = j % m if support[j % m] else int(np.argmax(support))
            centre = support / support.sum()
            target = 0.85 * np.eye(m)[vertex] + 0.15 * centre
        return ProjectFamily(j, q, f, f @ target, support)

    def op(self, i: int) -> ProjectOp:
        return ProjectOp(
            i, self.family(i // len(PROJECT_ALPHAS)), PROJECT_ALPHAS[i % len(PROJECT_ALPHAS)],
            _stream(self.seed, 2, i),
        )

    def run(self, op: ProjectOp):
        fam = op.family
        lin = self._built.get(fam.index)
        if lin is None:
            # the family is built inside its first op and reused by the rest
            lin = dp.LinearFamilySpec(fam.f, fam.a, alphabet=fam.q.alphabet)
            self._built = {fam.index: lin}
        res = dp.forward_dpd_projection(fam.q, lin, op.alpha)
        gaps = [
            dp.pythagorean_gap(lin.sample_member(op.rng), res.p_star, fam.q, op.alpha)
            for _ in range(PYTHAGORAS_TRIALS)
        ]
        fit = dp.fit_projection_form(res.p_star, fam.q, lin, op.alpha)
        return res, gaps, fit

    def classify(self, op: ProjectOp, exc: Exception) -> str:
        if isinstance(exc, InfeasibleError) and op.family.boundary:
            return "boundary_face_no_member"
        if isinstance(exc, NoConvergence):
            return "projection_no_convergence"
        raise Incorrect(f"project op {op.index}: {exc!r}")

    def check(self, op: ProjectOp, out) -> str:
        res, gaps, fit = out
        p_star = res.p_star.probs
        full = bool(np.all(p_star > 0.0))
        worst = max(abs(g) for g in gaps)
        if min(gaps) < GAP_FLOOR or ((op.alpha < 1.0 or full) and worst > EQUALITY_TOL):
            if op.family.boundary and op.alpha < 1.0 and min(gaps) == -np.inf:
                return "boundary_face_gap_inf"
            if worst <= GAP_NOISE_TOL:
                return "gap_noise"
            raise Incorrect(f"project op {op.index}: Pythagorean gaps {min(gaps):.3e} .. {max(gaps):.3e}")
        theta, z, residual, clamp_ok = fit
        if residual > FIT_TOL:
            raise Incorrect(f"project op {op.index}: fit residual {residual:.3e}")
        mu_ok = face_mu_ok = True
        if op.alpha > 1.0 and not full:
            mu = res.kkt_multipliers["mu"]
            if float(np.max(np.abs(mu * p_star))) > SLACKNESS_TOL:
                raise Incorrect(f"project op {op.index}: complementary slackness fails")
            mu_ok = bool(np.all(mu >= MU_FLOOR))
            face_mu_ok = bool(np.all(mu[op.family.face] >= MU_FLOOR))
        if clamp_ok and mu_ok:
            return "ok"
        # symbols the face excludes are zero for every member, not clamped
        fam = op.family
        bracket = fam.q.probs ** (op.alpha - 1.0) + (1.0 - op.alpha) * (z + theta @ fam.f)
        face_clamp_ok = bool(np.all(bracket[fam.face & (p_star == 0.0)] <= CLAMP_TOL))
        if fam.boundary and face_clamp_ok and face_mu_ok:
            return "boundary_face_certificate"
        raise Incorrect(f"project op {op.index}: clamp condition {clamp_ok}, mu >= 0 {mu_ok}")


# --- cli -----------------------------------------------------------------------


def _dump(path, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


class Cli:
    """Cold ``python -m divproj.cli`` processes over every README subcommand.

    The input files are written once per run; the mix below is cycled in a
    fixed order, one process at a time.  Its 22 calls take about 19 s on a
    2-CPU Xeon, so a 30 s run ends after two whole cycles, with room for the
    machine to run 20% faster or 50% slower before the cycle count changes.
    """

    name = "cli"
    children_rss = True  # peak memory is the largest child's
    warmup = 0  # every op is a cold process; the set-ups have warmed the file cache

    def __init__(self, seed: int, workdir: str, trace: bool = False, full: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.full = full
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.commands = self._write_inputs()
        self.period = self.trace_ops = len(self.commands)

    def _write_inputs(self):
        rng = _stream(self.seed, 3, 0)
        labels = ["a", "b", "c"]
        alphabet = Alphabet(tuple(labels))

        def path(name):
            return os.path.join(self.workdir, name)

        def files(name, spec, theta):
            """A family file and a sample file of n = 400 at an admissible member."""
            p = eval_member(spec, theta).probs
            counts = rng.multinomial(DENSE_N, p) if self.full else _counts_of(p, DENSE_N)
            fam = {"kind": spec.kind.value, "alpha": spec.alpha, "q": spec.q.probs.tolist(),
                   "f": spec.f.tolist(), "alphabet": labels}
            smp = {"alphabet": labels, "observations": _observations(counts, labels)}
            return _dump(path(f"{name}-family.json"), fam), _dump(path(f"{name}-sample.json"), smp), theta

        def family(name, kind, alpha):
            spec, theta = _matched_family(rng, kind, alpha, 3, 1, Q_FLOOR)
            spec = FamilySpec(kind, Distribution(alphabet, spec.q.probs), spec.f, alpha=alpha)
            return files(name, spec, theta)

        jones_fam, jones_smp, _ = family("jones", FamilyKind.ALPHA_POWER_LAW, 2.0)
        basu_fam, basu_smp, basu_theta = family("basu", FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, 2.0)
        hell_fam, hell_smp, _ = family("hellinger", FamilyKind.ALPHA_EXPONENTIAL, 0.5)
        # an affine statistic, so counts c and c + (1, -2, 1) share its sample mean
        affine = rng.uniform(0.5, 1.0) * np.array([[0.0, 1.0, 2.0]]) + rng.uniform(-0.3, 0.3)
        exp_q = Distribution(alphabet, _positive_point(rng, 3, Q_FLOOR))
        exp_theta = rng.uniform(-THETA0_HALF_WIDTH, THETA0_HALF_WIDTH, size=1)
        exp_fam, exp_smp, _ = files("exp", FamilySpec(FamilyKind.EXPONENTIAL, exp_q, affine), exp_theta)
        counts = rng.integers(3, 12, size=3)
        pair = []
        for name, c in (("a", counts), ("b", counts + np.array([1, -2, 1]))):
            obs = [lab for lab, n in zip(labels, c) for _ in range(int(n))]
            pair.append(_dump(path(f"pair-{name}.json"), {"alphabet": labels, "observations": obs}))
        p = _dump(path("p.json"), {"alphabet": labels, "probs": _positive_point(rng, 3).tolist()})
        q = _dump(path("q.json"), {"alphabet": labels, "probs": _positive_point(rng, 3).tolist()})
        # a statistic whose values span less than 1: walking the simplex grid
        # from its lowest to its highest vertex one unit of 1/resolution at a
        # time moves f.p by less than 1/resolution, so some grid point is
        # within the forward oracle's 0.5/resolution tolerance of the constraint
        lin_f = 0.5 * _statistic(rng, 3, 1)
        lin = _dump(path("linear.json"),
                    {"f": lin_f.tolist(), "a": (lin_f @ _positive_point(rng, 3, 0.1)).tolist()})
        commands = [
            ["estimate", "--kind", "jones", "--family", jones_fam, "--sample", jones_smp, "--route", "both"],
            ["estimate", "--kind", "basu", "--family", basu_fam, "--sample", basu_smp, "--route", "both"],
            ["estimate", "--kind", "mle", "--family", exp_fam, "--sample", exp_smp, "--route", "both"],
            ["estimate", "--kind", "hellinger", "--family", hell_fam, "--sample", hell_smp, "--route", "both"],
            ["project", "reverse", "--family", basu_fam, "--sample", basu_smp],
            ["suffcheck", "--model", "exp", "--family", exp_fam, "--sample-a", pair[0],
             "--sample-b", pair[1], "--grid=-1:1:101"],
            ["oracle", "reverse", "--kind", "kl", "--family", exp_fam, "--sample", exp_smp,
             "--box=-2:2:201"],
            ["oracle", "reverse", "--kind", "dpd", "--alpha", "2", "--family", basu_fam,
             "--sample", basu_smp, "--box=-2:2:201"],
            ["oracle", "forward", "--kind", "dpd", "--alpha", "2", "--q", q, "--linear", lin,
             "--resolution", "60"],
            ["sample", "--family", exp_fam, "--theta", "0.3", "--n", "1000", "--rate", "0.1",
             "--outlier", "c", "--out", path("drawn.json")],
            ["family", "eval", "--spec", basu_fam, "--theta", repr(float(basu_theta[0]))],
        ]
        for alpha in ("0.5", "2"):
            commands += [
                ["project", "forward", "--alpha", alpha, "--q", q, "--linear", lin],
                ["verify", "pythagoras", "--alpha", alpha, "--q", q, "--linear", lin, "--trials", "20"],
            ]
        for model, (fam, smp) in (("bpow", (basu_fam, basu_smp)), ("mpow", (jones_fam, jones_smp)),
                                  ("aexp", (hell_fam, hell_smp))):
            commands.append(["suffstat", "--model", model, "--family", fam, "--sample", smp])
        for kind in ("kl", "renyi", "dpd", "rae"):
            commands.append(["divergence", "--kind", kind, "--alpha", "2", "--p", p, "--q", q])
        return commands

    def op(self, i: int):
        return i, self.commands[i % len(self.commands)]

    def _spans_path(self, op) -> str:
        return os.path.join(self.workdir, f"spans-{op[0]}.json")

    def run(self, op):
        _, argv = op
        if self.trace:
            launcher = os.path.join(self.root, "bench", "cli_child.py")
            cmd = [sys.executable, "-X", "importtime", launcher, self._spans_path(op), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "divproj.cli", *argv]
        return subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=120)

    def adopt_trace(self, rec, op, proc, span: int) -> None:
        """Merge the child's spans under the op span, plus its scipy import time."""
        path = self._spans_path(op)
        with open(path, encoding="utf-8") as fh:
            rec.extend(json.load(fh), op=op[0], parent=span)
        os.remove(path)
        rec.count("cli.import_scipy_ms", scipy_import_ms(proc.stderr), op[0])

    def classify(self, op, exc):
        raise Incorrect(f"cli op {op[0]}: {exc!r}")

    def check(self, op, proc) -> str:
        what = " ".join(op[1][:2])
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            raise Incorrect(f"cli `{what}` exited {proc.returncode} without JSON: {proc.stderr[-300:]}") from None
        if not isinstance(report, dict) or "command" not in report:
            raise Incorrect(f"cli `{what}` report lacks its command")
        if proc.returncode == 0:
            return "ok"
        # exit 1 is the cli's numeric-failure contract: a partial JSON report
        if proc.returncode == 1 and op[1][0] == "estimate" and report.get("error") == "NoConvergence":
            return "no_convergence_dense"
        raise Incorrect(f"cli `{what}` exited {proc.returncode}: {report.get('error')}")


WORKLOADS = {w.name: w for w in (Estimate, Project, Cli)}
