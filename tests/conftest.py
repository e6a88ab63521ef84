"""Shared builders for desk-scale random instances."""

import numpy as np
import pytest

from divproj.divergences import DivergenceKind
from divproj.estimators import EstimatorKind
from divproj.families import FamilyKind, FamilySpec, is_admissible
from divproj.measures import Alphabet, Distribution, SampleData, empirical


def rng_of(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_distribution(rng, m, floor=0.05) -> Distribution:
    """Strictly positive random point, bounded away from the boundary."""
    raw = rng.dirichlet(np.ones(m))
    probs = (1.0 - m * floor) * raw + floor
    return Distribution(Alphabet.of_size(m), probs, strict=True)


def random_statistics(rng, k, m, scale=1.0) -> np.ndarray:
    """k statistic rows with independent rows (a.s.) and bounded entries."""
    return scale * rng.uniform(-1.0, 1.0, size=(k, m))


def random_family(rng, kind, m=3, k=1, alpha=2.0, f_scale=1.0, max_tries=50) -> FamilySpec:
    kind = FamilyKind(kind)
    for _ in range(max_tries):
        q = random_distribution(rng, m)
        f = random_statistics(rng, k, m, scale=f_scale)
        try:
            return FamilySpec(kind, q, f, alpha=alpha)
        except Exception:
            continue
    raise RuntimeError("could not build a random family")


def random_admissible_theta(rng, spec, scale=0.3, max_tries=200) -> np.ndarray:
    for _ in range(max_tries):
        theta = rng.uniform(-scale, scale, size=spec.theta_dim)
        if is_admissible(spec, theta):
            return theta
    raise RuntimeError("could not find an admissible parameter")


def sample_from(spec, theta, n, rng) -> SampleData:
    from divproj.families import eval_member

    p = eval_member(spec, theta)
    idx = rng.choice(spec.alphabet.size, size=n, p=p.probs)
    return empirical([spec.alphabet.symbols[i] for i in idx], spec.alphabet)


@pytest.fixture
def rng():
    return rng_of(20260810)


MATCHED_DIVERGENCE = {
    EstimatorKind.MLE: DivergenceKind.KL,
    EstimatorKind.HELLINGER: DivergenceKind.RENYI,
    EstimatorKind.BASU: DivergenceKind.DENSITY_POWER,
    EstimatorKind.JONES: DivergenceKind.REL_ALPHA_ENTROPY,
}


def forward_corpus(seed: int = 0):
    """Endless (Q, f, a) instances for fuzzing forward projections.

    m in 3..5 and k in 1..3; Q is Dirichlet(1) floored at 0.02 and
    renormalized; f is standard normal.  Three families in ten are boundary
    faces, pinned through row 0 as the bench's project workload does: row 0
    is a constant plus the indicator of one symbol, and the target leaves
    that symbol empty, so every member does.  Three targets in ten are
    Dirichlet(0.3) points near the faces of the simplex, the rest
    Dirichlet(1).
    """
    rng = rng_of(seed)
    while True:
        m, k = int(rng.integers(3, 6)), int(rng.integers(1, 4))
        q = np.maximum(rng.dirichlet(np.ones(m)), 0.02)
        f = rng.standard_normal((k, m))
        support = np.ones(m, dtype=bool)
        if rng.random() < 0.3:
            missing = int(rng.integers(m))
            support[missing] = False
            f[0] = rng.uniform(-0.5, 0.5)
            f[0, missing] += 1.0
        target = np.zeros(m)
        concentration = 0.3 if rng.random() < 0.3 else 1.0
        target[support] = rng.dirichlet(np.full(int(support.sum()), concentration))
        yield Distribution(Alphabet.of_size(m), q / q.sum()), f, f @ target
