"""Sufficient statistics of the generalized likelihoods.

Each (family, likelihood) pair admits a sample statistic T such that the
likelihood splits as g(theta, T) + h(sample); the estimator then depends on
the sample only through T.  The statistics:

* exponential / log-likelihood:               T = fbar
* non-normalized power-law / Basu likelihood: T = fbar
* power-law / Jones likelihood:               T = fbar / mean_sample[Q^(a-1)]
* alpha-exponential / Hellinger likelihood:   T = escort-mean[f] / escort-mean[Q^(1-a)]

where the escort means are taken under the scaled empirical measure
Ph^alpha / sum Ph^alpha.  ``likelihood_split`` returns the (g, h) pieces so
the decomposition itself is checkable, and ``factorization_check`` verifies
the testable consequence: equal-T samples shift the likelihood by a
constant and share the same maximizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateMismatch, DomainError, EmptySampleError
from .estimators import MATCHED_FAMILY, EstimatorKind, likelihood_rows
from .families import FamilyKind, FamilySpec, eval_members_batch, member_with_normalizer
from .measures import Distribution, SampleData, check_alpha
from .oracle import SimplexGrid

MATCHED_LIKELIHOOD = {family: kind for kind, family in MATCHED_FAMILY.items()}


@dataclass(frozen=True)
class SufficientStatistic:
    model_kind: FamilyKind
    value: np.ndarray
    components_doc: str


def sufficient_statistic(
    model_kind: FamilyKind,
    sample: SampleData,
    q: Distribution,
    f: np.ndarray,
    alpha: float = 1.0,
) -> SufficientStatistic:
    """The statistic through which the matched likelihood sees the sample."""
    model_kind = FamilyKind(model_kind)
    if sample.n == 0:
        raise EmptySampleError("sufficient statistic of an empty sample")
    if not q.is_strictly_positive():
        raise DomainError("reference measure must have full support")
    alpha = check_alpha(alpha, allow_one=True)
    f = np.atleast_2d(np.asarray(f, dtype=float))
    ph = sample.empirical.probs
    fbar = f @ ph
    if model_kind in (FamilyKind.EXPONENTIAL, FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW):
        return SufficientStatistic(model_kind, fbar, "sample mean of f")
    if model_kind is FamilyKind.ALPHA_POWER_LAW:
        denom = float(ph @ q.probs ** (alpha - 1.0))
        return SufficientStatistic(
            model_kind, _quotient(fbar, denom, alpha), "sample mean of f over sample mean of Q^(alpha-1)"
        )
    # alpha-exponential: escort averages under the scaled empirical measure
    w = ph**alpha
    w = _quotient(w, float(w.sum()), alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        denom = float(w @ q.probs ** (1.0 - alpha))
    return SufficientStatistic(
        model_kind,
        _quotient(f @ w, denom, alpha),
        "escort mean of f over escort mean of Q^(1-alpha)",
    )


def _quotient(num: np.ndarray, denom: float, alpha: float) -> np.ndarray:
    """num / denom, refused unless denom is finite and positive and the
    quotient finite: extreme alphas under- or overflow the powers in denom."""
    if 0.0 < denom < np.inf:
        with np.errstate(over="ignore"):
            value = num / denom
        if np.all(np.isfinite(value)):
            return value
    raise DomainError(f"alpha = {alpha} under- or overflows the statistic (denominator {denom:.6g})")


def likelihood_split(spec: FamilySpec, theta, sample: SampleData) -> tuple[float, float]:
    """(g, h) with matched_likelihood(theta) = g(theta, T) + h(sample).

    g depends on the sample only through the sufficient statistic; h not on
    theta.  Valid for members of the spec's own family kind.
    """
    a = spec.alpha
    ph = sample.empirical.probs
    stat = sufficient_statistic(spec.kind, sample, spec.q, spec.f, a).value
    p, z = member_with_normalizer(spec, theta)
    tilt = float(np.atleast_1d(np.asarray(theta, dtype=float)) @ stat)
    qbar = float(ph @ spec.q.probs ** (a - 1.0))
    if spec.kind is FamilyKind.EXPONENTIAL:
        return float(-np.log(z) + tilt), float(ph @ np.log(spec.q.probs))
    if spec.kind is FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW:
        g = -(a * z + 1.0 / (a - 1.0) + a * tilt + float(np.sum(p.probs**a)))
        return g, a / (a - 1.0) * qbar
    if spec.kind is FamilyKind.ALPHA_POWER_LAW:
        g = -a * np.log(z) + a / (a - 1.0) * np.log1p((1.0 - a) * tilt) - np.log(np.sum(p.probs**a))
        return float(g), float(a / (a - 1.0) * np.log(qbar))
    # alpha-exponential: h is the Hellinger likelihood of the reference itself
    h = likelihood_rows(EstimatorKind.HELLINGER, spec.q.probs, ph, a)
    return float(-np.log(z) + np.log1p((1.0 - a) * tilt) / (1.0 - a)), float(h)


@dataclass(frozen=True)
class FactorizationReport:
    t_a: np.ndarray
    t_b: np.ndarray
    t_equal: bool
    max_deviation_from_constant: float
    argmax_a: float | np.ndarray
    argmax_b: float | np.ndarray
    argmax_equal: bool


def factorization_check(
    spec: FamilySpec,
    sample_a: SampleData,
    sample_b: SampleData,
    theta_grid: np.ndarray,
    t_tol: float = 1e-10,
    const_tol: float = 1e-9,
) -> FactorizationReport:
    """Verify the equal-T consequence over a parameter grid.

    When T(sample_a) = T(sample_b) (within ``t_tol``), the matched
    likelihoods must differ by a theta-independent constant and share the
    grid argmax; reports the maximum deviation of the difference from its
    mean.
    """
    kind = MATCHED_LIKELIHOOD[spec.kind]
    t_a = sufficient_statistic(spec.kind, sample_a, spec.q, spec.f, spec.alpha).value
    t_b = sufficient_statistic(spec.kind, sample_b, spec.q, spec.f, spec.alpha).value
    t_equal = bool(np.max(np.abs(t_a - t_b)) <= t_tol)
    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[:, None]
    probs, ok = eval_members_batch(spec, grid)
    if not np.any(ok):
        raise DomainError("no admissible grid point")
    grid, probs = grid[ok], probs[ok]
    vals_a = likelihood_rows(kind, probs, sample_a.empirical.probs, spec.alpha)
    vals_b = likelihood_rows(kind, probs, sample_b.empirical.probs, spec.alpha)
    diff = vals_a - vals_b
    deviation = float(np.max(np.abs(diff - diff.mean())))
    ia, ib = int(np.argmax(vals_a)), int(np.argmax(vals_b))
    if t_equal and deviation > const_tol:
        raise CertificateMismatch(
            f"equal-T samples produced a non-constant likelihood difference ({deviation:.3e})",
            values=(float(diff.min()), float(diff.max())),
        )
    return FactorizationReport(
        t_a=t_a,
        t_b=t_b,
        t_equal=t_equal,
        max_deviation_from_constant=deviation,
        argmax_a=grid[ia],
        argmax_b=grid[ib],
        argmax_equal=bool(ia == ib),
    )


def equal_statistic_pairs(
    model_kind: FamilyKind,
    q: Distribution,
    f: np.ndarray,
    alpha: float,
    n: int,
    tol: float = 1e-10,
    max_pairs: int = 20,
):
    """Exhaustively search count vectors of total n for equal-T sample pairs.

    Returns a list of ``(sample_a, sample_b)`` with different count vectors
    whose sufficient statistics agree within ``tol`` (each composition is
    enumerated once, so no pair repeats a count vector).  Intended for
    n <= 12 at desk scale.
    """
    if not 1 <= n <= 60:
        raise DomainError("exhaustive search is meant for 1 <= n <= 60")
    found = []
    stats = []
    samples = []
    for counts in SimplexGrid(q.m, n).counts():
        sample = SampleData.from_counts(counts, q.alphabet)
        stats.append(sufficient_statistic(model_kind, sample, q, f, alpha).value)
        samples.append(sample)
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            if np.max(np.abs(stats[i] - stats[j])) <= tol:
                found.append((samples[i], samples[j]))
                if len(found) >= max_pairs:
                    return found
    return found
