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
from .families import FamilyKind, FamilySpec, _check_thetas, _members, member_with_normalizer
from .measures import Distribution, SampleData, check_alpha, empirical_weights
from .oracle import SimplexGrid

MATCHED_LIKELIHOOD = {family: kind for kind, family in MATCHED_FAMILY.items()}
CONST_TOL = 1e-9  # how far from constant an equal-T likelihood difference may be
MAX_COMPOSITIONS = 5 * 10**4  # an equal-T search over more would not finish in seconds


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
    model_kind, f, alpha = _statistic_inputs(model_kind, q, f, alpha)
    if sample.n == 0:
        raise EmptySampleError("sufficient statistic of an empty sample")
    return SufficientStatistic(model_kind, *_statistic(model_kind, empirical_weights(sample, q.m), q, f, alpha))


def _statistic_inputs(model_kind: FamilyKind, q: Distribution, f, alpha: float):
    """``(model_kind, f, alpha)`` checked against the reference measure q."""
    if not q.is_strictly_positive():
        raise DomainError("reference measure must have full support")
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if f.ndim != 2 or f.shape[1] != q.m:
        raise DomainError(f"statistic has shape {f.shape}, expected (k, {q.m})")
    return FamilyKind(model_kind), f, check_alpha(alpha, allow_one=True)


def _statistic(model_kind: FamilyKind, ph: np.ndarray, q: Distribution, f: np.ndarray, alpha: float):
    """``(value, components_doc)`` of the statistic at the empirical weights ``ph``."""
    fbar = f @ ph
    if model_kind in (FamilyKind.EXPONENTIAL, FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW):
        return fbar, "sample mean of f"
    if model_kind is FamilyKind.ALPHA_POWER_LAW:
        denom = float(ph @ q.probs ** (alpha - 1.0))
        return _quotient(fbar, denom, alpha), "sample mean of f over sample mean of Q^(alpha-1)"
    # alpha-exponential: escort averages under the scaled empirical measure
    w = ph**alpha
    w = _quotient(w, float(w.sum()), alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        denom = float(w @ q.probs ** (1.0 - alpha))
    return _quotient(f @ w, denom, alpha), "escort mean of f over escort mean of Q^(1-alpha)"


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
    grid = _check_thetas(spec, theta_grid)
    rows, probs, _ = _members(spec, grid)
    if not rows.size:
        raise DomainError("no admissible grid point")
    grid = grid[rows]
    vals_a = likelihood_rows(kind, probs, sample_a.empirical.probs, spec.alpha)
    vals_b = likelihood_rows(kind, probs, sample_b.empirical.probs, spec.alpha)
    diff = vals_a - vals_b
    deviation = float(np.max(np.abs(diff - diff.mean())))
    ia, ib = int(np.argmax(vals_a)), int(np.argmax(vals_b))
    if t_equal and deviation > CONST_TOL:
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
    enumerated once, so no pair repeats a count vector), at most
    ``max_pairs``.  Each statistic meets the later ones in one numpy call
    per coordinate; more than MAX_COMPOSITIONS compositions are refused.
    """
    if not 1 <= n <= 60:
        raise DomainError("exhaustive search is meant for 1 <= n <= 60")
    grid = SimplexGrid(q.m, n)
    if grid.point_count() > MAX_COMPOSITIONS:
        raise DomainError(f"exhaustive search over {grid.point_count()} compositions exceeds {MAX_COMPOSITIONS}")
    model_kind, f, alpha = _statistic_inputs(model_kind, q, f, alpha)
    counts = grid.counts()
    stats = np.array([_statistic(model_kind, c / grid.resolution, q, f, alpha)[0] for c in counts]).T.copy()
    found = []
    for i in range(len(counts) - 1):
        close = np.flatnonzero(np.abs(stats[0, i + 1 :] - stats[0, i]) <= tol) + i + 1
        for coordinate in stats[1:]:
            close = close[np.abs(coordinate[close] - coordinate[i]) <= tol]
        for j in close[: max_pairs - len(found)]:
            found.append(tuple(SampleData.from_counts(counts[x], q.alphabet) for x in (i, j)))
        if len(found) >= max_pairs:
            break
    return found
