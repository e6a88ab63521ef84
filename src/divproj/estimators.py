"""Generalized likelihoods, score functions and estimating equations.

The four estimator kinds and their defining pieces:

===========  =============================================  =======================
kind         estimating equation (zero at a solution)        likelihood
===========  =============================================  =======================
MLE          sum_x Ph(x) s(x)                                (1/n) sum_j log P(X_j)
HELLINGER    sum_x Ph(x)^a P(x)^(1-a) s(x)                   (1/(1-a)) log sum Ph^a P^(1-a)
BASU         sum_x Ph(x) P(x)^(a-1) s(x) - sum_x P^a s(x)    (a/(a-1)) mean P^(a-1) - 1/(a-1) - sum P^a
JONES        normalized version of the BASU two sides        (a/(a-1)) log mean P^(a-1) - log sum P^a
===========  =============================================  =======================

with s(x) = grad_theta log P_theta(x) the score and Ph the empirical
measure.  All robust kinds collapse to the MLE versions at alpha = 1; the
collapse is implemented by explicit dispatch.  Scores are analytic for all
four family kinds (validated against central differences in the tests).
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DomainViolation
from .families import (
    FamilyKind,
    FamilySpec,
    _check_theta,
    eval_member,
    eval_members_batch,
    member_with_normalizer,
)
from .measures import SampleData, check_alpha, empirical_weights, reduce_rows
from .solvers import (
    MAX_ITER,
    RESIDUAL_TOL,
    Route,
    SolveReport,
    solve_residual,
)


class EstimatorKind(enum.Enum):
    MLE = "mle"
    HELLINGER = "hellinger"
    BASU = "basu"
    JONES = "jones"


MATCHED_FAMILY = {
    EstimatorKind.MLE: FamilyKind.EXPONENTIAL,
    EstimatorKind.HELLINGER: FamilyKind.ALPHA_EXPONENTIAL,
    EstimatorKind.BASU: FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW,
    EstimatorKind.JONES: FamilyKind.ALPHA_POWER_LAW,
}


def is_matched_pair(kind: EstimatorKind, spec: FamilySpec) -> bool:
    return MATCHED_FAMILY[EstimatorKind(kind)] is spec.kind


# --- scores -------------------------------------------------------------------


def score_matrix(spec: FamilySpec, theta) -> np.ndarray:
    """Analytic scores s(x; theta) for every symbol, as a (k, m) matrix."""
    p, z = member_with_normalizer(spec, theta)
    return _scores(spec, p.probs, z)


def _scores(spec: FamilySpec, pv: np.ndarray, z: float) -> np.ndarray:
    f = spec.f
    a = spec.alpha
    if spec.kind is FamilyKind.EXPONENTIAL:
        mean_f = f @ pv
        return f - mean_f[:, None]
    if spec.kind is FamilyKind.ALPHA_POWER_LAW:
        heavy = f @ (pv ** (2.0 - a))
        return z ** (1.0 - a) * (heavy[:, None] - f * (pv ** (1.0 - a))[None, :])
    if spec.kind is FamilyKind.ALPHA_EXPONENTIAL:
        mean_pow = f @ (pv**a)
        return z ** (a - 1.0) * (f * (pv ** (a - 1.0))[None, :] - mean_pow[:, None])
    # non-normalized power law: grad Z = -sum P^(2-a) f / sum P^(2-a)
    w = pv ** (2.0 - a)
    grad_z = -(f @ w) / w.sum()
    return -(pv ** (1.0 - a))[None, :] * (grad_z[:, None] + f)


def score(spec: FamilySpec, theta, x) -> np.ndarray:
    """Score vector at one symbol."""
    idx = spec.alphabet.index(x)
    return score_matrix(spec, theta)[:, idx]


# --- likelihoods ---------------------------------------------------------------


def likelihood_rows(kind: EstimatorKind, probs: np.ndarray, ph: np.ndarray, alpha: float) -> np.ndarray:
    """The kind's likelihood at every member row of ``probs`` ((n, m) or (m,)),
    for the empirical weights ``ph``; alpha = 1 gives the log-likelihood."""
    kind = EstimatorKind(kind)
    if kind is EstimatorKind.MLE or alpha == 1.0:
        return reduce_rows(np.add, ph * np.log(probs))
    if kind is EstimatorKind.HELLINGER:
        with np.errstate(divide="ignore"):
            s = reduce_rows(np.add, np.where(ph > 0.0, ph**alpha * probs ** (1.0 - alpha), 0.0))
        return np.log(s) / (1.0 - alpha)
    mean_pow = reduce_rows(np.add, ph * probs ** (alpha - 1.0))
    s_pow = reduce_rows(np.add, probs**alpha)
    if kind is EstimatorKind.BASU:
        return alpha / (alpha - 1.0) * mean_pow - 1.0 / (alpha - 1.0) - s_pow
    return alpha / (alpha - 1.0) * np.log(mean_pow) - np.log(s_pow)


def _likelihood_at_rows(kind: EstimatorKind, spec: FamilySpec, sample: SampleData, alpha: float | None = None):
    """The kind's likelihood as a function of parameter rows (n, k), NaN on
    the rows whose member is not admissible."""
    a = spec.alpha if alpha is None else check_alpha(alpha, allow_one=True)
    ph = empirical_weights(sample)

    def values(thetas):
        probs, ok = eval_members_batch(spec, thetas)
        return np.where(ok, likelihood_rows(kind, probs, ph, a), np.nan)

    return values


def likelihood(kind: EstimatorKind, spec: FamilySpec, theta, sample: SampleData, alpha: float | None = None) -> float:
    """Value of the kind's (generalized) likelihood at theta: the one-row
    case of ``_likelihood_at_rows``.  Where the member is not admissible its
    own ``DomainViolation`` or ``NormalizerNotFound`` is raised."""
    theta = _check_theta(spec, theta)
    value = _likelihood_at_rows(kind, spec, sample, alpha)(theta[None, :])[0]
    if np.isnan(value):
        eval_member(spec, theta)  # raises the member's error
    return float(value)


# --- estimating-equation residuals ---------------------------------------------


def estimating_residual(kind: EstimatorKind, spec: FamilySpec, theta, sample: SampleData, alpha: float | None = None) -> np.ndarray:
    """Left minus right of the kind's estimating equation (k-vector)."""
    kind = EstimatorKind(kind)
    a = spec.alpha if alpha is None else check_alpha(alpha, allow_one=True)
    p, z = member_with_normalizer(spec, theta)
    pv = p.probs
    s = _scores(spec, pv, z)
    ph = empirical_weights(sample)
    if kind is EstimatorKind.MLE or a == 1.0:
        return s @ ph
    if kind is EstimatorKind.HELLINGER:
        weights = np.where(ph > 0.0, ph**a * pv ** (1.0 - a), 0.0)
        return s @ weights
    if kind is EstimatorKind.BASU:
        return s @ (ph * pv ** (a - 1.0)) - s @ (pv**a)
    lhs_w = ph * pv ** (a - 1.0)
    rhs_w = pv**a
    return (s @ lhs_w) / lhs_w.sum() - (s @ rhs_w) / rhs_w.sum()


# --- solvers --------------------------------------------------------------------


def solve_estimating_equation(
    kind: EstimatorKind,
    spec: FamilySpec,
    sample: SampleData,
    init=None,
    alpha: float | None = None,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
) -> SolveReport:
    """Damped Newton on the estimating residual, globalized by the kind's
    likelihood (the residual is a positive multiple of its gradient)."""
    kind = EstimatorKind(kind)
    note = "" if is_matched_pair(kind, spec) else "unmatched pair, no equivalence guarantee"

    values = _likelihood_at_rows(kind, spec, sample, alpha)

    def residual(theta):
        return estimating_residual(kind, spec, theta, sample, alpha=alpha)

    return solve_residual(
        residual,
        spec.theta_dim,
        init=init,
        tol=tol,
        max_iter=max_iter,
        route=Route.ESTIMATING_EQ,
        member_fn=lambda t: eval_member(spec, t),
        note=note,
        objective=lambda t: values(t[None, :])[0],
    )


# The likelihood route's finite differences.  The gradient is the five-point
# stencil at step s = GRADIENT_STEP (1 + |theta_j|); it is trusted when it
# agrees within STENCIL_TOL with the stencil at 2s (its truncation error is
# 1/15 of that gap), and otherwise recomputed with s divided by 4, at most
# STENCIL_SHRINKS times, until it does or the gap stops shrinking (rounding
# then dominates); 5e-4 / 4^9 stays below the 1.6e-8 that the central
# differences this replaced shrank to.  A stencil that meets an inadmissible
# row is shrunk the same way.
GRADIENT_STEP = 5e-4
STENCIL_TOL = 1e-10
STENCIL_SHRINKS = 9
_STENCIL = np.array([4.0, 2.0, 1.0, -1.0, -2.0, -4.0])
_WEIGHTS = np.array([-1.0, 8.0, -8.0, 1.0]) / 12.0  # on L(2h), L(h), L(-h), L(-2h)
_FINE, _COARSE = [1, 2, 3, 4], [0, 1, 4, 5]  # stencil rows at h = s and h = 2s


def _stencil_gradients(v: np.ndarray, s):
    """Five-point derivatives at steps s and 2s from values ``v`` (..., 6) on
    the rows c + t s e, t in _STENCIL."""
    return v[..., _FINE] @ _WEIGHTS / s, v[..., _COARSE] @ _WEIGHTS / (2.0 * s)


def _gradient_alone(values, theta: np.ndarray, j: int, s: float, best: float, best_gap: float) -> float:
    """Coordinate j of the gradient at theta from its own stencils at steps
    s/4, s/16, ..., the batch having scored step s: ``best`` is its
    derivative and ``best_gap`` its gap to the step-2s stencil (NaN when a
    row was inadmissible).  The result is the first stencil whose gap is
    within STENCIL_TOL, else the one of smallest gap, the batch's included,
    once the gaps stop shrinking; NaN when every stencil meets an
    inadmissible row."""
    unit = np.eye(theta.size)[j]
    if np.isnan(best_gap):
        best, best_gap = np.nan, np.inf
    for _ in range(STENCIL_SHRINKS):
        s *= 0.25
        fine, coarse = _stencil_gradients(values(theta + (s * _STENCIL)[:, None] * unit), s)
        gap = abs(fine - coarse)
        if gap <= STENCIL_TOL:
            return float(fine)
        if gap < best_gap:
            best, best_gap = float(fine), gap
        elif not np.isnan(gap):
            break  # rounding outgrows truncation
    return best


def _gradient(values, theta: np.ndarray) -> np.ndarray:
    """Gradient of the likelihood ``values`` at theta, from one batch of 6k
    parameter rows: theta + t s_j e_j, t = 4, 2, 1, -1, -2, -4, for each
    coordinate j in turn, with s_j = GRADIENT_STEP (1 + |theta_j|).

    Coordinate j is the five-point (-L(2s) + 8 L(s) - 8 L(-s) + L(-2s)) / 12s,
    checked against the same stencil at 2s.  A coordinate that fails its
    check, or whose stencil meets an inadmissible row, is recomputed alone
    (``_gradient_alone``), unless theta's own row is inadmissible.  Raises
    ``DomainViolation`` then, or when a coordinate cannot be formed, so that
    a solver treats theta as inadmissible.
    """
    k = theta.size
    s = GRADIENT_STEP * (1.0 + np.abs(theta))
    rows = theta + (s[:, None, None] * _STENCIL[:, None]) * np.eye(k)[:, None, :]
    grad, coarse = _stencil_gradients(values(rows.reshape(-1, k)).reshape(k, 6), s)
    gaps = np.abs(grad - coarse)
    if np.isnan(gaps).any() and np.isnan(values(theta[None, :])[0]):
        # no gradient where the likelihood is undefined; the ladder would
        # shrink every stencil STENCIL_SHRINKS times to find that out
        raise DomainViolation("gradient at an inadmissible point")
    for j in np.flatnonzero(~(gaps <= STENCIL_TOL)):
        grad[j] = _gradient_alone(values, theta, j, s[j], grad[j], gaps[j])
    if np.isnan(grad).any():
        raise DomainViolation("gradient stencil left the admissible region")
    return grad


def maximize_likelihood(
    kind: EstimatorKind,
    spec: FamilySpec,
    sample: SampleData,
    init=None,
    alpha: float | None = None,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
) -> SolveReport:
    """Newton ascent on the likelihood: ``solve_residual`` on its gradient.

    Independent of the estimating equation in what it solves: the residual
    is the finite-difference gradient of the likelihood value
    (``_gradient``), not the analytic score, and the likelihood itself is
    the objective that guards the line search.  Only the globalization is
    shared with the equation routes: the Jacobian is the driver's central
    differences of the gradient, a trial point is accepted when ||grad||^2
    falls enough or the likelihood rises, and convergence is declared on
    the gradient's infinity norm.  Each gradient scores its 6k-row stencil
    with one ``eval_members_batch`` and one ``likelihood_rows`` call, and
    each likelihood value one row; a row whose member is not admissible
    counts as outside the domain.  The five-point gradient at step
    5e-4 (1 + |theta_j|), checked against step 1e-3, errs by about 1e-12,
    far below the 1e-10 stop rule.
    """
    kind = EstimatorKind(kind)
    note = "" if is_matched_pair(kind, spec) else "unmatched pair, no equivalence guarantee"
    values = _likelihood_at_rows(kind, spec, sample, alpha)
    return solve_residual(
        lambda t: _gradient(values, t),
        spec.theta_dim,
        init=init,
        tol=tol,
        max_iter=max_iter,
        route=Route.LIKELIHOOD_MAX,
        member_fn=lambda t: eval_member(spec, t),
        note=note,
        objective=lambda t: values(t[None, :])[0],
    )
