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

from .families import FamilyKind, FamilySpec, _at_rows, _one_row, eval_member
from .measures import SampleData, check_alpha, empirical_weights, reduce_rows, reference_power, row_dots
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


UNMATCHED_NOTE = "unmatched pair, no equivalence guarantee"


def is_matched_pair(kind: EstimatorKind, spec: FamilySpec) -> bool:
    return MATCHED_FAMILY[EstimatorKind(kind)] is spec.kind


def _estimator_alpha(kind: EstimatorKind, spec: FamilySpec, alpha: float | None) -> float:
    """The estimator's alpha, the family's by default.  Basu and Jones weigh
    the symbols by P^(alpha-1), which is Q^(alpha-1) at theta = 0: an alpha
    at which that power under- or overflows is refused (``DomainError``)."""
    a = spec.alpha if alpha is None else check_alpha(alpha, allow_one=True)
    if EstimatorKind(kind) in (EstimatorKind.BASU, EstimatorKind.JONES) and a != 1.0:
        reference_power(spec.q.probs, a)
    return a


# --- scores -------------------------------------------------------------------


def score_matrix(spec: FamilySpec, theta) -> np.ndarray:
    """Analytic scores s(x; theta) per symbol, (k, m): the one-row case of ``_score_rows``."""
    return _one_row(spec, lambda thetas: _at_rows(spec, thetas, lambda pv, z: _score_rows(spec, pv, z)), theta)


def _score_rows(spec: FamilySpec, pv: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Scores (n, k, m) of the admissible member rows ``pv`` (n, m) with
    normalizers ``z`` (n,), as ``_members`` returns them."""
    f, a = spec.f[None, :, :], spec.alpha
    z = z[:, None, None]
    if spec.kind is FamilyKind.EXPONENTIAL:
        return f - row_dots(spec.f, pv)[:, :, None]
    if spec.kind is FamilyKind.ALPHA_POWER_LAW:
        heavy = row_dots(spec.f, pv ** (2.0 - a))
        return z ** (1.0 - a) * (heavy[:, :, None] - f * (pv ** (1.0 - a))[:, None, :])
    if spec.kind is FamilyKind.ALPHA_EXPONENTIAL:
        mean_pow = row_dots(spec.f, pv**a)
        return z ** (a - 1.0) * (f * (pv ** (a - 1.0))[:, None, :] - mean_pow[:, :, None])
    # non-normalized power law: grad Z = -sum P^(2-a) f / sum P^(2-a)
    w = pv ** (2.0 - a)
    grad_z = -row_dots(spec.f, w) / reduce_rows(np.add, w)[:, None]
    return -(pv ** (1.0 - a))[:, None, :] * (grad_z[:, :, None] + f)


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
    a = _estimator_alpha(kind, spec, alpha)
    ph = empirical_weights(sample)
    return lambda thetas: _at_rows(spec, thetas, lambda probs, z: likelihood_rows(kind, probs, ph, a))


def likelihood(kind: EstimatorKind, spec: FamilySpec, theta, sample: SampleData, alpha: float | None = None) -> float:
    """Value of the kind's (generalized) likelihood at theta: the one-row
    case of ``_likelihood_at_rows``.  Where the member is not admissible its
    own ``DomainViolation`` or ``NormalizerNotFound`` is raised."""
    return float(_one_row(spec, _likelihood_at_rows(kind, spec, sample, alpha), theta))


# --- estimating-equation residuals ---------------------------------------------


def estimating_residual(kind: EstimatorKind, spec: FamilySpec, theta, sample: SampleData, alpha: float | None = None) -> np.ndarray:
    """Left minus right of the kind's estimating equation (k-vector), the
    one-row case of ``_estimating_rows``."""
    return _one_row(spec, _estimating_rows(kind, spec, sample, alpha), theta)


def _estimating_rows(kind: EstimatorKind, spec: FamilySpec, sample: SampleData, alpha: float | None = None):
    """The estimating residual at parameter rows (n, k), NaN where the member is not admissible."""
    kind = EstimatorKind(kind)
    a = _estimator_alpha(kind, spec, alpha)
    ph = empirical_weights(sample)

    def residual(pv, z):
        s = _score_rows(spec, pv, z)
        if kind is EstimatorKind.MLE or a == 1.0:
            return row_dots(s, np.broadcast_to(ph, pv.shape))
        if kind is EstimatorKind.HELLINGER:
            return row_dots(s, np.where(ph > 0.0, ph**a * pv ** (1.0 - a), 0.0))
        lhs_w, rhs_w = ph * pv ** (a - 1.0), pv**a
        if kind is EstimatorKind.BASU:
            return row_dots(s, lhs_w) - row_dots(s, rhs_w)
        with np.errstate(invalid="ignore"):  # weights all underflowed at a huge alpha: 0/0, NaN
            lhs = row_dots(s, lhs_w) / reduce_rows(np.add, lhs_w)[:, None]
            return lhs - row_dots(s, rhs_w) / reduce_rows(np.add, rhs_w)[:, None]

    return lambda thetas: _at_rows(spec, thetas, residual)


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
    return solve_residual(
        _estimating_rows(kind, spec, sample, alpha),
        spec.theta_dim,
        init=init,
        tol=tol,
        max_iter=max_iter,
        route=Route.ESTIMATING_EQ,
        member_fn=lambda t: eval_member(spec, t),
        note="" if is_matched_pair(kind, spec) else UNMATCHED_NOTE,
        objective=_likelihood_at_rows(kind, spec, sample, alpha),
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
_PAIRS = np.array([[1, 2, 3, 4], [0, 1, 4, 5]])  # stencil rows at h = s and h = 2s


def _stencil_gradients(v: np.ndarray, s):
    """Five-point derivatives at steps s and 2s from values ``v`` (..., 6) on
    the rows c + t s e, t in _STENCIL; each summed by ``reduce_rows``, so no
    row depends on the rows evaluated with it."""
    terms = v[..., _PAIRS] * _WEIGHTS
    d = reduce_rows(np.add, terms.reshape(-1, 4)).reshape(terms.shape[:-1])
    return d[..., 0] / s, d[..., 1] / (2.0 * s)


def _gradient_alone(values, theta: np.ndarray, j: int, s: float, best: float, best_gap: float) -> float:
    """Coordinate j of the gradient at theta from its own stencils at steps
    s/4, s/16, ..., the batch having scored step s: ``best`` is its
    derivative and ``best_gap`` its gap to the step-2s stencil (NaN when a
    row was inadmissible).  The result is the first stencil whose gap is
    within STENCIL_TOL, else, once the gaps stop shrinking, the one of
    smallest gap, the batch's included; NaN if every stencil meets an
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


def _gradient(values, thetas: np.ndarray) -> np.ndarray:
    """Gradients (n, k) of the likelihood ``values`` at parameter rows (n, k)
    from one batch of 6kn rows: theta + t s_j e_j, t = 4, 2, 1, -1, -2, -4,
    for each row and coordinate j, with s_j = GRADIENT_STEP (1 + |theta_j|).

    Coordinate j is the five-point (-L(2s) + 8 L(s) - 8 L(-s) + L(-2s)) / 12s,
    checked against the same stencil at 2s.  A (row, coordinate) that fails
    its check, or whose stencil meets an inadmissible row, is recomputed
    alone (``_gradient_alone``).  A row is NaN, inadmissible to a solver,
    where its own theta is or where a coordinate cannot be formed.
    """
    n, k = thetas.shape
    s = GRADIENT_STEP * (1.0 + np.abs(thetas))
    rows = thetas[:, None, None, :] + (s[:, :, None, None] * _STENCIL[:, None]) * np.eye(k)[:, None, :]
    grad, coarse = _stencil_gradients(values(rows.reshape(-1, k)).reshape(n, k, 6), s)
    gaps = np.abs(grad - coarse)
    redo = ~(gaps <= STENCIL_TOL)
    if redo.any():
        # no gradient where the likelihood is undefined; the ladder would
        # shrink every stencil STENCIL_SHRINKS times to find that out
        unsure = np.flatnonzero(np.isnan(gaps).any(axis=1))
        outside = unsure[np.isnan(values(thetas[unsure]))] if unsure.size else unsure
        grad[outside], redo[outside] = np.nan, False
        for i, j in zip(*np.nonzero(redo)):
            grad[i, j] = _gradient_alone(values, thetas[i], j, s[i, j], grad[i, j], gaps[i, j])
        grad[np.isnan(grad).any(axis=1)] = np.nan
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
    the gradient's infinity norm.  A Jacobian's 2k gradients score their
    12k^2 likelihood rows in one member batch, a trial point's its
    6k rows; a row whose member is not admissible is outside the domain.
    The five-point gradient at step 5e-4 (1 + |theta_j|), checked against
    step 1e-3, errs by about 1e-12, far below the 1e-10 stop rule.
    """
    values = _likelihood_at_rows(kind, spec, sample, alpha)
    return solve_residual(
        lambda thetas: _gradient(values, thetas),
        spec.theta_dim,
        init=init,
        tol=tol,
        max_iter=max_iter,
        route=Route.LIKELIHOOD_MAX,
        member_fn=lambda t: eval_member(spec, t),
        note="" if is_matched_pair(kind, spec) else UNMATCHED_NOTE,
        objective=values,
    )
