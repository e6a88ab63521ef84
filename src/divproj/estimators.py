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

from .errors import NoConvergence
from .families import (
    FamilyKind,
    FamilySpec,
    _check_theta,
    eval_member,
    eval_members_batch,
    member_with_normalizer,
)
from .measures import SampleData, check_alpha, empirical_weights
from .solvers import (
    MAX_ITER,
    RESIDUAL_TOL,
    THETA_CAP,
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
        return np.sum(ph * np.log(probs), axis=-1)
    if kind is EstimatorKind.HELLINGER:
        with np.errstate(divide="ignore"):
            s = np.sum(np.where(ph > 0.0, ph**alpha * probs ** (1.0 - alpha), 0.0), axis=-1)
        return np.log(s) / (1.0 - alpha)
    mean_pow = np.sum(ph * probs ** (alpha - 1.0), axis=-1)
    s_pow = np.sum(probs**alpha, axis=-1)
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
        objective=lambda t: likelihood(kind, spec, t, sample, alpha=alpha),
    )


# The likelihood route's finite differences.  The gradient is the five-point
# stencil at step s = GRADIENT_STEP (1 + |theta_j|); at theta it is trusted
# when it agrees within STENCIL_TOL with the stencil at 2s (its truncation
# error is 1/15 of that gap), and otherwise recomputed with s divided by 4,
# at most STENCIL_SHRINKS times, until it does or the gap stops shrinking
# (rounding then dominates); 5e-4 / 4^9 stays below the 1.6e-8 that the
# central differences this replaced shrank to.  A stencil that meets an
# inadmissible row is shrunk the same way.  The Hessian differences gradients at theta +-
# CURVATURE_STEP (1 + |theta_j|) e_j.
GRADIENT_STEP = 5e-4
CURVATURE_STEP = 1e-4
STENCIL_TOL = 1e-10
STENCIL_SHRINKS = 9
_STENCIL = np.array([4.0, 2.0, 1.0, -1.0, -2.0, -4.0])
_WEIGHTS = np.array([-1.0, 8.0, -8.0, 1.0]) / 12.0  # on L(2h), L(h), L(-h), L(-2h)
_FINE, _COARSE = [1, 2, 3, 4], [0, 1, 4, 5]  # stencil rows at h = s and h = 2s


def _stencil_gradients(v: np.ndarray, s):
    """Five-point derivatives at steps s and 2s from values ``v`` (..., 6) on
    the rows c + t s e, t in _STENCIL."""
    return v[..., _FINE] @ _WEIGHTS / s, v[..., _COARSE] @ _WEIGHTS / (2.0 * s)


def _gradient_alone(values, centre: np.ndarray, j: int, s: float, first=None) -> float:
    """Coordinate j of the gradient at ``centre`` from its own stencils at
    steps s/4, s/16, ..., the batch having scored step s.  Without ``first``
    it is the first of them whose rows are all admissible.  ``first`` is the
    batch's (derivative, gap between steps s and 2s) at theta; with it, the
    result is the first stencil whose gap is within STENCIL_TOL, else the one
    of smallest gap, the batch's included, once the gaps stop shrinking.  NaN
    when every stencil meets an inadmissible row."""
    unit = np.eye(centre.size)[j]
    best, best_gap = np.nan, np.inf
    if first is not None and not np.isnan(first[1]):
        best, best_gap = float(first[0]), first[1]
    for _ in range(STENCIL_SHRINKS):
        s *= 0.25
        fine, coarse = _stencil_gradients(values(centre + (s * _STENCIL)[:, None] * unit), s)
        if first is None and not np.isnan(fine):
            return float(fine)
        gap = abs(fine - coarse)
        if gap <= STENCIL_TOL:
            return float(fine)
        if gap < best_gap:
            best, best_gap = float(fine), gap
        elif not np.isnan(gap):
            break  # rounding outgrows truncation
    return best


def _derivatives(values, theta: np.ndarray):
    """Gradient and Hessian of the likelihood ``values`` at theta, from one
    batch of parameter rows.

    The batch stacks 2k+1 centres: theta, then theta + H_j e_j for each j,
    then theta - H_j e_j, with H_j = CURVATURE_STEP (1 + |theta_j|).  Each
    centre c adds the 6k rows c + t s_i e_i, t = 4, 2, 1, -1, -2, -4 for each
    coordinate i in turn, with s_i = GRADIENT_STEP (1 + |c_i|).  The gradient
    at c is the five-point (-L(2s) + 8 L(s) - 8 L(-s) + L(-2s)) / 12s; at
    theta it is checked against the same stencil at 2s.  Column j of the
    Hessian is the difference of the gradients at theta +- H_j e_j over
    2 H_j, symmetrized.  A coordinate that fails its check, or whose stencil
    meets an inadmissible row, is recomputed alone (``_gradient_alone``).

    Returns ``(gradient, hessian)``; ``hessian`` is None when one of its
    gradients cannot be formed.  Raises ``NoConvergence`` when the gradient
    at theta cannot.
    """
    k = theta.size
    eye = np.eye(k)
    offset = CURVATURE_STEP * (1.0 + np.abs(theta))
    centres = np.vstack([theta, theta + offset[:, None] * eye, theta - offset[:, None] * eye])
    s = GRADIENT_STEP * (1.0 + np.abs(centres))
    rows = centres[:, None, None, :] + (s[:, :, None, None] * _STENCIL[:, None]) * eye[None, :, None, :]
    grads, coarse = _stencil_gradients(values(rows.reshape(-1, k)).reshape(2 * k + 1, k, 6), s)
    gaps = np.abs(grads[0] - coarse[0])
    for j in np.flatnonzero(~(gaps <= STENCIL_TOL)):
        grads[0, j] = _gradient_alone(values, theta, j, s[0, j], first=(grads[0, j], gaps[j]))
        if np.isnan(grads[0, j]):
            raise NoConvergence("gradient stencil left the admissible region", best_theta=theta)
    for c, j in np.argwhere(np.isnan(grads[1:])):
        grads[c + 1, j] = _gradient_alone(values, centres[c + 1], j, s[c + 1, j])
    hessian = (grads[1 : k + 1] - grads[k + 1 :]).T / (2.0 * offset)
    if np.isnan(hessian).any():
        return grads[0], None
    return grads[0], 0.5 * (hessian + hessian.T)


def maximize_likelihood(
    kind: EstimatorKind,
    spec: FamilySpec,
    sample: SampleData,
    init=None,
    alpha: float | None = None,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
) -> SolveReport:
    """Quasi-Newton ascent on the likelihood value.

    Independent of the residual solver: gradients and curvature come from
    finite differences of the likelihood itself, the line search is an
    Armijo backtrack on the likelihood value, and convergence is declared
    on the gradient's infinity norm.  Each iteration scores its whole
    stencil, the gradient's at theta and at the Hessian's 2k centres
    ((2k+1) 6k rows, in the order ``_derivatives`` gives), with one
    ``eval_members_batch`` and one ``likelihood_rows`` call; a row whose
    member is not admissible counts as outside the domain, and the line
    search scores one row per call the same way.  The five-point gradient at
    step 5e-4 (1 + |theta_j|), checked against step 1e-3, errs by about
    1e-12, far below the 1e-10 stop rule.
    """
    kind = EstimatorKind(kind)
    note = "" if is_matched_pair(kind, spec) else "unmatched pair, no equivalence guarantee"
    theta = np.zeros(spec.theta_dim) if init is None else np.asarray(init, dtype=float).copy()
    values = _likelihood_at_rows(kind, spec, sample, alpha)

    def value(t):
        return values(t[None, :])[0]

    def newton_step(g, h_mat):
        if h_mat is not None:
            try:
                eigvals = np.linalg.eigvalsh(h_mat)
                if np.all(eigvals < -1e-12):
                    return np.linalg.solve(h_mat, -g)
            except np.linalg.LinAlgError:
                pass
        return g / max(1.0, np.max(np.abs(g)))

    v = value(theta)
    if np.isnan(v):
        raise NoConvergence("likelihood start is inadmissible", best_theta=theta)
    trace = [(theta.copy(), np.inf)]
    iters = 0
    stalled = False
    for it in range(1, max_iter + 1):
        iters = it
        if float(np.max(np.abs(theta))) > THETA_CAP:
            raise NoConvergence(
                "iterates escaped the solver box (supremum may be at infinity)",
                best_theta=theta,
            )
        g, h_mat = _derivatives(values, theta)
        gnorm = float(np.max(np.abs(g)))
        trace.append((theta.copy(), gnorm))
        if gnorm <= tol:
            break
        step = newton_step(g, h_mat)
        t_len = 1.0
        accepted = False
        for _ in range(31):
            cand = theta + t_len * step
            vc = value(cand)
            if vc > v:  # False for an inadmissible (NaN) candidate
                theta, v = cand, vc
                accepted = True
                break
            t_len *= 0.5
        if not accepted:
            stalled = True
            break
    else:
        raise NoConvergence(
            "likelihood ascent hit the iteration cap (supremum may be at infinity)",
            best_theta=theta,
            best_residual=float(np.max(np.abs(_derivatives(values, theta)[0]))),
        )
    # Value improvements die in float rounding while the gradient is still
    # above tol; polish by Newton on the gradient itself, accepting steps
    # that shrink the gradient norm.  g and h_mat are at theta: the loop
    # left it unchanged since computing them.
    if stalled and gnorm > tol:
        for _ in range(30):
            step = newton_step(g, h_mat)
            t_len = 1.0
            improved = False
            for _ in range(20):
                cand = theta + t_len * step
                if not np.isnan(value(cand)):
                    gc, hc = _derivatives(values, cand)
                    gc_norm = float(np.max(np.abs(gc)))
                    if gc_norm < gnorm:
                        theta, g, h_mat, gnorm = cand, gc, hc, gc_norm
                        improved = True
                        break
                t_len *= 0.5
            iters += 1
            trace.append((theta.copy(), gnorm))
            if gnorm <= tol or not improved:
                break
    if gnorm > 10.0 * tol:
        raise NoConvergence(
            f"likelihood ascent finished with non-vanishing gradient {gnorm:.3e}",
            best_theta=theta,
            best_residual=gnorm,
        )
    return SolveReport(
        theta_star=theta,
        p_star=eval_member(spec, theta),
        residual_norm=gnorm,
        iterations=iters,
        trace=tuple((t.copy(), n) for t, n in trace),
        route=Route.LIKELIHOOD_MAX,
        note=note,
    )
