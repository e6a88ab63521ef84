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
from .families import FamilyKind, FamilySpec, eval_member, member_with_normalizer
from .measures import SampleData, check_alpha, empirical_weights
from .solvers import (
    MAX_ITER,
    RESIDUAL_TOL,
    THETA_CAP,
    Route,
    SolveReport,
    _try_residual,
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


def likelihood(kind: EstimatorKind, spec: FamilySpec, theta, sample: SampleData, alpha: float | None = None) -> float:
    """Value of the kind's (generalized) likelihood at theta."""
    a = spec.alpha if alpha is None else check_alpha(alpha, allow_one=True)
    p = eval_member(spec, theta)
    return float(likelihood_rows(kind, p.probs, empirical_weights(sample), a))


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
    central differences of the likelihood itself, the line search is an
    Armijo backtrack on the likelihood value, and convergence is declared
    on the gradient's infinity norm.
    """
    kind = EstimatorKind(kind)
    note = "" if is_matched_pair(kind, spec) else "unmatched pair, no equivalence guarantee"
    k = spec.theta_dim
    theta = np.zeros(k) if init is None else np.asarray(init, dtype=float).copy()

    def value(t):
        return likelihood(kind, spec, t, sample, alpha=alpha)

    def try_value(t):
        return _try_residual(lambda x: [value(x)], t)

    def gradient(t):
        g = np.empty(k)
        for j in range(k):
            h = 1e-6 * (1.0 + abs(t[j]))
            for _ in range(4):
                tp = t.copy()
                tp[j] += h
                tm = t.copy()
                tm[j] -= h
                vp = try_value(tp)
                vm = try_value(tm)
                if vp is not None and vm is not None:
                    g[j] = (vp[0] - vm[0]) / (2.0 * h)
                    break
                h *= 0.25
            else:
                raise NoConvergence("gradient stencil left the admissible region", best_theta=t)
        return g

    def hessian(t):
        h_mat = np.empty((k, k))
        for j in range(k):
            h = 1e-4 * (1.0 + abs(t[j]))
            tp = t.copy()
            tp[j] += h
            tm = t.copy()
            tm[j] -= h
            try:
                gp = gradient(tp)
                gm = gradient(tm)
            except NoConvergence:
                return None
            h_mat[:, j] = (gp - gm) / (2.0 * h)
        return 0.5 * (h_mat + h_mat.T)

    def newton_step(t, g):
        h_mat = hessian(t)
        if h_mat is not None:
            try:
                eigvals = np.linalg.eigvalsh(h_mat)
                if np.all(eigvals < -1e-12):
                    return np.linalg.solve(h_mat, -g)
            except np.linalg.LinAlgError:
                pass
        return g / max(1.0, np.max(np.abs(g)))

    v = try_value(theta)
    if v is None:
        raise NoConvergence("likelihood start is inadmissible", best_theta=theta)
    v = v[0]
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
        g = gradient(theta)
        gnorm = float(np.max(np.abs(g)))
        trace.append((theta.copy(), gnorm))
        if gnorm <= tol:
            break
        step = newton_step(theta, g)
        t_len = 1.0
        accepted = False
        for _ in range(31):
            cand = theta + t_len * step
            vc = try_value(cand)
            if vc is not None and vc[0] > v:
                theta, v = cand, vc[0]
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
            best_residual=float(np.max(np.abs(gradient(theta)))),
        )
    # Value improvements die in float rounding while the gradient is still
    # above tol; polish by Newton on the gradient itself, accepting steps
    # that shrink the gradient norm.
    g = gradient(theta)
    gnorm = float(np.max(np.abs(g)))
    if stalled and gnorm > tol:
        for _ in range(30):
            step = newton_step(theta, g)
            t_len = 1.0
            improved = False
            for _ in range(20):
                cand = theta + t_len * step
                if try_value(cand) is not None:
                    gc = gradient(cand)
                    gc_norm = float(np.max(np.abs(gc)))
                    if gc_norm < gnorm:
                        theta, g, gnorm = cand, gc, gc_norm
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
