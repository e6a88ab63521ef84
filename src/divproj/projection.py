"""Projection equations, forward density-power projections and certificates.

Forward projection of Q onto a linear family L minimizes the density power
divergence over L.  The minimizer has a closed parametric shape: on the
support face of L it is

    P*(x) = [Q(x)^(a-1) + (1-a){Z + theta.f(x)}]_+^(1/(a-1)),

where the clamp [r]_+ binds only for a > 1 (for a < 1 every bracket stays
positive and P* has the support of L).  The (theta, Z) moment system is the
gradient of a concave dual, so one damped Newton ascent on that dual solves
both regimes; no active set is guessed.  The KKT multipliers of the simplex
program are reconstructed from (theta, Z) as

    lambda = -a * theta,   nu = a Z + a theta.a,
    mu(x)  = -(a/(a-1)) * bracket(x)   off the support (0 on it),

which makes stationarity, dual feasibility and complementary slackness
directly checkable.  On a boundary face, (theta, Z) is moved along the
family's face certificate until the brackets of the symbols the face
excludes are non-positive, so mu >= 0 holds there too.

The support face and its certificate are read from the linear family, which
computed them when it was built, so a projection solves no LP.  A dual
Newton run that stalls is restarted once, from the shape fitted to the
family's max-min member; a second stall raises ``NoConvergence``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import DivergenceKind, density_power
from .errors import DomainError, NoConvergence
from .estimators import UNMATCHED_NOTE, EstimatorKind, _estimator_alpha, is_matched_pair
from .families import (
    FamilyKind,
    FamilySpec,
    LinearFamilySpec,
    _at_rows,
    _fit_form,
    _one_row,
    _rank,
    eval_member,
    member_with_normalizer,
)
from .measures import Distribution, SampleData, check_alpha, empirical_weights, reduce_rows, reference_power, row_dots
from .solvers import MAX_ITER, RESIDUAL_TOL, Route, SolveReport, solve_residual

NEWTON_STOP_TOL = 1e-13  # (theta, Z) Newton stops at this max-abs residual
NEWTON_ACCEPT_TOL = 1e-10  # ... and accepts a stalled iterate within this one
CLAMP_TOL = 1e-10  # largest bracket a clamped face symbol may keep

MATCHED_ESTIMATOR = {  # the estimator whose estimating equation a projection equation matches
    DivergenceKind.KL: EstimatorKind.MLE, DivergenceKind.RENYI: EstimatorKind.HELLINGER,
    DivergenceKind.DENSITY_POWER: EstimatorKind.BASU, DivergenceKind.REL_ALPHA_ENTROPY: EstimatorKind.JONES,
}


# --- projection-equation residuals -------------------------------------------


def projection_residual(
    kind: DivergenceKind,
    spec: FamilySpec,
    theta,
    sample: SampleData,
    alpha: float | None = None,
) -> np.ndarray:
    """Left minus right of the divergence's projection equation (k-vector),
    the one-row case of ``_projection_rows``.

    KL and the density power divergence share the moment-matching form
    E_theta[f] = fbar; the relative alpha-entropy and Renyi forms carry
    reference-measure corrections.  The Renyi residual is returned in its
    escort form (the tests check it against the plain alpha-power-sum form).
    """
    return _one_row(spec, _projection_rows(kind, spec, sample, alpha), theta)


def _projection_rows(kind: DivergenceKind, spec: FamilySpec, sample: SampleData, alpha: float | None = None):
    """The projection residual at parameter rows (n, k), NaN where the member
    is not admissible; alpha is refused where the matched estimator's is."""
    kind = DivergenceKind(kind)
    a = _estimator_alpha(MATCHED_ESTIMATOR[kind], spec, alpha)
    kind = DivergenceKind.KL if a == 1.0 else kind
    f, qv, ph = spec.f, spec.q.probs, empirical_weights(sample, spec.q.m)
    if kind is DivergenceKind.RENYI:
        ph = ph**a / np.sum(ph**a)  # Renyi: moment matching between the escort (scaled) measures
    power = qv ** (1.0 - a) if kind is DivergenceKind.RENYI else qv ** (a - 1.0)
    fbar, scale = f @ ph, float(ph @ power)

    def residual(pv, z):
        if kind in (DivergenceKind.KL, DivergenceKind.DENSITY_POWER):
            return row_dots(f, pv) - fbar
        if kind is DivergenceKind.RENYI:
            pv = pv**a
            pv /= reduce_rows(np.add, pv)[:, None]  # the escort rows
        return row_dots(f, pv) - (reduce_rows(np.add, pv * power) / scale)[:, None] * fbar

    return lambda thetas: _at_rows(spec, thetas, residual)


def solve_projection_equation(
    kind: DivergenceKind,
    spec: FamilySpec,
    sample: SampleData,
    init=None,
    alpha: float | None = None,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
) -> SolveReport:
    """Damped Newton on the projection residual (same contract as the
    estimating-equation solver)."""
    return solve_residual(
        _projection_rows(kind, spec, sample, alpha),
        spec.theta_dim,
        init=init,
        tol=tol,
        max_iter=max_iter,
        route=Route.PROJECTION_EQ,
        member_fn=lambda t: eval_member(spec, t),
        note="" if is_matched_pair(MATCHED_ESTIMATOR[DivergenceKind(kind)], spec) else UNMATCHED_NOTE,
    )


# --- forward projection --------------------------------------------------------


@dataclass(frozen=True)
class ForwardProjectionResult:
    p_star: Distribution
    theta: np.ndarray
    z: float
    support_mask: np.ndarray
    objective: float
    kkt_multipliers: dict | None = None


def _parametric_solve(qa, f, a_vec, alpha, face, init=None):
    """Newton ascent on the concave dual of the forward projection.

    On the face, P(x) = [bracket(x)]_+^(1/(alpha-1)) with
    bracket = Q^(alpha-1) + (1-alpha)(Z + theta.f); for alpha < 1 a
    non-positive bracket is inadmissible.  The residual
    r = (f P - a, sum P - 1) is the gradient of the concave
    psi(theta, Z) = -(1/alpha) sum [bracket]_+^(alpha/(alpha-1)) - theta.a - Z,
    so one Newton ascent handles the clamp [.]_+ without an active set.
    A step is accepted when psi rises strictly by Armijo or when |r|^2
    falls by Armijo: near the optimum psi drowns in rounding and only the
    residual still measures progress.  Newton stops at residual
    NEWTON_STOP_TOL; a run that stalls (the line search finds neither) still
    counts as converged when its residual is within NEWTON_ACCEPT_TOL, the
    rounding floor near a coordinate of order 1e-5.  A face whose columns of
    g = (f; 1) are linearly independent holds one member, which g P = (a, 1)
    fixes with no iteration.  ``qa`` is Q^(alpha-1).  Returns
    (theta, z, probs, residual), probs zero off the face.
    """
    k, m = f.shape
    g = np.vstack([f[:, face], np.ones((1, int(face.sum())))])  # rows (f; 1)
    b = np.concatenate([a_vec, [1.0]])
    qa = qa[face]
    probs = np.zeros(m)
    if g.shape[1] <= k + 1 and _rank(g) == g.shape[1]:
        p = np.linalg.lstsq(g, b, rcond=None)[0]
        if np.any(p <= 0.0):  # the LP misjudged the face: a stall
            return np.zeros(k), 0.0, probs, np.inf
        xi = np.linalg.lstsq(g.T, (p ** (alpha - 1.0) - qa) / (1.0 - alpha), rcond=None)[0]
        probs[face] = p
        return xi[:k], float(xi[k]), probs, float(np.max(np.abs(g @ p - b)))
    expo = 1.0 / (alpha - 1.0)

    def state(xi):
        """(psi, residual, brackets, P on the face) at xi, or None if
        inadmissible."""
        bracket = qa + (1.0 - alpha) * (xi @ g)
        if alpha < 1.0 and np.any(bracket <= 0.0):
            return None
        pos = np.maximum(bracket, 0.0)
        p = pos**expo
        return -float(pos @ p) / alpha - float(xi @ b), g @ p - b, bracket, p

    xi = np.zeros(k + 1) if init is None else np.asarray(init, dtype=float).copy()
    st = state(xi)
    if st is None:
        return xi[:k], float(xi[k]), probs, np.inf
    psi, r, bracket, p = st
    for _ in range(300):
        size = float(np.max(np.abs(r)))
        if size <= NEWTON_STOP_TOL:
            break
        on = bracket > 0.0
        hess = (g[:, on] * bracket[on] ** (expo - 1.0)) @ g[:, on].T  # -J
        # a small regularizer keeps the step near Newton's: one of |r|
        # itself took 6.6 steps instead of 3.1 at alpha = 2 on random
        # families, and 23 instead of 7 at alpha = 0.5
        hess[np.diag_indices(k + 1)] += 1e-3 * size
        try:
            step = np.linalg.solve(hess, r)
        except np.linalg.LinAlgError:
            # rows of (f; 1) dependent on the face, with the regularizer
            # lost in rounding: take the min-norm step
            step, *_ = np.linalg.lstsq(hess, r, rcond=None)
        slope, phi = float(r @ step), float(r @ r)
        t = 1.0
        for _ in range(40):
            cand = state(xi + t * step)
            if cand is not None and (
                (cand[0] > psi and cand[0] >= psi + 1e-4 * t * slope)
                or float(cand[1] @ cand[1]) <= phi * (1.0 - 1e-4 * t)
            ):
                xi = xi + t * step
                psi, r, bracket, p = cand
                break
            t *= 0.5
        else:
            break
    probs[face] = p
    return xi[:k], float(xi[k]), probs, float(np.max(np.abs(r)))


def _kkt_multipliers(alpha, theta, z, a_vec, bracket, support):
    lam = -alpha * theta
    nu = alpha * z + alpha * float(theta @ a_vec)
    mu = np.where(support, 0.0, -(alpha / (alpha - 1.0)) * bracket)
    return {"lambda": lam, "nu": nu, "mu": mu}


def forward_dpd_projection(
    q: Distribution, lin: LinearFamilySpec, alpha: float
) -> ForwardProjectionResult:
    """Minimize the density power divergence to Q over the linear family."""
    alpha = check_alpha(alpha)
    if not q.is_strictly_positive():
        raise DomainError("reference measure must have full support")
    if lin.m != q.m:
        raise DomainError("linear family and reference measure sizes differ")
    f, a_vec = lin.f, lin.a
    qv = q.probs
    qa = reference_power(qv, alpha - 1.0)  # a zero, subnormal or infinite one overflows the dual Newton
    face = lin.support_mask()  # never empty: a member puts 1/m or more on some symbol

    solved = _parametric_solve(qa, f, a_vec, alpha, face)
    if solved[3] > NEWTON_ACCEPT_TOL:
        # restart once, from the shape fitted to the max-min member (that fit
        # may be inadmissible at alpha < 1), and keep the better run
        center = lin.interior_member()[0]
        form = FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW
        theta, z, _ = _fit_form(form, alpha, qv[face], f[:, face], center[face])
        restart = _parametric_solve(qa, f, a_vec, alpha, face, init=np.append(theta, z))
        solved = min(solved, restart, key=lambda run: run[3])
        if solved[3] > NEWTON_ACCEPT_TOL:
            raise NoConvergence(
                f"dual Newton stalled at residual {solved[3]:.3e}, also from the family's centre",
                best_theta=solved[0],
                best_residual=solved[3],
            )
    theta, z, probs, residual = solved
    support = probs > 0.0
    p_star = Distribution(q.alphabet, probs, strict=False)
    if not lin.contains(p_star, tol=1e-9):
        raise NoConvergence("projection left the constraint set", best_theta=theta, best_residual=residual)
    bracket = qa + (1.0 - alpha) * (z + theta @ f)
    kkt = None
    if alpha > 1.0:
        if not face.all():
            # the face certificate's weights w vanish on the face, so moving
            # (theta, Z) along it lowers only the brackets off the face
            cert = lin.face_certificate()
            w = cert[:-1] @ f + cert[-1]
            shift = max(0.0, float(np.max(bracket[~face] / ((alpha - 1.0) * w[~face]))))
            theta, z = theta + shift * cert[:-1], z + shift * cert[-1]
            bracket = bracket - (alpha - 1.0) * shift * w
        kkt = _kkt_multipliers(alpha, theta, z, a_vec, bracket, support)
    objective = density_power(p_star, q, alpha)
    return ForwardProjectionResult(
        p_star=p_star,
        theta=np.asarray(theta, dtype=float),
        z=float(z),
        support_mask=support,
        objective=float(objective),
        kkt_multipliers=kkt,
    )


# --- certificates ----------------------------------------------------------------


def pythagorean_gap(p: Distribution, p_star: Distribution, q: Distribution, alpha: float) -> float:
    """D(P,Q) - D(P,P*) - D(P*,Q) for the density power divergence."""
    return (
        density_power(p, q, alpha)
        - density_power(p, p_star, alpha)
        - density_power(p_star, q, alpha)
    )


def fit_projection_form(p_star: Distribution, q: Distribution, lin: LinearFamilySpec, alpha: float):
    """Independent least-squares refit of (theta, Z) to the projection shape.

    Returns ``(theta, z, residual, clamp_ok)``: the relative fit residual on
    the support and whether the brackets are non-positive on the symbols the
    family's face carries but P* does not (the clamp condition; vacuous for
    full support).  Symbols off the face are zero on every member, so no
    sign condition applies to them.
    """
    support = p_star.probs > 0.0
    form = FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW
    theta, z, residual = _fit_form(form, alpha, q.probs[support], lin.f[:, support], p_star.probs[support])
    bracket = q.probs ** (alpha - 1.0) + (1.0 - alpha) * (z + theta @ lin.f)
    clamped = lin.support_mask() & ~support
    return theta, z, residual, bool(np.all(bracket[clamped] <= CLAMP_TOL))


# --- reverse projection via the forward route -------------------------------------


@dataclass(frozen=True)
class ReverseProjectionResult:
    p_star: Distribution
    theta: np.ndarray | None
    in_family: bool
    moment_residual: float
    note: str


def reverse_dpd_projection(sample: SampleData, spec: FamilySpec) -> ReverseProjectionResult:
    """Reverse density-power projection computed as a forward projection.

    Builds the sample's moment family {P : f P = fbar} and forward-projects
    the reference measure onto it.  The forward answer has the family's own
    shape [Q^(a-1) + (1-a)(Z + theta.f)]_+^(1/(a-1)), so a strictly positive
    P* is the member at the dual's theta (Z is the root of the mass
    equation, and theta is identified because the family's statistics do not
    span the constants).  Every member is strictly positive, so a P* with a
    zero lies only on the family's closure, and theta is then None.
    """
    if spec.kind is not FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW:
        raise DomainError("reverse projection route applies to the non-normalized kind")
    fbar = spec.f @ empirical_weights(sample, spec.q.m)
    lin = LinearFamilySpec(spec.f, fbar, alphabet=spec.alphabet)
    fwd = forward_dpd_projection(spec.q, lin, spec.alpha)
    p_star = fwd.p_star
    in_family = p_star.is_strictly_positive()
    return ReverseProjectionResult(
        p_star=p_star,
        theta=fwd.theta if in_family else None,
        in_family=in_family,
        moment_residual=float(np.max(np.abs(spec.f @ p_star.probs - fbar))),
        note="reverse projection attained " + ("on the family" if in_family else "only on closure"),
    )


# --- the moment map of the power-law family and its Jacobian ----------------------


def power_law_moment_map(spec: FamilySpec, theta, sample: SampleData) -> np.ndarray:
    """The map whose fixed-point equation characterizes the reverse
    relative-alpha-entropy projection: Phi(theta) = fbar at a solution.

    Returned in its member-power form (the tests check it against the
    reference-bracket quotient form).
    """
    if spec.kind is not FamilyKind.ALPHA_POWER_LAW:
        raise DomainError("moment map is defined on the power-law family")
    a = spec.alpha
    pv = eval_member(spec, theta).probs
    sample_mean_power = float(empirical_weights(sample, spec.q.m) @ pv ** (a - 1.0))
    return (spec.f @ pv) * sample_mean_power / float(np.sum(pv**a))


def power_law_moment_jacobian(spec: FamilySpec, theta, sample: SampleData) -> np.ndarray:
    """Escort-covariance form of the moment map's Jacobian.

    B = -Z^(1-a) * mean_sample[P^(a-1)] * Cov_escort[P^(1-a) f_i, P^(1-a) f_j],
    symmetric and negative definite on admissible parameters.  This is the
    derivative of the moment map exactly at solutions of Phi(theta) = fbar
    (the identity fbar = Phi(theta) enters its derivation).
    """
    if spec.kind is not FamilyKind.ALPHA_POWER_LAW:
        raise DomainError("moment map is defined on the power-law family")
    a = spec.alpha
    p, z = member_with_normalizer(spec, theta)
    pv = p.probs
    f = spec.f
    escort_w = pv**a
    escort_w = escort_w / escort_w.sum()
    g = f * (pv ** (1.0 - a))[None, :]  # rows: P^(1-a) f_i
    mean_g = g @ escort_w
    centered = g - mean_g[:, None]
    cov = (centered * escort_w[None, :]) @ centered.T
    sample_mean_power = float(empirical_weights(sample, spec.q.m) @ pv ** (a - 1.0))
    return -(z ** (1.0 - a)) * sample_mean_power * cov
