"""Projection equations, forward density-power projections and certificates.

Forward projection of Q onto a linear family L minimizes the density power
divergence over L.  The minimizer has a closed parametric shape: on the
support it is

    P*(x) = [Q(x)^(a-1) + (1-a){Z + theta.f(x)}]^(1/(a-1))

clamped at zero for a > 1 ([r]_+ inside the power).  For a < 1 the support
of P* equals the support of L and the (theta, Z) system is solved by damped
Newton on the k+1 constraint equations; for a > 1 an active-set sweep solves
the KKT system, deactivating symbols whose bracket goes negative.  The KKT
multipliers of the simplex program are reconstructed from (theta, Z) as

    lambda = -a * theta,   nu = a Z + a theta.a,
    mu(x)  = -(a/(a-1)) * bracket(x)   off the support (0 on it),

which makes stationarity, dual feasibility and complementary slackness
directly checkable.

The support of L is read from the linear family, which computed it when it
was built, so a projection solves no LP.  Only when Newton and the active
set both fail does an SLSQP fallback run; scipy is imported on that first
call, not with this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import DivergenceKind, density_power
from .errors import DomainError, InfeasibleError, NoConvergence
from .families import (
    FamilyKind,
    FamilySpec,
    LinearFamilySpec,
    _fit_form,
    eval_member,
    fit_family_form,
    member_with_normalizer,
)
from .measures import Distribution, SampleData, check_alpha, empirical_weights
from .solvers import MAX_ITER, RESIDUAL_TOL, Route, SolveReport, solve_residual

MEMBERSHIP_TOL = 1e-8  # family-vs-closure decision threshold
NEWTON_STOP_TOL = 1e-13  # (theta, Z) Newton stops at this max-abs residual
NEWTON_ACCEPT_TOL = 1e-10  # ... and accepts a stalled iterate within this one
SLSQP_PRECISION_LIMIT = 8  # SLSQP's "positive directional derivative" exit


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call: only the SLSQP
    fallback pays for importing scipy."""
    from scipy.optimize import minimize as _minimize

    return _minimize(*args, **kwargs)


# --- projection-equation residuals -------------------------------------------


def projection_residual(
    kind: DivergenceKind,
    spec: FamilySpec,
    theta,
    sample: SampleData,
    alpha: float | None = None,
) -> np.ndarray:
    """Left minus right of the divergence's projection equation (k-vector).

    KL and the density power divergence share the moment-matching form
    E_theta[f] = fbar; the relative alpha-entropy and Renyi forms carry
    reference-measure corrections.  The Renyi residual is returned in its
    escort form (the tests check it against the plain alpha-power-sum form).
    """
    kind = DivergenceKind(kind)
    a = spec.alpha if alpha is None else check_alpha(alpha, allow_one=True)
    p = eval_member(spec, theta)
    pv = p.probs
    f = spec.f
    qv = spec.q.probs
    ph = empirical_weights(sample)
    fbar = f @ ph
    mean_f = f @ pv
    if kind in (DivergenceKind.KL, DivergenceKind.DENSITY_POWER) or a == 1.0:
        return mean_f - fbar
    if kind is DivergenceKind.REL_ALPHA_ENTROPY:
        qa = qv ** (a - 1.0)
        return mean_f - (float(pv @ qa) / float(ph @ qa)) * fbar
    # Renyi: moment matching between the escort (scaled) measures
    pa, pha = pv**a, ph**a
    e_escort, ph_escort = pa / pa.sum(), pha / pha.sum()
    q1a = qv ** (1.0 - a)
    return f @ e_escort - (float(e_escort @ q1a) / float(ph_escort @ q1a)) * (f @ ph_escort)


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
    kind = DivergenceKind(kind)

    def residual(theta):
        return projection_residual(kind, spec, theta, sample, alpha=alpha)

    return solve_residual(
        residual,
        spec.theta_dim,
        init=init,
        tol=tol,
        max_iter=max_iter,
        route=Route.PROJECTION_EQ,
        member_fn=lambda t: eval_member(spec, t),
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


def _parametric_solve(q, f, a_vec, alpha, support, init=None, want_best=False):
    """Newton on (theta, Z) for the constrained parametric shape.

    Solves sum_{x in support} P(x) = 1 and f P = a with
    P(x) = bracket(x)^(1/(alpha-1)) on the support, 0 elsewhere.
    Newton stops at residual NEWTON_STOP_TOL.  Near a coordinate of order
    1e-5 the residual's rounding floor is about 1e-12, so a run that stalls
    there (the line search finds no decrease) still counts as converged when
    its residual is within NEWTON_ACCEPT_TOL.
    Returns (theta, z, probs) or None when Newton fails; with ``want_best``
    the best iterate is returned as (theta, z, probs, converged) so callers
    can read deactivation hints off an unconverged run.
    """
    k, m = f.shape
    qa = q ** (alpha - 1.0)
    sub_f = f[:, support]
    sub_qa = qa[support]
    expo = 1.0 / (alpha - 1.0)

    def probs_of(xi):
        theta, z = xi[:k], xi[k]
        bracket = sub_qa + (1.0 - alpha) * (z + theta @ sub_f)
        if np.any(bracket <= 0.0):
            return None, None
        p_sub = bracket**expo
        return p_sub, bracket

    def residual(xi):
        p_sub, _ = probs_of(xi)
        if p_sub is None:
            return None
        return np.concatenate([sub_f @ p_sub - a_vec, [p_sub.sum() - 1.0]])

    def jacobian(xi):
        p_sub, bracket = probs_of(xi)
        dp = -(bracket ** ((2.0 - alpha) / (alpha - 1.0)))  # dP/d(Z + theta.f)
        jac = np.empty((k + 1, k + 1))
        for j in range(k):
            dpj = dp * sub_f[j]
            jac[:k, j] = sub_f @ dpj
            jac[k, j] = dpj.sum()
        jac[:k, k] = sub_f @ dp
        jac[k, k] = dp.sum()
        return jac

    xi = np.zeros(k + 1) if init is None else np.asarray(init, dtype=float).copy()
    r = residual(xi)
    if r is None:
        return (None if not want_best else None)
    converged = False
    for _ in range(300):
        if float(np.max(np.abs(r))) <= NEWTON_STOP_TOL:
            converged = True
            break
        jac = jacobian(xi)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            # constraints can degenerate on a restricted support; the
            # min-norm step pins the unidentifiable directions at zero
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        t = 1.0
        phi = float(r @ r)
        for _ in range(40):
            cand = xi + t * step
            rc = residual(cand)
            if rc is not None and float(rc @ rc) <= phi * (1.0 - 1e-4 * t):
                xi, r = cand, rc
                break
            t *= 0.5
        else:
            break
    converged = converged or float(np.max(np.abs(r))) <= NEWTON_ACCEPT_TOL
    p_sub, _ = probs_of(xi)
    probs = np.zeros(m)
    probs[support] = p_sub
    if want_best:
        return xi[:k], float(xi[k]), probs, converged
    return (xi[:k], float(xi[k]), probs) if converged else None


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
    lin_support = lin.support_mask()
    if not np.any(lin_support):
        raise InfeasibleError("linear family has empty support")

    solved = None
    if alpha < 1.0:
        solved = _parametric_solve(qv, f, a_vec, alpha, lin_support)
        support = lin_support.copy()
    else:
        solved, support = _active_set_sweep(qv, f, a_vec, alpha, lin_support)
    if solved is None:
        solved, support = _fallback_projection(qv, lin, alpha)
    theta, z, probs = solved
    p_star = Distribution(q.alphabet, probs, strict=False)
    if not lin.contains(p_star, tol=1e-9):
        raise NoConvergence("projection left the constraint set")
    bracket = qv ** (alpha - 1.0) + (1.0 - alpha) * (z + theta @ f)
    kkt = None
    if alpha > 1.0:
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


def _active_set_sweep(qv, f, a_vec, alpha, lin_support):
    """Clamp handling for alpha > 1.

    Solve the equality system on the active set; deactivate the symbol with
    the most negative (or, on a stalled solve, the smallest) bracket;
    reactivate symbols whose off-support bracket turns positive.  Visited
    active sets are never retried, so the sweep terminates.
    """
    support = lin_support.copy()
    seen = {}
    init = None
    for _ in range(3 * len(qv)):
        key = tuple(support)
        visits = seen.get(key, 0)
        if visits >= 2 or not np.any(support):
            return None, support
        seen[key] = visits + 1
        attempt = _parametric_solve(qv, f, a_vec, alpha, support, init=init, want_best=True)
        if attempt is None:
            return None, support
        theta, z, probs, converged = attempt
        init = np.concatenate([theta, [z]])  # warm start for the next round
        bracket = qv ** (alpha - 1.0) + (1.0 - alpha) * (z + theta @ f)
        if converged:
            if np.any(support & (bracket <= 0.0)):
                support = support & (bracket > 0.0)
                continue
            off_bad = (~support) & lin_support & (bracket > 1e-12)
            if np.any(off_bad):
                idx = int(np.argmax(np.where(off_bad, bracket, -np.inf)))
                support = support.copy()
                support[idx] = True
                continue
            return (theta, z, probs), support
        # stalled run: its iterate hugs the admissibility boundary, so the
        # smallest active bracket marks the symbol to clamp
        active_brackets = np.where(support, bracket, np.inf)
        idx = int(np.argmin(active_brackets))
        support = support.copy()
        support[idx] = False
    return None, support


def _shape_fit(qv, lin: LinearFamilySpec, alpha: float, probs, support):
    """Least-squares (theta, Z, residual) of the projection shape on the
    support: the non-normalized form over the linear family's rows."""
    return _fit_form(FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, alpha, qv, lin.f, probs, support)


def _fallback_projection(qv, lin, alpha):
    """Constrained minimization on the simplex, then a parametric refit."""
    m = lin.m

    def objective(p):
        p = np.clip(p, 1e-300, None)
        cross = float(np.sum(p * qv ** (alpha - 1.0)))
        return (
            alpha / (1.0 - alpha) * cross
            - float(np.sum(p**alpha)) / (1.0 - alpha)
            + float(np.sum(qv**alpha))
        )

    cons = [
        {"type": "eq", "fun": lambda p: lin.f @ p - lin.a},
        {"type": "eq", "fun": lambda p: np.sum(p) - 1.0},
    ]
    x0 = lin.affine_project(np.full(m, 1.0 / m))
    x0 = np.clip(x0, 1e-9, None)
    res = minimize(
        objective,
        x0,
        method="SLSQP",
        bounds=[(0.0, None)] * m,
        constraints=cons,
        options={"maxiter": 500, "ftol": 1e-14},
    )
    # exit 8: the line search found no descent at SLSQP's precision limit;
    # that point still seeds the refit, which certifies the answer
    if not (res.success or res.status == SLSQP_PRECISION_LIMIT):
        raise NoConvergence(f"fallback projection failed: {res.message}")
    support = res.x > 1e-9
    # seed the parametric refit with a least-squares fit to the numeric point
    theta, z, _ = _shape_fit(qv, lin, alpha, res.x, support)
    init = np.concatenate([theta, [z]])
    refit = _parametric_solve(qv, lin.f, lin.a, alpha, support, init=init)
    if refit is None:
        refit = _parametric_solve(qv, lin.f, lin.a, alpha, support)
    if refit is None:
        raise NoConvergence("parametric refit after fallback failed")
    return refit, support


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
    theta, z, residual = _shape_fit(q.probs, lin, alpha, p_star.probs, support)
    bracket = q.probs ** (alpha - 1.0) + (1.0 - alpha) * (z + theta @ lin.f)
    clamped = lin.support_mask() & ~support
    return theta, z, residual, bool(np.all(bracket[clamped] <= 1e-10))


# --- reverse projection via the forward route -------------------------------------


@dataclass(frozen=True)
class ReverseProjectionResult:
    p_star: Distribution
    theta: np.ndarray | None
    in_family: bool
    membership: float
    report: SolveReport


def reverse_dpd_projection(
    sample: SampleData, spec: FamilySpec, membership_tol: float = MEMBERSHIP_TOL
) -> ReverseProjectionResult:
    """Reverse density-power projection computed as a forward projection.

    Builds the sample's moment family {P : f P = fbar}, forward-projects the
    reference measure onto it, and checks whether the projection lies on the
    parametric family, i.e. fits its form with relative residual at most
    ``membership_tol`` (otherwise the reverse projection is attained only on
    the family's closure).
    """
    if spec.kind is not FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW:
        raise DomainError("reverse projection route applies to the non-normalized kind")
    fbar = spec.f @ sample.empirical.probs
    lin = LinearFamilySpec(spec.f, fbar, alphabet=spec.alphabet)
    fwd = forward_dpd_projection(spec.q, lin, spec.alpha)
    p_star = fwd.p_star
    if p_star.is_strictly_positive():
        theta, z, residual = fit_family_form(spec, p_star.probs)
        in_family = residual <= membership_tol
    else:
        theta, residual, in_family = None, np.inf, False
    proj_residual = float(np.max(np.abs(spec.f @ p_star.probs - fbar)))
    note = "" if in_family else "reverse projection attained only on closure"
    report = SolveReport(
        theta_star=np.asarray(theta, dtype=float) if theta is not None else fwd.theta,
        p_star=p_star,
        residual_norm=proj_residual,
        iterations=0,
        trace=((fwd.theta.copy(), proj_residual),),
        route=Route.PROJECTION_EQ,
        note=note,
    )
    return ReverseProjectionResult(
        p_star=p_star,
        theta=None if theta is None else np.asarray(theta, dtype=float),
        in_family=in_family,
        membership=float(residual),
        report=report,
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
    sample_mean_power = float(empirical_weights(sample) @ pv ** (a - 1.0))
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
    sample_mean_power = float(empirical_weights(sample) @ pv ** (a - 1.0))
    return -(z ** (1.0 - a)) * sample_mean_power * cov
