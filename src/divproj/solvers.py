"""Damped-Newton root solving for estimating/projection equation residuals.

One Newton run from the caller's start (default theta = 0, where P_theta = Q
is admissible); an inadmissible start raises ``NoConvergence``.  Jacobians
are central finite differences (step 1e-6*(1+|theta_j|)); damping is Armijo
backtracking on ||residual||^2 with factor 0.5 and at most 30 halvings.  An
estimating residual is a positive multiple of its likelihood's gradient, so
that route also accepts steps on which the likelihood rises: on the ||r||^2
merit alone, Newton can walk off along a ray where the residual flattens.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolation, NoConvergence, NormalizerNotFound
from .measures import Distribution

RESIDUAL_TOL = 1e-10
MAX_ITER = 200
FD_STEP = 1e-6
ARMIJO_FACTOR = 0.5
MAX_HALVINGS = 30
# Iterates are confined to this box (desk-scale statistics are O(1)); a
# residual that only vanishes along an unbounded ray (degenerate samples,
# supremum at infinity) escapes it and is reported as NoConvergence.
THETA_CAP = 15.0


class Route(enum.Enum):
    ESTIMATING_EQ = "estimating_equation"
    PROJECTION_EQ = "projection_equation"
    LIKELIHOOD_MAX = "likelihood_maximization"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: parameter, member, residual and trace."""

    theta_star: np.ndarray
    p_star: Distribution
    residual_norm: float
    iterations: int
    trace: tuple[tuple[np.ndarray, float], ...]
    route: Route
    note: str = field(default="")


def _try_residual(residual_fn, theta):
    try:
        return np.atleast_1d(np.asarray(residual_fn(theta), dtype=float))
    except (DomainViolation, NormalizerNotFound):
        return None


def fd_jacobian(residual_fn, theta, r0=None):
    """Central-difference Jacobian; shrinks the stencil up to 3 times if it
    leaves the admissible region."""
    theta = np.asarray(theta, dtype=float)
    k = theta.size
    if r0 is None:
        r0 = _try_residual(residual_fn, theta)
        if r0 is None:
            raise DomainViolation("Jacobian base point is inadmissible")
    n_out = r0.size
    jac = np.empty((n_out, k))
    for j in range(k):
        h = FD_STEP * (1.0 + abs(theta[j]))
        for _ in range(4):
            tp = theta.copy()
            tp[j] += h
            tm = theta.copy()
            tm[j] -= h
            rp = _try_residual(residual_fn, tp)
            rm = _try_residual(residual_fn, tm)
            if rp is not None and rm is not None:
                jac[:, j] = (rp - rm) / (2.0 * h)
                break
            h *= 0.25
        else:
            raise DomainViolation(
                f"finite-difference stencil leaves the admissible region at coordinate {j}"
            )
    return jac


def solve_residual(
    residual_fn,
    theta_dim: int,
    init=None,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
    route: Route = Route.ESTIMATING_EQ,
    member_fn=None,
    note: str = "",
    objective=None,
) -> SolveReport:
    """Drive residual_fn to zero by damped Newton from ``init`` (default 0).

    ``objective``, when given, is a function whose gradient the residual is
    a positive multiple of.  A Newton step that does not ascend it becomes
    the residual scaled to unit infinity norm (the line search only shrinks
    a step, and ||r|| is tiny where the objective is flat), and a trial
    point the ||r||^2 test rejects is accepted when the objective rises
    strictly.
    """
    theta = np.zeros(theta_dim) if init is None else np.asarray(init, dtype=float).copy()
    r = _try_residual(residual_fn, theta)
    if r is None:
        raise NoConvergence("start is inadmissible", best_theta=theta)
    norm = float(np.max(np.abs(r)))
    trace = [(theta.copy(), norm)]
    value = None  # objective at theta, evaluated only when needed
    iters = max_iter
    for it in range(1, max_iter + 1):
        if norm <= tol or float(np.max(np.abs(theta))) > THETA_CAP:
            iters = it - 1
            break
        try:
            jac = fd_jacobian(residual_fn, theta, r0=r)
        except DomainViolation:
            iters = it - 1
            break
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if objective is not None and float(r @ step) <= 0.0:
            step = r / norm
        phi = float(r @ r)
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = theta + t * step
            rc = _try_residual(residual_fn, cand)
            if rc is not None:
                if float(rc @ rc) <= phi * (1.0 - 1e-4 * t):
                    theta, r, value = cand, rc, None
                    break
                if objective is not None:
                    if value is None:
                        value = objective(theta)
                    value_c = objective(cand)
                    if value_c > value:
                        theta, r, value = cand, rc, value_c
                        break
            t *= ARMIJO_FACTOR
        else:
            iters = it
            break
        norm = float(np.max(np.abs(r)))
        trace.append((theta.copy(), norm))
    if norm > tol:
        raise NoConvergence(
            f"residual stalled at {norm:.3e} after {iters} iterations",
            best_theta=theta,
            best_residual=norm,
        )
    p_star = member_fn(theta) if member_fn is not None else None
    return SolveReport(
        theta_star=theta,
        p_star=p_star,
        residual_norm=norm,
        iterations=iters,
        trace=tuple(trace),
        route=route,
        note=note,
    )
