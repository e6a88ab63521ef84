"""Damped-Newton root solving, the one driver of every theta route.

The estimating, projection and likelihood routes each hand it their own
row residual, the analytic score equation, the moment equation, and the
likelihood's finite-difference gradient: (n, k) residuals at (n, k)
parameter rows, NaN on an inadmissible row.  One Newton run goes from the
caller's start (default theta = 0, where P_theta = Q is admissible); an
inadmissible start raises ``NoConvergence``.  A Jacobian is central
differences at step 1e-6*(1+|theta_j|), its 2k stencil rows scored in one
call, and a stencil row outside the admissible region ends the run; a
trial point is a one-row call.  Damping is Armijo backtracking on
||residual||^2 with factor 0.5 and at most 30 halvings.  A residual that
is a positive multiple of a likelihood's gradient comes with that
likelihood's row form as ``objective``, and steps on which it rises are
accepted too: on the ||r||^2 merit alone, Newton can walk off along a ray
where the residual flattens.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, DomainViolation, NoConvergence
from .measures import Distribution

RESIDUAL_TOL = 1e-10
MAX_ITER = 200
FD_STEP = 1e-6
ARMIJO_FACTOR = 0.5
MAX_HALVINGS = 30
# Iterates are confined to this box (desk-scale statistics are O(1)); a
# residual that only vanishes along an unbounded ray (degenerate samples,
# supremum at infinity) runs into it and is reported as NoConvergence.
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


def fd_jacobian(residual_rows, theta):
    """Central-difference Jacobian at theta from one call on its 2k stencil
    rows theta + h e_j, theta - h e_j for each j, h = FD_STEP*(1+|theta_j|);
    the first row outside the admissible region raises ``DomainViolation``
    naming its coordinate."""
    theta = np.asarray(theta, dtype=float)
    h = FD_STEP * (1.0 + np.abs(theta))
    ends = residual_rows(np.stack([theta + np.diag(h), theta - np.diag(h)], axis=1).reshape(-1, theta.size))
    outside = np.flatnonzero(np.isnan(ends).any(axis=1))
    if outside.size:
        raise DomainViolation(f"Jacobian stencil left the admissible region at coordinate {outside[0] // 2}")
    return ((ends[0::2] - ends[1::2]) / (2.0 * h)[:, None]).T


def solve_residual(
    residual_rows,
    theta_dim: int,
    init=None,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
    route: Route = Route.ESTIMATING_EQ,
    member_fn=None,
    note: str = "",
    objective=None,
) -> SolveReport:
    """Drive the row residual to zero by damped Newton from ``init`` (default 0).

    ``objective``, when given, is the row form of a function whose gradient
    the residual is a positive multiple of.  A Newton step that does not
    ascend it becomes the residual scaled to unit infinity norm (the line
    search only shrinks a step, and ||r|| is tiny where the objective is
    flat), and a trial point the ||r||^2 test rejects is accepted when the
    objective rises strictly.  A trial point outside the box |theta_j| <=
    THETA_CAP counts as inadmissible.  A run that stops short of ``tol`` raises
    ``NoConvergence`` naming why: the Jacobian stencil left the admissible
    region, the line search ran out of halvings (against the box, when the
    full step left it), or the iteration cap was hit.  An ``init`` of any
    shape but (theta_dim,) raises ``DomainError``.
    """
    theta = np.zeros(theta_dim) if init is None else np.atleast_1d(np.asarray(init, dtype=float)).copy()
    if theta.shape != (theta_dim,):
        raise DomainError(f"init has shape {theta.shape}, expected ({theta_dim},)")
    r = residual_rows(theta[None, :])[0]
    if np.isnan(r).any():
        raise NoConvergence("start is inadmissible", best_theta=theta)
    norm = float(np.max(np.abs(r)))
    trace = [(theta.copy(), norm)]
    value = None  # objective at theta, evaluated only when needed
    iters, reason = max_iter, "hit the iteration cap"
    for it in range(1, max_iter + 1):
        if norm <= tol:
            iters = it - 1
            break
        try:
            jac = fd_jacobian(residual_rows, theta)
        except DomainViolation:
            iters, reason = it - 1, "the Jacobian stencil left the admissible region"
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
            # a trial point outside the box is inadmissible, so the step halves
            rc = residual_rows(cand[None, :])[0] if np.max(np.abs(cand)) <= THETA_CAP else None
            if rc is not None and not np.isnan(rc).any():
                if float(rc @ rc) <= phi * (1.0 - 1e-4 * t):
                    theta, r, value = cand, rc, None
                    break
                if objective is not None:
                    if value is None:
                        value = objective(theta[None, :])[0]
                    value_c = objective(cand[None, :])[0]
                    if value_c > value:
                        theta, r, value = cand, rc, value_c
                        break
            t *= ARMIJO_FACTOR
        else:
            iters, reason = it, "the line search ran out of halvings"
            if np.max(np.abs(theta + step)) > THETA_CAP:  # the box is convex
                reason += f" against the solver box |theta| <= {THETA_CAP:g} (a supremum may lie at infinity)"
            break
        norm = float(np.max(np.abs(r)))
        trace.append((theta.copy(), norm))
    if norm > tol:
        raise NoConvergence(
            f"residual stalled at {norm:.3e} after {iters} iterations: {reason}",
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
