"""Damped-Newton root solving, the one driver of every theta route.

The estimating, projection and likelihood routes each hand it their own
residual: the analytic score equation, the moment equation, and the
likelihood's finite-difference gradient.  One Newton run goes from the
caller's start (default theta = 0, where P_theta = Q is admissible); an
inadmissible start raises ``NoConvergence``.  Jacobians are central finite
differences, one stencil per coordinate at step 1e-6*(1+|theta_j|), and
a stencil point outside the admissible region ends the run.  Damping is
Armijo backtracking on ||residual||^2 with factor 0.5 and at most 30
halvings.  A residual that is a positive multiple of a likelihood's
gradient comes with that likelihood as ``objective``, and steps on which
it rises are accepted too: on the ||r||^2 merit alone, Newton can walk off
along a ray where the residual flattens.  A residual that raises
``DomainViolation`` or ``NormalizerNotFound`` marks its point as
inadmissible.
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


def fd_jacobian(residual_fn, theta, r0):
    """Central-difference Jacobian at theta, whose residual is ``r0``: one
    stencil theta +- h*e_j per coordinate, h = FD_STEP*(1+|theta_j|).  The
    first stencil point outside the admissible region raises
    ``DomainViolation`` naming its coordinate."""
    theta = np.asarray(theta, dtype=float)
    jac = np.empty((r0.size, theta.size))
    for j in range(theta.size):
        h = FD_STEP * (1.0 + abs(theta[j]))
        ends = []
        for step in (h, -h):
            point = theta.copy()
            point[j] += step
            ends.append(_try_residual(residual_fn, point))
            if ends[-1] is None:
                raise DomainViolation(f"Jacobian stencil left the admissible region at coordinate {j}")
        jac[:, j] = (ends[0] - ends[1]) / (2.0 * h)
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
    strictly.  A run that stops short of ``tol`` raises ``NoConvergence``
    naming why: the iterate left the box |theta_j| <= THETA_CAP, the
    Jacobian stencil left the admissible region, the line search ran out
    of halvings, or the iteration cap was hit.
    """
    theta = np.zeros(theta_dim) if init is None else np.asarray(init, dtype=float).copy()
    r = _try_residual(residual_fn, theta)
    if r is None:
        raise NoConvergence("start is inadmissible", best_theta=theta)
    norm = float(np.max(np.abs(r)))
    trace = [(theta.copy(), norm)]
    value = None  # objective at theta, evaluated only when needed
    iters, reason = max_iter, "hit the iteration cap"
    for it in range(1, max_iter + 1):
        if norm <= tol:
            iters = it - 1
            break
        if float(np.max(np.abs(theta))) > THETA_CAP:
            iters, reason = it - 1, f"iterates escaped the solver box |theta| <= {THETA_CAP:g} (a supremum may lie at infinity)"
            break
        try:
            jac = fd_jacobian(residual_fn, theta, r0=r)
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
            iters, reason = it, "the line search ran out of halvings"
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
