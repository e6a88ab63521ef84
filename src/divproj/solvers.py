"""Damped-Newton root solving for estimating/projection equation residuals.

Jacobians are central finite differences (step 1e-6*(1+|theta_j|)); damping
is Armijo backtracking on ||residual||^2 with factor 0.5 and at most 30
halvings.  On stall or an inadmissible start the solver falls back to a
multi-start sweep over a coarse 3^k grid; the winner is the smallest
residual, ties (< 1e-12 apart) broken by the smallest ||theta||.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolation, NoConvergence, NormalizerNotFound
from .measures import Distribution

RESIDUAL_TOL = 1e-10
MAX_ITER = 200
FD_STEP = 1e-6
ARMIJO_FACTOR = 0.5
MAX_HALVINGS = 30
MULTISTART_EXTENT = 0.5
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


def _newton_from(residual_fn, theta0, tol, max_iter):
    """One damped-Newton run; returns (theta, r, norm, iters, trace, ok)."""
    theta = np.asarray(theta0, dtype=float).copy()
    r = _try_residual(residual_fn, theta)
    if r is None:
        return None
    norm = float(np.max(np.abs(r)))
    trace = [(theta.copy(), norm)]
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return theta, r, norm, it - 1, trace, True
        if float(np.max(np.abs(theta))) > THETA_CAP:
            return theta, r, norm, it - 1, trace, False
        try:
            jac = fd_jacobian(residual_fn, theta, r0=r)
        except DomainViolation:
            return theta, r, norm, it - 1, trace, False
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        phi = float(r @ r)
        t = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            cand = theta + t * step
            rc = _try_residual(residual_fn, cand)
            if rc is not None:
                phi_c = float(rc @ rc)
                if phi_c <= phi * (1.0 - 1e-4 * t):
                    theta, r = cand, rc
                    norm = float(np.max(np.abs(r)))
                    trace.append((theta.copy(), norm))
                    accepted = True
                    break
            t *= ARMIJO_FACTOR
        if not accepted:
            return theta, r, norm, it, trace, norm <= tol
    return theta, r, norm, max_iter, trace, norm <= tol


def solve_residual(
    residual_fn,
    theta_dim: int,
    init=None,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
    route: Route = Route.ESTIMATING_EQ,
    member_fn=None,
    note: str = "",
) -> SolveReport:
    """Drive residual_fn to zero; damped Newton with a multi-start fallback."""
    theta0 = np.zeros(theta_dim) if init is None else np.asarray(init, dtype=float)
    runs = []
    first = _newton_from(residual_fn, theta0, tol, max_iter)
    if first is not None:
        runs.append(first)
    if first is None or not first[-1]:
        grid = itertools.product((-MULTISTART_EXTENT, 0.0, MULTISTART_EXTENT), repeat=theta_dim)
        for start in grid:
            start = np.asarray(start)
            if first is not None and np.allclose(start, theta0):
                continue
            # shrink toward the origin until admissible: the admissible
            # region can be a thin sliver on one side
            for _ in range(8):
                if _try_residual(residual_fn, start) is not None:
                    break
                start = 0.5 * start
            run = _newton_from(residual_fn, start, tol, max_iter)
            if run is not None:
                runs.append(run)
                if run[-1]:
                    break
    if not runs:
        raise DomainViolation("no admissible start found")

    def run_key(run):
        theta, _, norm, *_ = run
        return (norm, float(np.linalg.norm(theta)))

    best = min(runs, key=run_key)
    # deterministic tie-break: smallest residual, then smallest ||theta||
    near = [r for r in runs if r[2] <= best[2] + 1e-12]
    best = min(near, key=lambda r: float(np.linalg.norm(r[0])))
    theta, r, norm, iters, trace, ok = best
    if not ok:
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
        trace=tuple((t.copy(), n) for t, n in trace),
        route=route,
        note=note,
    )
