"""Brute-force certification grids.

Simplex grids are generated as integer compositions of a resolution d
(exact rational membership, reproducible lexicographic order) and converted
to floats once.  Reverse grids sweep a box of parameters.  Both oracles are
exhaustive argmins with a deterministic first-lowest tie-break, so a
parallel evaluation would have to reduce in grid order to match.

The oracles evaluate no formula of their own: grid rows go through the same
row kernels as the scalar calls (``divergence_rows`` for the divergences,
``eval_members_batch`` for family members), so brute force and solvers
cannot drift apart.  A reverse grid pays for powers only on its admissible
rows (in a wide box most rows of a power-law family are not), and both
kernels sum row-wise, one column at a time, bit for bit as numpy would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import DivergenceKind, check_log_terms, divergence_fixed_p, divergence_rows
from .errors import EmptyFeasibleGrid, InputError, NoAdmissibleTheta
from .families import FamilySpec, LinearFamilySpec, eval_members_batch
from .measures import Distribution, SampleData, check_alpha

# A grid holds one row of m (or k) numbers per point, and its oracle several
# such arrays; a grid of more points is refused before anything is allocated.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class SimplexGrid:
    """All compositions of ``resolution`` into m parts, divided by it."""

    m: int
    resolution: int
    interior_only: bool = False

    def __post_init__(self):
        if self.m < 2 or self.resolution < 1:
            raise EmptyFeasibleGrid("grid needs m >= 2 and resolution >= 1")
        if self.point_count() > MAX_GRID_POINTS:
            raise InputError(f"simplex grid of {self.point_count()} points exceeds {MAX_GRID_POINTS}")

    def point_count(self) -> int:
        return math.comb(self.resolution + self.m - 1, self.m - 1)

    def counts(self) -> np.ndarray:
        """Every composition of ``resolution`` into m nonnegative parts, in
        lexicographic order of the m-1 stars-and-bars cut positions, which
        is lexicographic order of the parts themselves.  Built one part at a
        time: a row with r left to share spawns the rows of parts 0..r in
        order, each carrying r minus its part to the next."""
        rest = np.array([self.resolution], dtype=np.int64)
        parts = []
        for _ in range(self.m - 1):
            spawn = rest + 1
            parent = np.repeat(np.arange(rest.size), spawn)
            part = np.arange(parent.size, dtype=np.int64) - (np.cumsum(spawn) - spawn)[parent]
            parts = [p[parent] for p in parts] + [part]
            rest = rest[parent] - part
        return np.stack(parts + [rest], axis=1)

    def points(self) -> np.ndarray:
        counts = self.counts()
        points = counts / float(self.resolution)
        if self.interior_only:
            points = points[np.all(counts > 0, axis=1)]
        return points


def grid_forward_min(
    kind: DivergenceKind,
    alpha: float,
    q: Distribution,
    constraint: LinearFamilySpec | None,
    grid: SimplexGrid,
):
    """Exhaustive forward-projection argmin over a (filtered) simplex grid:
    ``(p_best, value, constraint_gap)``.

    A grid point is kept when it misses each constraint by at most half a
    cell, 0.5/resolution, so the value can undercut the true constrained
    minimum; ``constraint_gap`` is the argmin's own max |f p - a| (0 with
    no constraint), the slack its value stands on."""
    alpha = check_alpha(alpha, allow_one=True)
    kind = DivergenceKind(kind)
    points = grid.points()
    gap = np.zeros(len(points))
    if constraint is not None:
        tol = 0.5 / grid.resolution
        gap = np.max(np.abs(points @ constraint.f.T - constraint.a[None, :]), axis=1)
        near = gap <= tol
        points, gap = points[near], gap[near]
    if len(points) == 0:
        raise EmptyFeasibleGrid("no grid point satisfies the constraints")
    check_log_terms(kind, alpha, q.probs, points)
    values = divergence_rows(kind, points, q.probs, alpha)
    values = np.where(np.isnan(values), np.inf, values)
    best = int(np.argmin(values))  # argmin returns the first minimum
    p_best = Distribution(q.alphabet, points[best], strict=False)
    return p_best, float(values[best]), float(gap[best])


@dataclass(frozen=True)
class ThetaGrid:
    """Cartesian box lo..hi with the given number of steps per dimension."""

    lo: np.ndarray
    hi: np.ndarray
    steps: np.ndarray

    @classmethod
    def of(cls, lo, hi, steps, k: int = 1) -> "ThetaGrid":
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (k,)).copy()
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (k,)).copy()
        try:
            steps = np.broadcast_to(np.asarray(steps, dtype=int), (k,)).copy()
        except OverflowError:
            raise InputError(f"parameter grid steps {steps!r} are too large") from None
        return cls(lo, hi, steps)

    def __post_init__(self):
        with np.errstate(over="ignore"):
            finite = np.isfinite(self.lo) & np.isfinite(self.hi) & np.isfinite(self.hi - self.lo)
        if not finite.all():
            raise InputError("parameter grid bounds and their widths must be finite")
        if np.any(self.steps < 1):
            raise InputError("parameter grid needs at least one step per dimension")
        count = math.prod(int(s) for s in self.steps)
        if count > MAX_GRID_POINTS:
            raise InputError(f"parameter grid of {count} points exceeds {MAX_GRID_POINTS}")

    def points(self) -> np.ndarray:
        axes = [
            np.linspace(self.lo[i], self.hi[i], int(self.steps[i]))
            for i in range(len(self.lo))
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def cell_width(self) -> np.ndarray:
        return (self.hi - self.lo) / np.maximum(1, self.steps - 1)


def grid_reverse_min(
    kind: DivergenceKind,
    alpha: float,
    sample: SampleData,
    spec: FamilySpec,
    theta_grid: ThetaGrid,
):
    """Exhaustive reverse-projection argmin over an admissible parameter
    grid: ``(theta_best, value)`` at the first lowest D(P_hat, P_theta)."""
    alpha = check_alpha(alpha, allow_one=True)
    kind = DivergenceKind(kind)
    thetas = theta_grid.points()
    probs, ok = eval_members_batch(spec, thetas)
    if not np.any(ok):
        raise NoAdmissibleTheta("no admissible parameter in the grid box")
    if not ok.all():
        thetas, probs = thetas[ok], probs[ok]
    ph = sample.empirical.probs
    check_log_terms(kind, alpha, ph, probs)
    values = divergence_fixed_p(kind, ph, probs, alpha)
    best = int(np.argmin(values))
    return thetas[best], float(values[best])
