"""Brute-force certification grids.

Simplex grids are generated as integer compositions of a resolution d
(exact rational membership, reproducible lexicographic order) and converted
to floats once.  Reverse grids sweep a box of parameters.  Both oracles are
exhaustive argmins with a deterministic first-lowest tie-break.  Both walk
their grid in blocks of ``BLOCK_ROWS`` rows, the last one holding the rest,
so an oracle's memory is set by a block, not by the grid: each block is
scored whole, and the block minima are reduced in grid order by
``np.argmin``'s own rule (first lowest, first NaN), which is the argmin of
the whole grid.  Every row kernel scores a row as its one-row call does,
so how the blocks fall moves no bit of the answer.

A reverse grid first screens its rows by the family's half-spaces
(``families.admissible_halfspaces``), which every admissible theta meets.
On each line of the grid's last axis they bound that parameter to an index
range, widened by one cell and a relative slack, and only the rows in those
ranges, the candidates, are built and scored, in grid order and in blocks
of ``BLOCK_ROWS`` of them.  A family without half-spaces takes every line
whole, so one walk serves every kind: rows are built from line ranges, the
leading parameters repeated and the last one sliced off its axis.  The row
test stays the only admissibility decision and a dropped row could not pass
it, so the answer is the unscreened grid's bit for bit.

The oracles evaluate no formula of their own: grid rows go through the same
row kernels as the scalar calls (``divergence_rows`` for the divergences,
the member kernel ``families._members`` for family members), so brute force
and solvers cannot drift apart.  The member kernel returns only a block's
admissible rows, with their indices, and the oracle scores those as they
come: a reverse grid pays for powers only on its admissible rows (in a wide
box most rows of a power-law family are not), and both kernels sum
row-wise, one column at a time, bit for bit as numpy would.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .divergences import DivergenceKind, check_log_terms, divergence_fixed_p, divergence_rows
from .errors import DomainError, EmptyFeasibleGrid, InputError, NoAdmissibleTheta
from .families import HALFSPACE_SLACK, FamilySpec, LinearFamilySpec, _members, admissible_halfspaces
from .measures import Distribution, SampleData, check_alpha, empirical_weights, row_dots

# The cap bounds an oracle's time (and a simplex grid's integer compositions,
# which stay whole); a grid of more points is refused before anything is
# allocated.
MAX_GRID_POINTS = 10**6

# Rows scored at once.  Each block of a Basu alpha = 3 grid runs its own
# normalizer passes to its slowest row, about 7-12 on the benchmark's grids,
# so smaller blocks cost time: re-measure before going below 2**14.
BLOCK_ROWS = 2**14


class _FirstLowest:
    """np.argmin over a grid scored block by block, in grid order.

    Each block offers its own argmin; the pick among the offers by np.argmin
    is the first lowest (or first NaN) of the whole grid, since an earlier
    block's rows precede a later one's."""

    def __init__(self):
        self.values, self.picks = [], []

    def offer(self, values: np.ndarray, *rows: np.ndarray) -> None:
        best = int(np.argmin(values))
        self.values.append(values[best])
        # copies, so no block outlives its turn
        self.picks.append(tuple(r[best].copy() for r in rows))

    def __bool__(self) -> bool:
        return bool(self.values)

    def best(self):
        """``(value, *rows)`` at the grid's argmin."""
        i = int(np.argmin(self.values))
        return (float(self.values[i]), *self.picks[i])


def _whole(value, what: str) -> int:
    """A grid size as an int: any integer, numpy's included, or an integral
    float; ``InputError`` for anything else (NaN, inf, 2.7, text)."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and math.isfinite(value) and value == math.floor(value):
        return int(value)
    raise InputError(f"{what} must be a whole number, got {value!r}")


def _per_axis(value, k: int, what: str) -> np.ndarray:
    """``value``, a scalar or one entry per axis, on each of k axes."""
    value = np.asarray(value)
    if value.ndim > 1 or value.size not in (1, k):
        raise DomainError(f"parameter grid {what} have shape {value.shape}, expected () or ({k},)")
    return np.broadcast_to(value, (k,))


@dataclass(frozen=True)
class SimplexGrid:
    """All compositions of ``resolution`` into m parts, divided by it."""

    m: int
    resolution: int

    def __post_init__(self):
        object.__setattr__(self, "m", _whole(self.m, "simplex size m"))
        object.__setattr__(self, "resolution", _whole(self.resolution, "simplex grid resolution"))
        if self.m < 2 or self.resolution < 1:
            raise InputError(f"simplex grid needs m >= 2 and resolution >= 1, got {self.m} and {self.resolution}")
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
        return self.counts() / float(self.resolution)


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
    counts = grid.counts()
    tol = 0.5 / grid.resolution
    lowest = _FirstLowest()
    for start in range(0, len(counts), BLOCK_ROWS):
        points = counts[start : start + BLOCK_ROWS] / float(grid.resolution)
        gap = np.zeros(len(points))
        if constraint is not None:
            gap = np.max(np.abs(row_dots(constraint.f, points) - constraint.a[None, :]), axis=1)
            near = gap <= tol
            points, gap = points[near], gap[near]
            if len(points) == 0:
                continue
        check_log_terms(kind, alpha, q.probs, points)
        values = divergence_rows(kind, points, q.probs, alpha)
        lowest.offer(np.where(np.isnan(values), np.inf, values), points, gap)
    if not lowest:
        raise EmptyFeasibleGrid("no grid point satisfies the constraints")
    value, p_best, gap = lowest.best()
    return Distribution(q.alphabet, p_best, strict=False), value, float(gap)


@dataclass(frozen=True)
class ThetaGrid:
    """Cartesian box lo..hi with the given number of steps per dimension."""

    lo: np.ndarray
    hi: np.ndarray
    steps: np.ndarray

    @classmethod
    def of(cls, lo, hi, steps, k: int = 1) -> "ThetaGrid":
        lo = _per_axis(np.asarray(lo, dtype=float), k, "lower bounds").copy()
        hi = _per_axis(np.asarray(hi, dtype=float), k, "upper bounds").copy()
        steps = [_whole(s, "parameter grid steps") for s in _per_axis(steps, k, "steps")]
        try:
            steps = np.array(steps, dtype=np.int64)
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
        if self.point_count() > MAX_GRID_POINTS:
            raise InputError(f"parameter grid of {self.point_count()} points exceeds {MAX_GRID_POINTS}")

    def point_count(self) -> int:
        return math.prod(int(s) for s in self.steps)

    @cached_property
    def _axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, int(s)) for lo, hi, s in zip(self.lo, self.hi, self.steps)]

    def _line_rows(self, lines: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
        """Rows ``starts[j]..stops[j]`` of each line ``lines[j]``, in that
        order.  A line is the last axis at fixed leading indices, and lines
        are numbered in mesh order; each entry is read off its linspace axis,
        the leading ones repeated over their line, the last one a slice."""
        counts = stops - starts
        total = int(counts.sum())
        out = np.empty((total, len(self._axes)))
        if len(self._axes) > 1:
            lead = np.unravel_index(lines, tuple(len(a) for a in self._axes[:-1]))
            for col, (axis, i) in enumerate(zip(self._axes, lead)):
                out[:, col] = np.repeat(axis[i], counts)
        # the position in the last axis: the row's rank plus its line's offset
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        out[:, -1] = self._axes[-1][np.arange(total) + shift]
        return out

    def _whole_lines(self):
        """``(lines, starts, stops)`` of every line, whole, for ``_line_rows``."""
        s = int(self.steps[-1])
        lines = self.point_count() // s
        return np.arange(lines), np.zeros(lines, dtype=np.int64), np.full(lines, s, dtype=np.int64)

    def points(self) -> np.ndarray:
        """Every point of the grid in mesh order (the first parameter varies slowest)."""
        return self._line_rows(*self._whole_lines())

    def cell_width(self) -> np.ndarray:
        return (self.hi - self.lo) / np.maximum(1, self.steps - 1)


def _line_spans(grid: ThetaGrid, spec: FamilySpec):
    """``(lines, starts, stops)``: on each line of ``grid`` that can hold an
    admissible row, the index range of its last axis that can; every line
    whole when the family has no half-spaces to screen by (or their
    coefficients overflow).

    On a line the leading parameters u are fixed, so each half-space G theta
    < h of ``admissible_halfspaces`` bounds the last one, t, from one side;
    its right side gets the slack HALFSPACE_SLACK (1 + |h| + scale |theta|),
    with |t| at its largest on the axis.  The range holds the axis points
    within the bounds widened by one cell each way; a line whose bounds
    are not finite keeps every row.  Lines are screened a chunk at a time,
    so no (lines, half-spaces) array outgrows a block.
    """
    G, h, scale = admissible_halfspaces(spec)
    axes = grid._axes
    axis, s = axes[-1], len(axes[-1])
    shape = tuple(len(a) for a in axes[:-1])
    total = math.prod(shape)
    if not len(h) or not (np.isfinite(G).all() and np.isfinite(scale).all()):
        return grid._whole_lines()
    rising = axis[0] <= axis[-1]
    ascending = axis if rising else axis[::-1]
    t_max = max(abs(axis[0]), abs(axis[-1]))
    cell = abs(axis[-1] - axis[0]) / max(s - 1, 1)
    chunk = max(1, BLOCK_ROWS // len(h))
    spans = []
    for first in range(0, total, chunk):
        lines = np.arange(first, min(first + chunk, total))
        u = np.stack([a[i] for a, i in zip(axes, np.unravel_index(lines, shape))], axis=1) if shape else np.zeros((1, 0))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            slack = HALFSPACE_SLACK * (1.0 + np.abs(h) + np.abs(u) @ scale[:, :-1].T + t_max * scale[:, -1])
            room = h - u @ G[:, :-1].T + slack  # (lines, half-spaces): g t < room
            bound = room / G[:, -1]
            upper = np.min(bound, axis=1, where=G[:, -1] > 0.0, initial=np.inf) + cell
            lower = np.max(bound, axis=1, where=G[:, -1] < 0.0, initial=-np.inf) - cell
        # a half-space that misses t excludes the whole line, or nothing
        empty = (lower > upper) | np.any((G[:, -1] == 0.0) & (room <= 0.0), axis=1)
        whole = ~np.isfinite(room).all(axis=1)
        start = np.searchsorted(ascending, lower, side="left")
        stop = np.searchsorted(ascending, upper, side="right")
        if not rising:
            start, stop = s - stop, s - start
        start[whole], stop[whole] = 0, s
        keep = whole | (~empty & (start < stop))
        spans.append((lines[keep], start[keep], stop[keep]))
    return tuple(np.concatenate(parts) for parts in zip(*spans))


def _candidate_blocks(grid: ThetaGrid, spec: FamilySpec):
    """The grid's rows that can be admissible (every row, for a family with
    no half-spaces), in grid order, as blocks of BLOCK_ROWS rows."""
    lines, starts, stops = _line_spans(grid, spec)
    counts = stops - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, total)
        # the lines holding candidates start..stop, cut to them
        first, last = np.searchsorted(ends, [start, stop - 1], side="right")
        cut = slice(first, last + 1)
        lo, hi = starts[cut].copy(), stops[cut].copy()
        lo[0] += start - (ends[first] - counts[first])
        hi[-1] = starts[last] + stop - (ends[last] - counts[last])
        yield grid._line_rows(lines[cut], lo, hi)


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
    ph = empirical_weights(sample, spec.q.m)
    if theta_grid.lo.shape != (spec.theta_dim,):
        raise DomainError(f"parameter grid bounds have shape {theta_grid.lo.shape}, expected ({spec.theta_dim},)")
    lowest = _FirstLowest()
    for thetas in _candidate_blocks(theta_grid, spec):
        rows, probs, _ = _members(spec, thetas)
        if rows.size:
            check_log_terms(kind, alpha, ph, probs)
            # a whole block of admissible rows is offered as it is, uncopied
            picks = thetas if rows.size == len(thetas) else thetas[rows]
            lowest.offer(divergence_fixed_p(kind, ph, probs, alpha), picks)
    if not lowest:
        raise NoAdmissibleTheta("no admissible parameter in the grid box")
    value, theta_best = lowest.best()
    return theta_best, value
