"""The four parametric families and the linear family.

Family shapes (reference measure Q with full support, statistics f_1..f_k,
parameter theta in an open subset of R^k):

* exponential:            P(x) = Z^-1 exp[log Q(x) + theta.f(x)]
* alpha power-law:        P(x) = Z^-1 [Q(x)^(a-1) + (1-a) theta.f(x)]^(1/(a-1))
* non-normalized variant: P(x) = [Q(x)^(a-1) + (1-a){Z(theta) + theta.f(x)}]^(1/(a-1))
* alpha exponential:      P(x) = Z^-1 [Q(x)^(1-a) + (1-a) theta.f(x)]^(1/(1-a))

For the power-law kinds the parameter domain is implicit: theta is admissible
iff its defining bracket stays positive on the whole alphabet.  The
non-normalized kind carries its normalizer *inside* the bracket, so Z(theta)
is the root of a one-dimensional monotone mass equation rather than an
explicit sum; it is found by a safeguarded Newton iteration that keeps a
closed-form bracket around the root.  A Newton step that would leave it
bisects, except above a = 2, where the mass is concave in Z: there the step
jumps to a closed-form point right of the root, from which Newton converges
monotonically and no row bisects.  Over a batch of parameters the iteration
runs on the rows that have not converged yet, so a grid costs about two
evaluations per row, not as many as its slowest row needs.  Evaluation
works in the bracket domain and raises the final power once, which keeps
domain checks exact.

The power-law kinds also state necessary linear conditions for
admissibility, half-spaces G theta < h (``admissible_halfspaces``): the
brackets themselves for the normalized kinds, and bounds implied by the
edge mass for the non-normalized kind above a = 1.  The reverse grid oracle
screens its rows by them; the row test alone still decides admissibility.

Members are evaluated by one kernel over rows of parameters (the grid
oracle's batches); ``member_with_normalizer`` and ``normalizer_root`` are its
one-row cases, so scalar and batch calls agree on values and admissibility.
The kernel returns only the admissible rows, with their indices, so a grid
pays powers only on its rows that can be admissible: the power-law kinds
decide admissibility first (the bracket's sign, and for the non-normalized
kind whether a normalizer was found) and raise the power on those rows
alone.  The reverse oracle and ``factorization_check`` score those rows as
they come; ``eval_members_batch`` and the row forms of the routes pad the
others with NaN, in one helper (``_at_rows``).  A row's value is its
one-row call's, bit for bit, in a batch of any size: no kernel forms a BLAS
product over the rows (which rounds a batch and a single row apart), the
tilt theta.f sums the statistics in order, and row sums run one column at a
time (``measures.reduce_rows``), left to right like numpy's own.  Every
member has full support: a member that underflows to an exact 0 on some
symbol is inadmissible, like one whose bracket is non-positive or whose
tilt theta.f overflows.

The linear family {P : f P = a} solves its linear programs once, at
construction, and caches the centre, margin and support face they give.
Every LP has the family's own k + 1 rows (f; 1) P = (a, 1): the max-min LP
writes P = t + s with s >= 0, which needs no row per symbol.  So a dense
two-phase tableau simplex in numpy, ``linprog``, solves them; the module
needs no scipy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    DomainViolation,
    InfeasibleError,
    InvalidDistribution,
    NoConvergence,
    NormalizerNotFound,
)
from .measures import Alphabet, Distribution, alpha_norm, check_alpha, escort, reduce_rows

RANK_RTOL = 1e-10  # linear-independence tolerance, relative to sigma_max


class FamilyKind(enum.Enum):
    EXPONENTIAL = "exponential"
    ALPHA_POWER_LAW = "alpha_power_law"
    NON_NORMALIZED_ALPHA_POWER_LAW = "non_normalized_alpha_power_law"
    ALPHA_EXPONENTIAL = "alpha_exponential"


def _rank(matrix: np.ndarray) -> int:
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0]))


@dataclass(frozen=True)
class FamilySpec:
    """Immutable description of one parametric family."""

    kind: FamilyKind
    q: Distribution
    f: np.ndarray  # (k, m): row i is the statistic f_i over the alphabet
    alpha: float = 1.0

    def __post_init__(self):
        kind = FamilyKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if not self.q.is_strictly_positive():
            raise InvalidDistribution("reference measure must have full support")
        f = np.asarray(self.f, dtype=float)
        if f.ndim == 1:
            f = f[None, :]
        if f.shape[1] != self.q.m or f.shape[0] < 1:
            raise InvalidDistribution("statistic matrix must be (k, m) with k >= 1")
        if not np.all(np.isfinite(f)):
            raise InvalidDistribution("statistic matrix has non-finite entries")
        if _rank(f) < f.shape[0]:
            raise InvalidDistribution("statistic rows must be linearly independent")
        alpha = float(self.alpha)
        if kind is FamilyKind.EXPONENTIAL:
            alpha = 1.0
        else:
            alpha = check_alpha(alpha)
        # the normalization absorbs one direction of the tilt (a constant, or
        # a multiple of the reference bracket); theta is identifiable, and the
        # power-law moment map one-one, only if f does not reach it
        absorbed, name = {
            FamilyKind.EXPONENTIAL: (np.ones(self.q.m), "the constant vector"),
            FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW: (np.ones(self.q.m), "the constant vector"),
            FamilyKind.ALPHA_POWER_LAW: (self.q.probs ** (alpha - 1.0), "Q^(alpha-1)"),
            FamilyKind.ALPHA_EXPONENTIAL: (self.q.probs ** (1.0 - alpha), "Q^(1-alpha)"),
        }[kind]
        if _rank(np.vstack([f, absorbed])) < f.shape[0] + 1:
            raise InvalidDistribution(
                f"{name} must be linearly independent of the statistic rows"
                " (theta is not identifiable)"
            )
        f = f.copy()
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "alpha", alpha)

    @property
    def theta_dim(self) -> int:
        return int(self.f.shape[0])

    @property
    def alphabet(self) -> Alphabet:
        return self.q.alphabet


def _check_theta(spec: FamilySpec, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (spec.theta_dim,):
        raise DomainError(
            f"theta has shape {theta.shape}, expected ({spec.theta_dim},)"
        )
    return theta


def _bracket(spec: FamilySpec, tilt: np.ndarray, z=0.0) -> np.ndarray:
    """The defining bracket of a power-law kind at tilt = theta.f (any leading
    axes); ``z`` enters only for the non-normalized kind.  A finite tilt
    times (1 - a) can overflow to +-inf: callers evaluate it under
    ``np.errstate(over="ignore")``, and such a theta is inadmissible."""
    a = spec.alpha
    if spec.kind is FamilyKind.ALPHA_EXPONENTIAL:
        return spec.q.probs ** (1.0 - a) + (1.0 - a) * tilt
    return spec.q.probs ** (a - 1.0) + (1.0 - a) * (z + tilt)


def _tilt(spec: FamilySpec, thetas: np.ndarray) -> np.ndarray:
    """theta.f for a theta or each row of ``thetas``, NaN where the sum
    overflows: such a theta is inadmissible, and NaN passes through the
    kernels without a warning.  A symbol at a time, summed over the
    statistics in order, so no row depends on the rows evaluated with it."""
    f = spec.f
    tilt = np.empty((*thetas.shape[:-1], f.shape[1]))
    term = np.empty(thetas.shape[:-1])  # one temporary, reused by every product
    with np.errstate(over="ignore", invalid="ignore"):
        for x in range(f.shape[1]):
            col = np.multiply(thetas[..., 0], f[0, x], out=tilt[..., x])
            for j in range(1, len(f)):
                col += np.multiply(thetas[..., j], f[j, x], out=term)
    tilt[~np.isfinite(tilt)] = np.nan
    return tilt


def bracket_values(spec: FamilySpec, theta, z: float = 0.0) -> np.ndarray:
    """The defining bracket u(x) of a power-law kind, per symbol (NaN where
    theta.f overflows, +-inf where the bracket does)."""
    theta = _check_theta(spec, theta)
    if spec.kind is FamilyKind.EXPONENTIAL:
        raise DomainError("exponential family has no bracket")
    if spec.kind is FamilyKind.ALPHA_POWER_LAW:
        z = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return _bracket(spec, _tilt(spec, theta), z)


def is_admissible(spec: FamilySpec, theta) -> bool:
    """True iff eval_member(spec, theta) is defined."""
    try:
        eval_member(spec, theta)
        return True
    except (DomainViolation, NormalizerNotFound):
        return False


# the row test rounds far below this share of the terms it sums: 1e-9 is
# about 10^7 ulps, so a screen by the half-spaces below drops no admissible row
HALFSPACE_SLACK = 1e-9


def admissible_halfspaces(spec: FamilySpec):
    """Half-spaces G theta < h that every admissible theta satisfies:
    ``(G, h, scale)``, G and ``scale`` (r, k) and h (r,); r = 0 when the
    kind has none.

    * alpha power-law and alpha-exponential kinds: the brackets themselves,
      (a-1) theta.f(x) < Q(x)^(a-1) (resp. Q(x)^(1-a)) for every x.
    * non-normalized kind at a > 1, with edge e_x = Q(x)^(a-1)/(a-1) -
      theta.f(x): a normalizer exists iff the edge mass sum_x t_x^(1/(a-1))
      is below 1, t_x = (a-1)(e_x - min_y e_y) >= 0.  So every t_x < 1,
      which gives (a-1)(e_x - e_y) < 1 for every pair x != y; and sum_x t_x
      < B, which gives (a-1) sum_x (e_x - e_y) < B for every y, with B = 1
      for a >= 2 (t^p >= t on [0, 1] when p <= 1) and B = m^(2-a) below
      (the power mean: (sum_x t_x / m)^p <= sum_x t_x^p / m < 1/m).
    * none for the exponential kind, or for the non-normalized kind below
      a = 1, where every finite tilt has a normalizer.

    ``scale`` bounds the terms the row test sums for each half-space: an
    admissible theta has G theta < h + HALFSPACE_SLACK (1 + |h| + scale |theta|)
    in floating point too.
    """
    a, f, m, k = spec.alpha, spec.f, spec.q.m, spec.theta_dim
    kind = spec.kind
    if kind is FamilyKind.EXPONENTIAL or (kind is FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW and a < 1.0):
        return np.zeros((0, k)), np.zeros(0), np.zeros((0, k))
    if kind is not FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW:
        power = 1.0 - a if kind is FamilyKind.ALPHA_EXPONENTIAL else a - 1.0
        G = (a - 1.0) * f.T
        return G, spec.q.probs**power, np.abs(G)
    qa, ft, fabs = spec.q.probs ** (a - 1.0), f.T, np.abs(f.T)
    x, y = (i.ravel() for i in np.nonzero(~np.eye(m, dtype=bool)))
    # (a-1)(e_x - e_y) = Q(x)^(a-1) - Q(y)^(a-1) - (a-1) theta.(f(x) - f(y))
    pair_G, pair_h = (a - 1.0) * (ft[y] - ft[x]), 1.0 - (qa[x] - qa[y])
    pair_scale = (a - 1.0) * (fabs[x] + fabs[y])
    # (a-1) sum_x (e_x - e_y) = sum Q^(a-1) - m Q(y)^(a-1) - (a-1) theta.(sum f - m f(y))
    bound = 1.0 if a >= 2.0 else m ** (2.0 - a)
    sum_G = (a - 1.0) * (m * ft - ft.sum(axis=0))
    sum_h = bound - (qa.sum() - m * qa)
    sum_scale = (a - 1.0) * (fabs.sum(axis=0) + m * fabs)
    return np.vstack([pair_G, sum_G]), np.concatenate([pair_h, sum_h]), np.vstack([pair_scale, sum_scale])


def _symbols(spec: FamilySpec, mask: np.ndarray) -> tuple[str, ...]:
    return tuple(s for s, hit in zip(spec.alphabet.symbols, mask) if hit)


def _member_rows(spec: FamilySpec, thetas: np.ndarray, z=None):
    """The kernel of ``_members`` before its last test: ``(rows, w, z)``
    at the rows of ``thetas`` that pass the power-law kinds' tests (a
    normalizer found, positive brackets).  ``w`` holds their members, which
    may still be 0 (an underflow) or NaN (an overflowed tilt, or mass lost
    to 0 or inf) somewhere."""
    a = spec.alpha
    tilt = _tilt(spec, thetas)
    rows = np.arange(len(tilt))
    # the (n, m) work arrays are updated in place: oracle grids reach 1e5 rows
    if spec.kind is FamilyKind.EXPONENTIAL:
        w = np.log(spec.q.probs) + tilt
        shift = reduce_rows(np.maximum, w)
        # a spread beyond the float range gives -inf, so the member underflows;
        # Z = inf is right for a far theta; an overflowed tilt's row is NaN
        with np.errstate(over="ignore"):
            w -= shift[:, None]
            np.exp(w, out=w)
            total = reduce_rows(np.add, w)
            w /= total[:, None]
            return rows, w, total * np.exp(shift)
    # a grid's inadmissible rows pay for no power: only the rows that can be
    # admissible (found a normalizer, then a positive bracket) are gathered;
    # when every row can be, none moves
    if spec.kind is FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW and z is None:
        z, found = _normalizer_rows(spec, tilt)[:2]
        if not found.all():
            rows = np.flatnonzero(found)
            tilt, z = tilt[rows], z[rows]
    # a bracket, or its power, may overflow to inf: that member's mass is
    # lost (inf / inf), as it is when the power underflows on every symbol (0 / 0)
    with np.errstate(over="ignore", invalid="ignore"):
        w = _bracket(spec, tilt, 0.0 if z is None else z[:, None])
        positive = reduce_rows(np.logical_and, w > 0.0)
        if not positive.all():
            rows, w = rows[positive], w[positive]
            z = None if z is None else z[positive]
        w **= 1.0 / (1.0 - a) if spec.kind is FamilyKind.ALPHA_EXPONENTIAL else 1.0 / (a - 1.0)
        total = reduce_rows(np.add, w)
        w /= total[:, None]
    return rows, w, total if z is None else z


def _members(spec: FamilySpec, thetas: np.ndarray, z=None):
    """Members at the admissible rows of ``thetas`` (n, k): ``(rows, probs, z)``.

    ``rows`` indexes ``thetas``, ``probs`` (len(rows), m) holds their
    members and ``z`` their normalizing constants.  A row drops out when
    theta.f overflows, a bracket is non-positive, no normalizer is found,
    its mass is lost, or its member underflows to an exact 0 on some
    symbol.  When every row is admissible nothing is gathered: ``rows`` is
    every index, ``probs`` the kernel's own array.  The non-normalized kind
    solves for its normalizers unless they are given.
    """
    rows, w, z = _member_rows(spec, thetas, z)
    positive = w > 0.0  # NaN and 0 fail alike
    if not positive.all():
        full = reduce_rows(np.logical_and, positive)
        rows, w, z = rows[full], w[full], z[full]
    return rows, w, z


def _at_rows(spec: FamilySpec, thetas: np.ndarray, formula) -> np.ndarray:
    """``formula(probs, z)`` over the admissible rows of ``thetas`` (n, k),
    each row's members and normalizers, padded to n rows with NaN where the
    member is not admissible: the row form of every kernel on members."""
    rows, probs, z = _members(spec, thetas)
    values = formula(probs, z)
    if len(rows) == len(thetas):
        return values
    out = np.full((len(thetas), *values.shape[1:]), np.nan)
    out[rows] = values
    return out


def member_with_normalizer(spec: FamilySpec, theta) -> tuple[Distribution, float]:
    """Evaluate P_theta together with its normalizing constant Z(theta)."""
    theta = _check_theta(spec, theta)
    z = None
    if spec.kind is FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW:
        z = np.array([normalizer_root(spec, theta)])
    rows, probs, zs = _members(spec, theta[None, :], z)
    if rows.size:
        return Distribution(spec.alphabet, probs[0], strict=True), float(zs[0])
    overflow = np.isnan(_tilt(spec, theta))
    if overflow.any():
        raise DomainViolation("theta.f overflows on some symbols", symbols=_symbols(spec, overflow))
    if spec.kind is not FamilyKind.EXPONENTIAL:
        bracket = bracket_values(spec, theta, 0.0 if z is None else z[0])
        overflow = ~np.isfinite(bracket)
        if overflow.any():
            raise DomainViolation("bracket overflows on some symbols", symbols=_symbols(spec, overflow))
        symbols = _symbols(spec, bracket <= 0.0)
        if symbols:
            raise DomainViolation("bracket non-positive on some symbols", symbols=symbols)
    # the member itself: its mass overflowed, or it underflows on some symbols
    _, w, z = _member_rows(spec, theta[None, :], z)
    if spec.kind is not FamilyKind.EXPONENTIAL and z[0] == np.inf:
        raise DomainViolation("member's mass overflows", symbols=spec.alphabet.symbols)
    raise DomainViolation("member underflows to 0 on some symbols", symbols=_symbols(spec, ~(w[0] > 0.0)))


def _one_row(spec: FamilySpec, rows_fn, theta):
    """The row kernel ``rows_fn`` (NaN on inadmissible rows) at the one
    parameter theta, raising the member's own error where it is NaN."""
    theta = _check_theta(spec, theta)
    value = rows_fn(theta[None, :])[0]
    if np.isnan(value).any():
        member_with_normalizer(spec, theta)  # raises the member's error
    return value


def eval_member(spec: FamilySpec, theta) -> Distribution:
    """Evaluate the family member P_theta."""
    return member_with_normalizer(spec, theta)[0]


def eval_members_batch(spec: FamilySpec, thetas: np.ndarray):
    """Evaluate many parameters at once: the row form of ``eval_member``.

    Returns ``(probs, admissible)`` where ``probs`` is (n, m) and
    ``admissible`` is the boolean mask; an inadmissible row is NaN across
    the whole row.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    probs = _at_rows(spec, thetas, lambda probs, z: probs)
    return probs, ~np.isnan(probs[:, 0])


# --- implicit normalizer of the non-normalized kind -------------------------

NORMALIZER_TOL = 1e-12  # |mass - 1| at which a row stops iterating
NORMALIZER_ACCEPT_TOL = 1e-10  # |mass - 1| a returned normalizer must meet
NORMALIZER_MAX_STEPS = 100


def _normalizer_rows(spec: FamilySpec, tilt: np.ndarray):
    """Z for every row of ``tilt`` = thetas @ f (n, m), the rows in one batch.

    Symbol x's bracket is (1-a)(Z - e_x) with edge e_x = Q(x)^(a-1)/(a-1) -
    tilt(x): |a-1| times the distance of Z from e_x.  So the admissible Z
    form a half-line that ends at the nearest edge z_edge, and along it the
    total mass is strictly decreasing in Z.  For a > 1 the mass grows without
    bound away from the edge and is least at the edge itself, so a root
    exists iff the edge mass is below 1; at z_edge - 1/(a-1) one bracket is
    1 and the mass is at least 1.  For a < 1 the mass falls from +inf at the
    edge to 0; at z_edge + m^(1-a)/(1-a) every bracket is at least m^(1-a)
    and the mass at most 1.  Inside that bracket [lo, hi] a Newton step is
    taken when it stays strictly inside, until |mass - 1| <= NORMALIZER_TOL.
    Otherwise the row bisects, but above a = 2, where t^(1/(a-1)) and with
    it the mass is concave, it jumps to the lower of two points whose mass
    is at most 1: the Z where the mean bracket is m^(1-a) (Jensen), and
    z_edge - ((1 - edge mass)/m)^(a-1)/(a-1) (subadditivity, with the edge
    mass of the root test).  From a point right of the root every Newton
    step stays right of it and inside the bracket, so the row converges
    monotonically (the jump is taken only when it lies strictly inside the
    bracket; should rounding put it outside, the row bisects).  A row that
    never left the bracket takes the same steps as before.  Only the active
    rows are evaluated:
    a rootless row never enters, and a row leaves on the step it converges,
    keeping that step's mass, Newton point and admissibility.  Each row's
    arithmetic is that of its one-row call, so a batch and the one-row calls
    agree bit for bit.

    Returns ``(z, found, has_root, lo, hi)``: ``found`` marks rows whose
    normalizer keeps every bracket positive with |mass - 1| within
    NORMALIZER_ACCEPT_TOL, ``has_root`` rows whose mass crosses 1 at all.
    """
    a = spec.alpha
    qa = spec.q.probs ** (a - 1.0)
    expo = 1.0 / (a - 1.0)

    def total_mass(bracket):
        np.maximum(bracket, 0.0, out=bracket)
        return reduce_rows(np.add, bracket**expo)

    def evaluate(tilt, z):
        bracket = _bracket(spec, tilt, z[:, None])
        admissible = reduce_rows(np.logical_and, bracket > 0.0)
        return total_mass(bracket), -reduce_rows(np.add, bracket ** (expo - 1.0)), admissible

    n, m = tilt.shape
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        edges = qa / (a - 1.0) - tilt
        z_edge = reduce_rows(np.minimum if a > 1.0 else np.maximum, edges)
        if a > 1.0:
            lo, hi = z_edge - 1.0 / (a - 1.0), z_edge
            # the mass at the edge alone decides whether a root exists
            edge_mass = total_mass(_bracket(spec, tilt, hi[:, None]))
            has_root = edge_mass < 1.0
        else:
            lo, hi = z_edge, z_edge + m ** (1.0 - a) / (1.0 - a)
            has_root = np.ones(n, dtype=bool)
        interval = (lo, hi)
        z = np.where((lo < 0.0) & (0.0 < hi), 0.0, 0.5 * (lo + hi))
        # the rows still iterating, and their tilts, iterates and brackets;
        # a rootless row keeps its start and is not found
        rows = np.flatnonzero(has_root)
        if not rows.size:
            return z, has_root.copy(), has_root, *interval
        # where a step that leaves the bracket goes instead of its midpoint
        # (NaN: nowhere).  Above a = 2 it is the lower of two points with
        # mass <= 1, right of the root: where the mean bracket is m^(1-a)
        # (Jensen, t^p concave), and z_edge - ((1 - edge mass)/m)^(a-1)/(a-1)
        # (subadditivity of t^p)
        jump = np.full(n, np.nan)
        if a > 2.0:
            jensen = reduce_rows(np.add, edges) / m - m ** (1.0 - a) / (a - 1.0)
            jump = np.minimum(jensen, z_edge - ((1.0 - edge_mass) / m) ** (a - 1.0) / (a - 1.0))
        t, zr, lr, hr, jr = (tilt, z, lo, hi, jump) if rows.size == n else (x[rows] for x in (tilt, z, lo, hi, jump))
        mass = None  # each row's last state, kept once some row has stopped
        for step in range(NORMALIZER_MAX_STEPS):
            mr, slope, ar = evaluate(t, zr)
            above = mr >= 1.0
            lr, hr = np.where(above, zr, lr), np.where(above, hr, zr)
            nr = zr - (mr - 1.0) / slope
            ir = (lr < nr) & (nr < hr)
            stop = np.abs(mr - 1.0) <= NORMALIZER_TOL
            if step == NORMALIZER_MAX_STEPS - 1:
                stop[:] = True
            if stop.any():
                if mass is None:
                    if rows.size == n and stop.all():
                        z, mass, newton, inside, admissible = zr, mr, nr, ir, ar
                        break
                    mass, newton = np.zeros(n), z.copy()
                    inside, admissible = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
                # converged rows leave the active set with their last state;
                # compacting only on such steps keeps the one-row case cheap
                done = rows[stop]
                z[done], mass[done], newton[done] = zr[stop], mr[stop], nr[stop]
                inside[done], admissible[done] = ir[stop], ar[stop]
                if stop.all():
                    break
                keep = ~stop
                rows, t, zr, lr, hr, nr, ir, jr = (x[keep] for x in (rows, t, zr, lr, hr, nr, ir, jr))
            zr = np.where(ir, nr, np.where((lr < jr) & (jr < hr), jr, 0.5 * (lr + hr)))
    found = has_root & admissible & (np.abs(mass - 1.0) <= NORMALIZER_ACCEPT_TOL)
    # one last Newton step from |mass - 1| <= NORMALIZER_TOL lands within
    # rounding of the root, so Z(theta) is smooth to rounding and finite-difference
    # gradients of the likelihoods see no solver noise; callers re-check the brackets
    return np.where(found & inside, newton, z), found, has_root, *interval


def normalizer_root(spec: FamilySpec, theta) -> float:
    """Z(theta) with sum_x [Q^(a-1) + (1-a)(Z + theta.f)]^(1/(a-1)) = 1.

    The one-row case of the vectorized safeguarded Newton in Z; the total
    mass is strictly decreasing in Z on the admissible interval, so the root
    is unique when it exists.
    """
    if spec.kind is not FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW:
        raise DomainError("normalizer_root applies to the non-normalized kind only")
    theta = _check_theta(spec, theta)
    tilt = _tilt(spec, theta[None, :])
    z, found, has_root, lo, hi = _normalizer_rows(spec, tilt)
    interval = (float(lo[0]), float(hi[0]))
    if not has_root[0]:
        raise NormalizerNotFound(
            "theta.f overflows on some symbols" if np.isnan(tilt).any()
            else "total mass stays above 1 on the admissible interval",
            interval=interval,
        )
    if not found[0]:
        raise NormalizerNotFound("normalizer refinement failed", interval=interval)
    return float(z[0])


# --- escort correspondence ----------------------------------------------------


def escort_parameter_map(theta, q: Distribution, alpha: float) -> np.ndarray:
    """theta' = -alpha * theta / ||Q||^(1-alpha) with ||Q|| the alpha-norm."""
    alpha = check_alpha(alpha)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    norm = alpha_norm(q, alpha)
    return (-alpha) * theta / norm ** (1.0 - alpha)


def escort_family_spec(spec: FamilySpec) -> FamilySpec:
    """The power-law family the escort map carries an alpha-exponential one onto."""
    if spec.kind is not FamilyKind.ALPHA_EXPONENTIAL:
        raise DomainError("escort correspondence starts from the alpha-exponential kind")
    return FamilySpec(
        FamilyKind.ALPHA_POWER_LAW,
        escort(spec.q, spec.alpha),
        spec.f,
        alpha=1.0 / spec.alpha,
    )


def escort_family_map(spec: FamilySpec, theta) -> tuple[Distribution, np.ndarray]:
    """Map a member of an alpha-exponential family to its escort image.

    Returns ``(escort(P_theta, alpha), theta')``; the escort image is the
    mapped power-law family's member at ``theta'``.
    """
    p = eval_member(spec, theta)
    theta_prime = escort_parameter_map(theta, spec.q, spec.alpha)
    return escort(p, spec.alpha), theta_prime


# --- family membership -------------------------------------------------------


def membership_residual(spec: FamilySpec, p: Distribution) -> float:
    """Relative residual of the best linear fit of P to the family's form.

    Zero (to numerical rank) iff P is a member.  Returns ``inf`` when P has
    zero entries, since every member is strictly positive.
    """
    if not p.is_strictly_positive():
        return np.inf
    fit = fit_family_form(spec, p.probs)
    return fit[-1]


def fit_family_form(spec: FamilySpec, probs: np.ndarray):
    """Least-squares fit of (theta, Z-like constant) to the defining form.

    Returns ``(theta, const, residual)`` where ``residual`` is the RMS
    misfit of the linear relation divided by the RMS of its target.
    """
    return _fit_form(spec.kind, spec.alpha, spec.q.probs, spec.f, probs)


def _fit_form(kind: FamilyKind, a: float, q: np.ndarray, f: np.ndarray, probs: np.ndarray):
    # fit_family_form on raw pieces: the forward projection's shape is the
    # non-normalized form over a linear family's rows, which need not
    # identify theta (lstsq then returns the minimum-norm split)
    m = len(probs)
    ones = np.ones(m)
    if kind is FamilyKind.EXPONENTIAL:
        design = np.column_stack([ones, f.T])
        target = np.log(probs) - np.log(q)
    elif kind is FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW:
        design = np.column_stack([ones, f.T])
        target = (probs ** (a - 1.0) - q ** (a - 1.0)) / (1.0 - a)
    elif kind is FamilyKind.ALPHA_POWER_LAW:
        design = np.column_stack([probs ** (a - 1.0), -(1.0 - a) * f.T])
        target = q ** (a - 1.0)
    else:  # ALPHA_EXPONENTIAL
        design = np.column_stack([probs ** (1.0 - a), -(1.0 - a) * f.T])
        target = q ** (1.0 - a)
    coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = design @ coef - target
    scale = float(np.sqrt(np.mean(target**2))) or 1.0
    residual = float(np.sqrt(np.mean(resid**2))) / scale
    # in every kind the fit solves const*column0 + theta-part = target, with
    # const = -log Z, Z, Z^(a-1) or Z^(1-a) and the theta coefficients equal
    # to theta itself
    const, theta = float(coef[0]), np.asarray(coef[1:], dtype=float)
    return theta, const, residual


def theta_of_member(spec: FamilySpec, p: Distribution, tol: float = 1e-8) -> np.ndarray:
    """Recover theta for a distribution known to lie on the family."""
    theta, _, residual = fit_family_form(spec, p.probs)
    if residual > tol:
        raise DomainError(f"distribution is not a family member (residual {residual:.3e})")
    return theta


# --- linear families ----------------------------------------------------------

SUPPORT_TOL = 1e-12  # least mass a symbol of the support face can carry


# on row-scaled data: the least entry pivoted on and the largest phase-1
# residual that counts as feasible; and the rounding level, below which a
# negative reduced cost (relative to the costs) is 0 and two ratios tie
LP_TOL = 1e-9
LP_ROUNDING = 1e-12


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _simplex(tableau: np.ndarray, basis: np.ndarray, n: int, tol: float) -> int:
    """Pivot by Bland's rule until no column below ``n`` has a reduced cost
    under -tol: the lowest such column enters, and the lowest basic variable
    among the least ratios leaves.  Returns 0 (optimal) or 3 (unbounded)."""
    rows = len(basis)
    for _ in range(50 * (rows + n)):
        entering = np.flatnonzero(tableau[-1, :n] < -tol)
        if not entering.size:
            return 0
        col = entering[0]
        rising = np.flatnonzero(tableau[:rows, col] > LP_TOL)
        if not rising.size:
            return 3
        ratio = np.maximum(tableau[rising, -1], 0.0) / tableau[rising, col]
        tied = rising[ratio <= ratio.min() + LP_ROUNDING]
        _pivot(tableau, basis, tied[np.argmin(basis[tied])], col)
    raise NoConvergence("simplex hit its pivot cap")


def linprog(c, A, b):
    """min c.x subject to A x = b and x >= 0, by a dense two-phase tableau
    simplex with Bland's rule.

    Each row of (A, b) is scaled by the power of two at its largest
    coefficient and signed so that b >= 0, so LP_TOL is relative to the
    data.  Every row starts from an artificial variable: the linear
    family's LPs have k + 1 rows, so there is no slack basis to reuse.
    Phase 1 minimizes the sum of the artificials and calls the LP
    infeasible when it stays above LP_TOL; artificials left basic at 0 are
    pivoted out where their row has a usable entry (a redundant row keeps
    its own).  Phase 2 starts from that basis with the true costs.  The
    answer is read off the optimal basis by solving its two square systems
    afresh, not off the tableau, whose pivots on small entries amplify
    rounding.

    Returns ``(status, x, y)`` with scipy's status codes (0 optimal, 2
    infeasible, 3 unbounded); ``x`` and the equality duals ``y`` (c - A^T y
    >= 0 and b.y = c.x at the optimum) are None unless status is 0.
    """
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
    rows, n = A.shape
    # the least power of two at or above the row's largest entry: exact, so
    # the scaled data round nothing, and a row of 0s and 1s stays as it is
    mantissa, exponent = np.frexp(np.max(np.abs(A), axis=1, initial=0.0))
    d = np.where(b < 0.0, -1.0, 1.0) / np.ldexp(1.0, exponent - (mantissa == 0.5))
    scaled = np.hstack([A * d[:, None], np.eye(rows), (b * d)[:, None]])
    basis = np.arange(n, n + rows)
    tableau = np.vstack([scaled, -scaled.sum(axis=0)])
    tableau[-1, n:-1] = 0.0  # the artificials are basic: reduced cost 0
    _simplex(tableau, basis, n, LP_ROUNDING)
    if -tableau[-1, -1] > LP_TOL:
        return 2, None, None
    for row in np.flatnonzero(basis >= n):
        col = int(np.argmax(np.abs(tableau[row, :n])))
        if abs(tableau[row, col]) > LP_TOL:
            _pivot(tableau, basis, row, col)
    cost = np.concatenate([c, np.zeros(rows + 1)])
    tableau[-1] = cost - cost[basis] @ tableau[:rows]
    status = _simplex(tableau, basis, n, LP_ROUNDING * max(1.0, float(np.max(np.abs(c), initial=0.0))))
    if status != 0:
        return status, None, None
    matrix = scaled[:, basis]
    x = np.zeros(n + rows)
    x[basis] = np.maximum(np.linalg.solve(matrix, scaled[:, -1]), 0.0)
    return 0, x[:n], np.linalg.solve(matrix.T, cost[basis]) * d


def _max_min_member(A: np.ndarray, b: np.ndarray, columns: np.ndarray):
    """The LP max t s.t. f P = a, sum P = 1, P >= t on ``columns``, P = 0
    elsewhere: the member whose smallest coordinate on ``columns`` is largest.

    ``A`` is (f; 1) and ``b`` is (a, 1).  With P = t + s on ``columns``
    (s >= 0) the LP is max t over [A_cols | A_cols 1] (s, t) = b: the same
    k + 1 rows as the family, and a t column that holds the row sums of f
    over ``columns`` (and their count in the mass row).  P is written into
    zeros, so a P_j off ``columns`` is an exact 0.
    Returns ``(P, t)``, or None when no member is supported on ``columns``.
    """
    sub = A[:, columns]
    s = sub.shape[1]
    c = np.zeros(s + 1)
    c[s] = -1.0
    status, x, _ = linprog(c, np.column_stack([sub, sub.sum(axis=1)]), b)
    if status != 0:
        return None
    probs = np.zeros(A.shape[1])
    probs[columns] = x[:s] + x[s]
    return probs, float(x[s])


@dataclass(frozen=True)
class LinearFamilySpec:
    """Distributions satisfying the moment constraints f P = a.

    Construction solves the max-min-coordinate LP once: its status decides
    feasibility, and a positive margin means every symbol carries mass on
    some member.  A zero margin means the family lies on a boundary face of
    the simplex; construction then finds the face (one LP per symbol the
    max-min point leaves empty) and the max-min point of the face.  The
    centre, margin, support face and face certificate (the duals of the
    per-symbol LPs) are cached on the instance, so ``support_mask``,
    ``face_certificate``, ``interior_member`` and ``sample_member`` solve no
    LP.
    """

    f: np.ndarray  # (k, m)
    a: np.ndarray  # (k,)
    alphabet: Alphabet | None = None

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.ndim == 1:
            f = f[None, :]
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if f.shape[0] != a.shape[0]:
            raise InvalidDistribution("constraint matrix and target sizes differ")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(a))):
            raise InvalidDistribution("linear family has non-finite entries")
        alphabet = self.alphabet or Alphabet.of_size(f.shape[1])
        if alphabet.size != f.shape[1]:
            raise InvalidDistribution("constraint matrix does not match alphabet")
        f = f.copy()
        f.setflags(write=False)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alphabet", alphabet)
        # the family's k + 1 rows (f; 1) P = (a, 1), which every LP reads
        A = np.vstack([f, np.ones((1, self.m))])
        b = np.append(a, 1.0)
        support = np.ones(self.m, dtype=bool)
        solved = _max_min_member(A, b, support)
        if solved is None:
            raise InfeasibleError("linear family is empty on the simplex")
        center, margin = solved
        certificate = np.zeros(self.k + 1)
        if margin <= SUPPORT_TOL:
            # boundary face: a symbol the max-min point leaves empty is on
            # the face iff some member puts mass on it
            for i in np.flatnonzero(center <= SUPPORT_TOL):
                c = np.zeros(self.m)
                c[i] = -1.0  # maximize P(x_i)
                status, x, y = linprog(c, A, b)
                support[i] = bool(status == 0 and x[i] > SUPPORT_TOL)
                if status == 0 and not support[i]:
                    # the LP dual y has y.(a, 1) = 0 and (f; 1)^T y <= -e_i
                    certificate -= y
        if not support.all():
            solved = _max_min_member(A, b, support)
            if solved is None:
                raise InfeasibleError("linear family has no member on its support face")
            center, margin = solved
        for arr in (center, support, certificate):
            arr.setflags(write=False)
        object.__setattr__(self, "_center", center)
        object.__setattr__(self, "_margin", margin)  # on the support face
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_certificate", certificate)

    @property
    def k(self) -> int:
        return int(self.f.shape[0])

    @property
    def m(self) -> int:
        return int(self.f.shape[1])

    def support_mask(self) -> np.ndarray:
        """Symbols that carry positive mass for at least one member."""
        return self._support.copy()

    def face_certificate(self) -> np.ndarray:
        """A (k+1)-vector c whose weights w = c.(f; 1) are 0 on the support
        face and at least 1 off it (zero on full support): every member has
        w.P = c.(a, 1) = 0, which is why the face excludes those symbols."""
        return self._certificate.copy()

    def contains(self, p: Distribution, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.f @ p.probs - self.a)) <= tol)

    def affine_project(self, vector: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
        """Euclidean projection of a vector onto {f x = a, sum x = 1}; with
        ``support``, of a vector over those symbols onto the family's
        constraints restricted to them (the other entries held at 0)."""
        f = self.f if support is None else np.ascontiguousarray(self.f[:, support])
        B = np.vstack([f, np.ones((1, f.shape[1]))])
        b = np.concatenate([self.a, [1.0]])
        resid = B @ vector - b
        correction = B.T @ np.linalg.lstsq(B @ B.T, resid, rcond=None)[0]
        return vector - correction

    def interior_member(self) -> tuple[np.ndarray, float]:
        """The max-min-coordinate member and its margin (0 on boundary faces,
        where the member is the max-min point of the support face)."""
        return self._center.copy(), self._margin if self._support.all() else 0.0

    def sample_member(self, rng: np.random.Generator) -> Distribution:
        """A random member, positive on the whole support face and exactly 0
        off it; random directions on the face are blended toward its max-min
        point."""
        face = self._support
        center = self._center[face]
        floor = min(1e-9, 0.05 * self._margin)
        for _ in range(50):
            raw = rng.dirichlet(np.ones(center.size))
            proj = self.affine_project(raw, face)
            lam = 1.0
            for _ in range(40):
                point = lam * proj + (1.0 - lam) * center
                if np.all(point > floor):
                    probs = np.zeros(self.m)
                    probs[face] = point
                    return Distribution(self.alphabet, probs, strict=bool(face.all()))
                lam *= 0.7
        raise InfeasibleError("could not sample an interior member")
