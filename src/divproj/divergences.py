"""The four divergences on finite alphabets and their alpha -> 1 limits.

All four vanish exactly at P = Q and are nonnegative.  ``alpha = 1`` is
handled by explicit dispatch to the KL divergence rather than by evaluating
the alpha != 1 formulas near 1 (catastrophic cancellation in the
1/(alpha-1) log terms).

Each divergence is written once, as a numpy kernel over the last axis whose
two arguments broadcast: a (m,) vector against a (n, m) matrix evaluates
D(P_i, q) or D(p, Q_i) row by row, which is what the grid oracles need, and
the scalar functions are validating wrappers that call the kernel with one
row.  The row sums run one column at a time (``measures.reduce_rows``),
several times faster than numpy's reduction over a short last axis on an
oracle grid and equal to it bit for bit, so a grid row and its scalar call
agree exactly.  Log-sum terms are max-shifted so that alpha >= 3 on skewed
distributions can neither underflow nor overflow; at an alpha so large
that alpha * log P itself overflows (near 1e308), the log forms would
answer garbage, so the scalar calls and the oracles refuse it with a
``DomainError`` (``check_log_terms``); the bare row kernels saturate such
a term to +-inf without a warning.

Boundary (non-strict) distributions are accepted only where the mathematics
stays meaningful: KL uses the standard 0*log(0) = 0 convention, the density
power divergence accepts boundary arguments everywhere and returns ``inf``
for alpha < 1 when P is not absolutely continuous w.r.t. Q, and the Renyi /
relative alpha-entropy formulas accept zeros only for alpha in (0, 1).  The
row form skips these checks: the oracle feeds it boundary grid rows against
a strictly positive second argument.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DomainError
from .measures import Distribution, check_alpha, reduce_rows, same_alphabet


class DivergenceKind(enum.Enum):
    KL = "kl"
    RENYI = "renyi"
    DENSITY_POWER = "dpd"
    REL_ALPHA_ENTROPY = "rae"


# --- kernels: last axis is the alphabet, leading axes broadcast ---------------


def _log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, max-shifted.

    A NaN term is a 0^a * 0^-b product, which counts as 0 (dropped); an
    all-dropped row gives -inf and a +inf term gives +inf.
    """
    terms = np.where(np.isnan(terms), -np.inf, terms)
    top = reduce_rows(np.maximum, terms)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return np.log(reduce_rows(np.add, np.exp(terms - shift[..., None]))) + shift


def _kl_kernel(p, q):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(p > 0.0, p * (np.log(p) - np.log(q)), 0.0)
    return reduce_rows(np.add, t)


def _renyi_kernel(p, q, alpha):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = alpha * np.log(p) + (1.0 - alpha) * np.log(q)
    return _log_sum_exp(terms) / (alpha - 1.0)


def _density_power_kernel(p, q, alpha):
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(p > 0.0, p * q ** (alpha - 1.0), 0.0)
    s_cross = reduce_rows(np.add, cross)
    s_p = reduce_rows(np.add, p**alpha)
    s_q = reduce_rows(np.add, q**alpha)
    return alpha / (1.0 - alpha) * s_cross - s_p / (1.0 - alpha) + s_q


def _rel_alpha_entropy_kernel(p, q, alpha):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lp, lq = np.log(p), np.log(q)
        log_cross = _log_sum_exp(lp + (alpha - 1.0) * lq)
        log_p, log_q = _log_sum_exp(alpha * lp), _log_sum_exp(alpha * lq)
    return alpha / (1.0 - alpha) * log_cross - log_p / (1.0 - alpha) + log_q


_KERNELS = {
    DivergenceKind.RENYI: _renyi_kernel,
    DivergenceKind.DENSITY_POWER: _density_power_kernel,
    DivergenceKind.REL_ALPHA_ENTROPY: _rel_alpha_entropy_kernel,
}


def divergence_rows(kind: DivergenceKind, p, q, alpha: float) -> np.ndarray:
    """divergence(kind, P, Q, alpha) over the rows of two broadcasting arrays.

    Either argument may be a (m,) vector or a (n, m) matrix of rows; the
    result has one value per row.  No domain checks: boundary rows follow
    the conventions of the module docstring.
    """
    kind = DivergenceKind(kind)
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if alpha == 1.0 or kind is DivergenceKind.KL:
        return _kl_kernel(p, q)
    return _KERNELS[kind](p, q, alpha)


# the oracle's reverse form D(p, Q_i) is the same kernel with the rows second
divergence_fixed_p = divergence_rows

# |log x| <= 745 for every positive float, so alpha * log x overflows only
# beyond this alpha
_LOG_SAFE_ALPHA = np.finfo(float).max / 746.0


def check_log_terms(kind: DivergenceKind, alpha: float, *arrays) -> None:
    """``DomainError`` where alpha * log of a positive entry overflows.

    The log forms (Renyi, relative alpha-entropy) would saturate such a term
    to +-inf and answer garbage.  Entries are probabilities, so the smallest
    positive one has the largest |log|; below _LOG_SAFE_ALPHA nothing is read.
    """
    if alpha <= _LOG_SAFE_ALPHA or DivergenceKind(kind) not in (
        DivergenceKind.RENYI, DivergenceKind.REL_ALPHA_ENTROPY
    ):
        return
    for x in arrays:
        smallest = np.min(x, initial=1.0, where=x > 0.0)
        with np.errstate(over="ignore"):
            if not np.isfinite(alpha * np.log(smallest)):
                raise DomainError(f"alpha * log of a probability overflows at alpha = {alpha}")


# --- scalar entry points: validate, then evaluate one row --------------------


def kl(p: Distribution, q: Distribution) -> float:
    """Kullback-Leibler divergence sum_x p(x) log(p(x)/q(x))."""
    same_alphabet(p, q)
    if np.any(q.probs[p.probs > 0.0] == 0.0):
        raise DomainError("KL undefined: Q vanishes where P does not")
    return float(_kl_kernel(p.probs, q.probs))


def _scalar(kind: DivergenceKind, p: Distribution, q: Distribution, alpha: float) -> float:
    """Validate, then evaluate the kind's kernel on one row; alpha = 1 is KL."""
    alpha = check_alpha(alpha, allow_one=True)
    if alpha == 1.0 or kind is DivergenceKind.KL:
        return kl(p, q)
    same_alphabet(p, q)
    # the log formulas tolerate zeros only in the alpha < 1 regime
    if (
        alpha > 1.0
        and kind is not DivergenceKind.DENSITY_POWER
        and not (p.is_strictly_positive() and q.is_strictly_positive())
    ):
        raise DomainError("zero entries require alpha in (0, 1) for this divergence")
    check_log_terms(kind, alpha, p.probs, q.probs)
    return float(_KERNELS[kind](p.probs, q.probs, alpha))


def renyi_d(p: Distribution, q: Distribution, alpha: float) -> float:
    """Renyi (power) divergence of order alpha."""
    return _scalar(DivergenceKind.RENYI, p, q, alpha)


def density_power(p: Distribution, q: Distribution, alpha: float) -> float:
    """Density power divergence of order alpha.

    Accepts boundary distributions; returns ``inf`` when alpha < 1 and P
    puts mass where Q does not (the usual convention).
    """
    return _scalar(DivergenceKind.DENSITY_POWER, p, q, alpha)


def rel_alpha_entropy(p: Distribution, q: Distribution, alpha: float) -> float:
    """Relative alpha-entropy (logarithmic density power divergence)."""
    return _scalar(DivergenceKind.REL_ALPHA_ENTROPY, p, q, alpha)


def divergence(kind: DivergenceKind, p: Distribution, q: Distribution, alpha: float = 1.0) -> float:
    """Unified dispatch; alpha = 1 routes every kind to KL."""
    return _scalar(DivergenceKind(kind), p, q, alpha)
