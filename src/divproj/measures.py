"""Finite-alphabet probability measures, empirical measures and escorts.

Everything downstream indexes vectors by a fixed :class:`Alphabet`; all types
here are immutable after construction and all operations are pure functions.
The standing assumption of the library is strict positivity; the few code
paths that accept boundary distributions (forward projections) say so
explicitly and pass ``strict=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZeroError,
    DomainError,
    EmptySampleError,
    InvalidDistribution,
    NegativeWeightError,
    UnknownLabelError,
)

# Simplex sums are validated to SUM_TOL at construction; anything within
# REPAIR_TOL is renormalized once, anything worse is rejected.
SUM_TOL = 1e-12
REPAIR_TOL = 1e-9
NEG_CLAMP = -1e-14


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free symbol set; the canonical vector index."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        symbols = tuple(str(s) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) < 2:
            raise InvalidDistribution("alphabet needs at least 2 symbols")
        if len(set(symbols)) != len(symbols):
            raise InvalidDistribution("alphabet symbols must be unique")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})

    def __len__(self):
        return len(self.symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol) -> int:
        try:
            return self._index[str(symbol)]
        except KeyError:
            raise UnknownLabelError(f"label {symbol!r} not in alphabet") from None

    def indices(self, symbols) -> np.ndarray:
        """The index of each of a sequence of str symbols, as one int64 array."""
        try:
            return np.fromiter(map(self._index.__getitem__, symbols), dtype=np.int64, count=len(symbols))
        except KeyError as err:
            raise UnknownLabelError(f"label {err.args[0]!r} not in alphabet") from None

    @classmethod
    def of_size(cls, m: int) -> "Alphabet":
        """Synthetic alphabet x0..x{m-1} for callers that only have vectors."""
        return cls(tuple(f"x{i}" for i in range(m)))


def _as_prob_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != 1:
        raise InvalidDistribution("probability vector must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistribution("probability vector has non-finite entries")
    return arr


@dataclass(frozen=True)
class Distribution:
    """Probability vector over an alphabet.

    ``strict`` records whether every entry is (and is required to be)
    strictly positive.  Entries are always nonnegative and sum to one to
    within ``SUM_TOL`` after at most one renormalization.
    """

    alphabet: Alphabet
    probs: np.ndarray
    strict: bool = field(default=True)

    def __post_init__(self):
        arr = _as_prob_array(self.probs)
        if len(arr) != self.alphabet.size:
            raise InvalidDistribution(
                f"vector length {len(arr)} != alphabet size {self.alphabet.size}"
            )
        if np.any(arr < 0):
            raise InvalidDistribution("negative probability entry")
        total = float(arr.sum())
        if abs(total - 1.0) > REPAIR_TOL:
            raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
        if abs(total - 1.0) > SUM_TOL:
            arr = arr / total
        if self.strict and np.any(arr == 0.0):
            raise InvalidDistribution("zero entry in a strictly positive distribution")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def m(self) -> int:
        return self.alphabet.size

    def __getitem__(self, symbol) -> float:
        return float(self.probs[self.alphabet.index(symbol)])

    def is_strictly_positive(self) -> bool:
        return bool(np.all(self.probs > 0.0))


def same_alphabet(p: Distribution, q: Distribution) -> None:
    if p.alphabet.symbols != q.alphabet.symbols:
        raise DomainError("distributions are over different alphabets")


def normalize(weights, alphabet: Alphabet | None = None) -> Distribution:
    """Normalize a nonnegative weight vector to a Distribution.

    Entries in [NEG_CLAMP, 0) are clamped to zero (float drift); anything
    more negative raises.  Idempotent on already-normalized input.
    """
    arr = np.asarray(weights, dtype=float).copy()
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise InvalidDistribution("weights must be a finite 1-d vector")
    if np.any(arr < NEG_CLAMP):
        bad = float(arr.min())
        raise NegativeWeightError(f"weight {bad!r} below clamping tolerance")
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if total <= 0.0:
        raise AllZeroError("weights sum to zero")
    if alphabet is None:
        alphabet = Alphabet.of_size(len(arr))
    # dividing an already-normalized vector by its 1 +/- ulp sum would
    # perturb bits and break idempotence
    probs = arr if abs(total - 1.0) <= SUM_TOL else arr / total
    return Distribution(alphabet, probs, strict=bool(np.all(probs > 0.0)))


ROW_LOOP_MIN = 128  # rows from which reduce_rows reduces one column at a time


def reduce_rows(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)``: one value per row of a 2-D array, or
    the value of a 1-D one.

    Over many rows of a few symbols, numpy's reduction along the short
    contiguous axis is several times slower than one ufunc call per column.
    Below 8 columns numpy also accumulates left to right, so both ways agree
    bit for bit, and a row's value does not depend on how many rows come
    with it.  Timed on (n, 3..5) arrays, the column loop costs 3-5 times
    the single reduction at one row, breaks even at about 128 rows and
    costs a sixth of it at 4096, hence ROW_LOOP_MIN.
    """
    if x.ndim != 2 or x.shape[0] < ROW_LOOP_MIN or x.shape[1] >= 8:
        return ufunc.reduce(x, axis=-1)
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        ufunc(out, x[:, j], out=out)
    return out


def row_dots(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_x f[j, x] w[i, x] (n, k) for rows ``w`` (n, m) and ``f`` (k, m) or
    (n, k, m), summed by ``reduce_rows``: unlike a BLAS product over the
    rows, no row's value depends on the rows evaluated with it."""
    return reduce_rows(np.add, (f * w[:, None, :]).reshape(-1, w.shape[-1])).reshape(len(w), f.shape[-2])


def check_alpha(alpha: float, allow_one: bool = False) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"alpha must be a positive real, got {alpha!r}")
    if alpha == 1.0 and not allow_one:
        raise DomainError("alpha = 1 is only valid on an operation's KL-limit route")
    return alpha


def reference_power(q: np.ndarray, alpha: float) -> np.ndarray:
    """Q^(alpha-1), refused with a ``DomainError`` where an entry under- or
    overflows (0, subnormal or inf): a bracket or weight built on it would."""
    with np.errstate(over="ignore"):
        qa = q ** (alpha - 1.0)
    if not np.all((qa >= np.finfo(float).tiny) & np.isfinite(qa)):
        raise DomainError(f"Q^(alpha-1) underflows or overflows at alpha = {alpha}")
    return qa


def escort(p: Distribution, alpha: float) -> Distribution:
    """The scaled measure p^alpha / sum(p^alpha) (escort transform)."""
    alpha = check_alpha(alpha, allow_one=True)
    if alpha == 1.0:
        return p
    if alpha < 1.0 and not p.is_strictly_positive():
        raise DomainError("escort with alpha < 1 requires a strictly positive input")
    powered = p.probs**alpha
    return Distribution(p.alphabet, powered / powered.sum(), strict=p.strict)


def alpha_norm(p: Distribution, alpha: float) -> float:
    """(sum_x p(x)^alpha)^(1/alpha)."""
    alpha = check_alpha(alpha, allow_one=True)
    return float(np.sum(p.probs**alpha) ** (1.0 / alpha))


@dataclass(frozen=True)
class SampleData:
    """An i.i.d. sample over an alphabet plus its derived empirical measure."""

    alphabet: Alphabet
    observations: tuple[str, ...]
    counts: np.ndarray
    empirical: Distribution

    @property
    def n(self) -> int:
        return len(self.observations)

    @classmethod
    def from_counts(cls, counts, alphabet: Alphabet) -> "SampleData":
        """Build the canonical sample with the given per-symbol tallies."""
        counts = np.asarray(counts)
        if counts.ndim != 1 or len(counts) != alphabet.size:
            raise EmptySampleError("counts must align with the alphabet")
        if np.any(counts < 0) or not np.all(counts == np.round(counts)):
            raise EmptySampleError("counts must be nonnegative integers")
        obs = []
        for sym, c in zip(alphabet.symbols, counts.astype(int)):
            obs.extend([sym] * int(c))
        return empirical(obs, alphabet)


def empirical_weights(sample_or_dist) -> np.ndarray:
    """Empirical probability vector of a SampleData, or a Distribution's own.

    The estimating/projection equations only read the empirical measure, and
    some transformed problems (escorted empirical measures) are not
    realizable by any finite sample; accepting a bare Distribution keeps
    those problems expressible.
    """
    if isinstance(sample_or_dist, SampleData):
        return sample_or_dist.empirical.probs
    if isinstance(sample_or_dist, Distribution):
        return sample_or_dist.probs
    raise DomainError(f"expected SampleData or Distribution, got {type(sample_or_dist)!r}")


TALLY_CHUNK = 2**16  # observations tallied at once


def empirical(observations, alphabet: Alphabet) -> SampleData:
    """Tally observations into counts and the empirical measure."""
    obs = tuple(map(str, observations))
    if len(obs) == 0:
        raise EmptySampleError("need at least one observation")
    # a chunk at a time: an index array as long as the sample would double
    # the memory the labels take
    counts = np.zeros(alphabet.size, dtype=np.int64)
    for start in range(0, len(obs), TALLY_CHUNK):
        counts += np.bincount(alphabet.indices(obs[start : start + TALLY_CHUNK]), minlength=alphabet.size)
    probs = counts / counts.sum()
    dist = Distribution(alphabet, probs, strict=False)
    counts.setflags(write=False)
    return SampleData(alphabet, obs, counts, dist)
