import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divproj.divergences import kl
from divproj.errors import (
    AllZeroError,
    DomainError,
    EmptySampleError,
    InputError,
    InvalidDistribution,
    NegativeWeightError,
    UnknownLabelError,
)
from divproj.estimators import EstimatorKind, estimating_residual
from divproj.families import FamilyKind, FamilySpec
from divproj.measures import (
    ROW_LOOP_MIN,
    Alphabet,
    Distribution,
    TALLY_CHUNK,
    SampleData,
    alpha_norm,
    empirical,
    escort,
    normalize,
    reduce_rows,
)

AB = Alphabet(("a", "b"))


class TestNormalize:
    def test_symmetric(self):
        assert np.allclose(normalize([2.0, 2.0]).probs, [0.5, 0.5])

    def test_forced(self):
        assert np.allclose(normalize([1.0, 3.0]).probs, [0.25, 0.75])

    def test_all_zero(self):
        with pytest.raises(AllZeroError):
            normalize([0.0, 0.0])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeightError):
            normalize([1.0, -1e-10])

    def test_tiny_negative_clamped(self):
        d = normalize([1.0, -5e-15])
        assert d.probs[1] == 0.0
        assert not d.strict

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=6))
    def test_idempotent(self, weights):
        if sum(weights) <= 0.0:
            return
        once = normalize(weights)
        twice = normalize(once.probs)
        assert np.array_equal(once.probs, twice.probs)


class TestDistribution:
    def test_repair_within_tolerance(self):
        d = Distribution(AB, np.array([0.5, 0.5 + 3e-10]))
        assert abs(d.probs.sum() - 1.0) <= 1e-15

    def test_reject_beyond_repair(self):
        with pytest.raises(InvalidDistribution):
            Distribution(AB, np.array([0.5, 0.6]))

    def test_strict_rejects_zero(self):
        with pytest.raises(InvalidDistribution):
            Distribution(AB, np.array([0.0, 1.0]), strict=True)

    def test_boundary_allowed_when_not_strict(self):
        d = Distribution(AB, np.array([0.0, 1.0]), strict=False)
        assert not d.is_strictly_positive()

    def test_indexed_by_symbol(self):
        d = Distribution(AB, np.array([0.25, 0.75]))
        assert d[AB.symbols[1]] == 0.75

    def test_immutable(self):
        d = Distribution(AB, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.probs[0] = 0.3


class TestEscort:
    def test_uniform_fixed_point(self):
        p = Distribution(AB, [0.5, 0.5])
        assert np.allclose(escort(p, 2.0).probs, [0.5, 0.5])

    def test_identity_at_one(self):
        p = Distribution(AB, [0.25, 0.75])
        assert escort(p, 1.0) is p

    def test_direct_evaluation(self):
        # 0.25^2 / (0.25^2 + 0.75^2) = 0.0625 / 0.625 = 0.1
        p = Distribution(AB, [0.25, 0.75])
        assert np.allclose(escort(p, 2.0).probs, [0.1, 0.9], atol=1e-15)

    def test_zero_entry_small_alpha_raises(self):
        p = Distribution(AB, [0.0, 1.0], strict=False)
        with pytest.raises(DomainError):
            escort(p, 0.5)

    def test_zero_entry_large_alpha_ok(self):
        p = Distribution(AB, [0.0, 1.0], strict=False)
        assert np.allclose(escort(p, 2.0).probs, [0.0, 1.0])

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_round_trip(self, alpha, rng):
        for _ in range(25):
            raw = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
            p = Distribution(Alphabet.of_size(4), raw / raw.sum())
            back = escort(escort(p, alpha), 1.0 / alpha)
            assert np.max(np.abs(back.probs - p.probs)) <= 1e-10


class TestAlphaNorm:
    def test_point_mass(self):
        p = Distribution(AB, [1.0, 0.0], strict=False)
        assert alpha_norm(p, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_uniform(self):
        p = Distribution(AB, [0.5, 0.5])
        assert alpha_norm(p, 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_skewed(self):
        p = Distribution(AB, [0.25, 0.75])
        assert alpha_norm(p, 2.0) == pytest.approx(np.sqrt(0.625), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6))
    def test_norm_at_one_is_one(self, weights):
        p = normalize(weights)
        assert alpha_norm(p, 1.0) == pytest.approx(1.0, abs=1e-12)


class TestEmpirical:
    def test_balanced(self):
        s = empirical(["a", "b", "b", "a"], AB)
        assert np.allclose(s.empirical.probs, [0.5, 0.5])
        assert s.counts.sum() == s.n == 4

    def test_skewed(self):
        s = empirical(["a", "a", "a", "b"], AB)
        assert np.allclose(s.empirical.probs, [0.75, 0.25])

    def test_unknown_label_named(self):
        with pytest.raises(UnknownLabelError, match="'c'"):
            empirical(["a", "c"], AB)

    def test_empty(self):
        with pytest.raises(EmptySampleError):
            empirical([], AB)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(labels=st.lists(st.sampled_from(["x0", "x1", "x2", "x3", 2, 3.0]), min_size=1, max_size=60))
    def test_counts_are_the_tally_of_the_labels(self, labels):
        alphabet = Alphabet(("x0", "x1", "x2", "x3", "2", "3.0"))
        s = empirical(labels, alphabet)
        tally = [sum(str(o) == sym for o in labels) for sym in alphabet.symbols]
        assert s.counts.dtype == np.int64 and s.counts.tolist() == tally
        assert s.observations == tuple(str(o) for o in labels)
        assert np.array_equal(s.empirical.probs, np.array(tally) / len(labels))

    def test_unknown_label_among_many_is_named(self):
        with pytest.raises(UnknownLabelError, match="'zz'"):
            empirical(["a", "b"] * 1000 + ["zz", "a"], AB)

    def test_counts_past_one_chunk(self):
        s = empirical(["a"] * (TALLY_CHUNK + 3) + ["b"] * 5 + ["a"], AB)
        assert s.counts.tolist() == [TALLY_CHUNK + 4, 5] and s.n == TALLY_CHUNK + 9
        with pytest.raises(UnknownLabelError, match="'zz'"):
            empirical(["a", "b"] * TALLY_CHUNK + ["zz", "a"], AB)

    def test_from_counts_round_trip(self):
        s = SampleData.from_counts([3, 5], AB)
        assert s.n == 8
        assert np.array_equal(s.counts, [3, 5])
        assert np.allclose(s.empirical.probs, [0.375, 0.625])


class TestAlphabet:
    def test_unique(self):
        with pytest.raises(InvalidDistribution):
            Alphabet(("a", "a"))

    def test_order_is_index(self):
        ab = Alphabet(("z", "y", "x"))
        assert ab.index("y") == 1


class TestReduceRows:
    """The column loop the row kernels reduce with is numpy's own reduction,
    bit for bit, on rows of any count and on a single 1-D row."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 8, 9])
    def test_column_reductions_match_numpy_bit_for_bit(self, m):
        x = np.random.default_rng(m).normal(size=(ROW_LOOP_MIN + 37, m))
        x[3, 1] = np.nan
        for ufunc in (np.add, np.minimum, np.maximum):
            rows = reduce_rows(ufunc, x)
            assert np.array_equal(rows, ufunc.reduce(x, axis=1), equal_nan=True)
            for i in (0, 3, len(x) - 1):
                assert np.array_equal(rows[i], reduce_rows(ufunc, x[i]), equal_nan=True)
        assert np.array_equal(reduce_rows(np.logical_and, x > 0.0), (x > 0.0).all(axis=1))


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: Alphabet(("a",)), InvalidDistribution, id="one_symbol_alphabet"),
        pytest.param(lambda: AB.index("z"), UnknownLabelError, id="unknown_label"),
        pytest.param(lambda: Distribution(AB, [[0.5, 0.5]]), InvalidDistribution, id="two_dim_probs"),
        pytest.param(lambda: Distribution(AB, [np.nan, 1.0]), InvalidDistribution, id="nan_prob"),
        pytest.param(lambda: Distribution(AB, [0.2, 0.3, 0.5]), InvalidDistribution, id="probs_longer_than_alphabet"),
        pytest.param(lambda: Distribution(AB, [-0.5, 1.5]), InvalidDistribution, id="negative_prob"),
        pytest.param(
            lambda: kl(Distribution(AB, [0.5, 0.5]), Distribution(Alphabet(("x", "y")), [0.5, 0.5])),
            DomainError,
            id="alphabets_differ",
        ),
        pytest.param(lambda: normalize([[1.0, 2.0]]), InvalidDistribution, id="two_dim_weights"),
        pytest.param(
            lambda: FamilySpec(FamilyKind.ALPHA_POWER_LAW, Distribution(AB, [0.5, 0.5]), [[0.0, 1.0]], alpha=1.0),
            DomainError,
            id="power_law_at_alpha_one",
        ),
        pytest.param(lambda: SampleData.from_counts([1, 2, 3], AB), EmptySampleError, id="counts_longer_than_alphabet"),
        pytest.param(lambda: SampleData.from_counts([1.5, 2.0], AB), EmptySampleError, id="fractional_counts"),
        pytest.param(
            lambda: estimating_residual(
                EstimatorKind.MLE,
                FamilySpec(FamilyKind.EXPONENTIAL, Distribution(AB, [0.5, 0.5]), [[0.0, 1.0]]),
                [0.0],
                [3, 7],
            ),
            DomainError,
            id="sample_of_counts",
        ),
    ],
)
def test_bad_arguments_raise_input_errors(call, error):
    assert issubclass(error, InputError)
    with pytest.raises(error):
        call()
