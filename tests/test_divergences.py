import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divproj.divergences import (
    DivergenceKind,
    density_power,
    divergence,
    divergence_fixed_p,
    divergence_rows,
    kl,
    rel_alpha_entropy,
    renyi_d,
)
from divproj.errors import DomainError
from divproj.measures import ROW_LOOP_MIN, Alphabet, Distribution, normalize

from conftest import random_distribution, rng_of

AB = Alphabet(("a", "b"))
P_HALF = Distribution(AB, [0.5, 0.5])
Q_SKEW = Distribution(AB, [0.25, 0.75])

ALL_KINDS = list(DivergenceKind)
ALPHAS = [0.3, 0.5, 0.8, 1.2, 2.0, 3.0]

# frozen by direct evaluation of the defining formulas
KL_PQ = 0.14384103622589042
KL_QP = 0.13081203594113697
RENYI_2 = 0.28768207245178085  # log(4/3)
RENYI_HALF = 0.06933646419507408  # -2 log(sqrt(1/8) + sqrt(3/8))
RAE_2 = 0.2231435513142097  # log(5/4)


class TestKL:
    def test_identity(self):
        p = Distribution(AB, [0.3, 0.7])
        assert kl(p, p) == 0.0

    def test_forward(self):
        assert kl(P_HALF, Q_SKEW) == pytest.approx(KL_PQ, abs=1e-15)

    def test_reverse_demonstrates_asymmetry(self):
        assert kl(Q_SKEW, P_HALF) == pytest.approx(KL_QP, abs=1e-15)

    def test_zero_in_q_raises(self):
        q = Distribution(AB, [0.0, 1.0], strict=False)
        with pytest.raises(DomainError):
            kl(P_HALF, q)

    def test_zero_in_p_uses_convention(self):
        # 0 log 0 = 0
        p = Distribution(AB, [0.0, 1.0], strict=False)
        assert kl(p, Q_SKEW) == pytest.approx(np.log(1 / 0.75), abs=1e-15)


class TestRenyi:
    def test_identity(self):
        assert renyi_d(Q_SKEW, Q_SKEW, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_alpha_two(self):
        assert renyi_d(P_HALF, Q_SKEW, 2.0) == pytest.approx(RENYI_2, abs=1e-14)

    def test_alpha_half(self):
        assert renyi_d(P_HALF, Q_SKEW, 0.5) == pytest.approx(RENYI_HALF, abs=1e-14)

    def test_alpha_one_dispatches_to_kl(self):
        assert renyi_d(P_HALF, Q_SKEW, 1.0) == kl(P_HALF, Q_SKEW)

    def test_zeros_rejected_above_one(self):
        p = Distribution(AB, [0.0, 1.0], strict=False)
        with pytest.raises(DomainError):
            renyi_d(p, Q_SKEW, 2.0)

    def test_zeros_fine_below_one(self):
        p = Distribution(AB, [0.0, 1.0], strict=False)
        value = renyi_d(p, Q_SKEW, 0.5)
        assert np.isfinite(value) and value > 0.0

    def test_extreme_skew_no_underflow(self):
        # max-shifted log-sum keeps alpha = 3 on tiny probabilities finite
        p = normalize([1e-280, 1.0])
        q = normalize([1.0, 1e-280])
        assert np.isfinite(renyi_d(p, q, 3.0))


class TestDensityPower:
    def test_identity(self):
        assert density_power(Q_SKEW, Q_SKEW, 2.0) == 0.0

    def test_alpha_two_is_squared_euclidean(self):
        assert density_power(P_HALF, Q_SKEW, 2.0) == pytest.approx(0.125, abs=1e-15)

    def test_big_swap(self):
        p = Distribution(AB, [0.9, 0.1])
        q = Distribution(AB, [0.1, 0.9])
        assert density_power(p, q, 2.0) == pytest.approx(1.28, abs=1e-14)

    def test_squared_euclidean_property(self):
        rng = rng_of(5)
        for _ in range(50):
            p = random_distribution(rng, 4)
            q = random_distribution(rng, 4)
            expected = float(np.sum((p.probs - q.probs) ** 2))
            assert density_power(p, q, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_infinite_when_not_absolutely_continuous(self):
        q = Distribution(AB, [0.0, 1.0], strict=False)
        assert density_power(P_HALF, q, 0.5) == np.inf

    def test_boundary_finite_above_one(self):
        q = Distribution(AB, [0.0, 1.0], strict=False)
        assert np.isfinite(density_power(P_HALF, q, 2.0))


class TestRelAlphaEntropy:
    def test_identity(self):
        assert rel_alpha_entropy(Q_SKEW, Q_SKEW, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_alpha_two(self):
        assert rel_alpha_entropy(P_HALF, Q_SKEW, 2.0) == pytest.approx(RAE_2, abs=1e-14)

    def test_incidental_symmetry_of_this_pair(self):
        # not a general property; this pair happens to be symmetric at alpha 2
        assert rel_alpha_entropy(Q_SKEW, P_HALF, 2.0) == pytest.approx(RAE_2, abs=1e-14)


class TestDispatch:
    def test_alpha_one_routes_to_kl(self):
        for kind in ALL_KINDS:
            assert divergence(kind, P_HALF, Q_SKEW, 1.0) == kl(P_HALF, Q_SKEW)

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k is not DivergenceKind.KL])
    def test_near_one_limit(self, kind):
        base = kl(P_HALF, Q_SKEW)
        for alpha in (0.9999, 1.0001):
            assert divergence(kind, P_HALF, Q_SKEW, alpha) == pytest.approx(base, abs=1e-3)

    def test_limit_gap_is_linear_in_h(self):
        rng = rng_of(11)
        for _ in range(10):
            p = random_distribution(rng, 3)
            q = random_distribution(rng, 3)
            base = kl(p, q)
            for kind in ALL_KINDS:
                if kind is DivergenceKind.KL:
                    continue
                gaps = [
                    abs(divergence(kind, p, q, 1.0 + h) - base) for h in (1e-2, 1e-3, 1e-4)
                ]
                assert gaps[0] <= 0.2
                # ratio shrinks roughly linearly in h
                if gaps[1] > 1e-12:
                    assert gaps[1] <= gaps[0] / 5.0
                if gaps[2] > 1e-13:
                    assert gaps[2] <= gaps[1] / 5.0


class TestAxioms:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_nonnegative_and_identity(self, alpha):
        rng = rng_of(int(alpha * 1000))
        for m in (2, 3, 5):
            for _ in range(15):
                p = random_distribution(rng, m)
                q = random_distribution(rng, m)
                for kind in ALL_KINDS:
                    assert divergence(kind, p, q, alpha) >= -1e-12
                    assert divergence(kind, p, p, alpha) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
        st.sampled_from(ALPHAS),
        st.sampled_from(ALL_KINDS),
    )
    def test_nonnegativity_hypothesis(self, wp, wq, alpha, kind):
        p = normalize(wp)
        q = normalize(wq)
        assert divergence(kind, p, q, alpha) >= -1e-12


class TestRowForms:
    """The oracle's row forms are the scalar divergences, row by row."""

    def check(self, kind, fixed, rows, alpha):
        forward = divergence_rows(kind, np.stack([r.probs for r in rows]), fixed.probs, alpha)
        reverse = divergence_fixed_p(kind, fixed.probs, np.stack([r.probs for r in rows]), alpha)
        for i, r in enumerate(rows):
            for got, want in ((forward[i], divergence(kind, r, fixed, alpha)),
                              (reverse[i], divergence(kind, fixed, r, alpha))):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS + [1.0, 5.0])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rows_match_scalar_in_both_orders(self, kind, alpha):
        rng = rng_of(int(alpha * 100) + len(kind.value))
        for m in (2, 3, 5):
            fixed = random_distribution(rng, m)
            self.check(kind, fixed, [random_distribution(rng, m) for _ in range(6)], alpha)

    @pytest.mark.parametrize("m", range(2, 10))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_many_rows_are_the_one_row_kernel_bit_for_bit(self, kind, m):
        # enough rows that the kernels reduce one column at a time
        rng = rng_of(m + 10 * len(kind.value))
        rows = rng.dirichlet(np.ones(m), size=ROW_LOOP_MIN + 37)
        fixed = rng.dirichlet(np.ones(m))
        for alpha in (0.5, 1.0, 2.5):
            forward = divergence_rows(kind, rows, fixed, alpha)
            reverse = divergence_fixed_p(kind, fixed, rows, alpha)
            for i, row in enumerate(rows):
                assert np.array_equal(forward[i], divergence_rows(kind, row, fixed, alpha))
                assert np.array_equal(reverse[i], divergence_fixed_p(kind, fixed, row, alpha))
            p, q = Distribution(Alphabet.of_size(m), rows[0]), Distribution(Alphabet.of_size(m), fixed)
            assert forward[0] == divergence(kind, p, q, alpha)

    def test_skewed_renyi_pair_does_not_overflow(self):
        # without a max-shift the power sum overflows to inf at alpha = 3
        p = normalize([1e-280, 1.0])
        q = normalize([1.0, 1e-280])
        self.check(DivergenceKind.RENYI, p, [q], 3.0)
        self.check(DivergenceKind.RENYI, q, [p], 3.0)
        assert renyi_d(p, q, 3.0) == pytest.approx(644.7238260383328, rel=1e-12)
