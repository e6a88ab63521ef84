import numpy as np
import pytest

from divproj.errors import CertificateMismatch, NumericFailure
from divproj.estimators import EstimatorKind, likelihood, maximize_likelihood, solve_estimating_equation
from divproj.families import FamilyKind, FamilySpec
from divproj.measures import Alphabet, Distribution, SampleData
from divproj.sufficiency import (
    MATCHED_LIKELIHOOD,
    equal_statistic_pairs,
    factorization_check,
    likelihood_split,
    sufficient_statistic,
)

from conftest import random_admissible_theta, random_family, rng_of

A2 = Alphabet(("0", "1"))
A3 = Alphabet(("a", "b", "c"))
A4 = Alphabet(("a", "b", "c", "d"))


class TestStatistics:
    def test_mean_statistic(self):
        sample = SampleData.from_counts([2, 3], A2)  # [0,1,1,0,1]
        q = Distribution(A2, [0.5, 0.5])
        t = sufficient_statistic(FamilyKind.EXPONENTIAL, sample, q, np.array([[0.0, 1.0]]))
        assert t.value == pytest.approx([0.6], abs=1e-15)

    def test_basu_family_statistic_is_the_same_mean(self):
        sample = SampleData.from_counts([2, 3], A2)
        q = Distribution(A2, [0.3, 0.7])
        f = np.array([[0.0, 1.0]])
        t_exp = sufficient_statistic(FamilyKind.EXPONENTIAL, sample, q, f, alpha=2.0)
        t_basu = sufficient_statistic(
            FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, sample, q, f, alpha=2.0
        )
        assert np.array_equal(t_exp.value, t_basu.value)

    def test_power_law_statistic_proportional_to_mean_for_uniform_reference(self):
        sample = SampleData.from_counts([1, 2, 2], A3)
        q = Distribution(A3, np.full(3, 1 / 3))
        f = np.array([[0.0, 1.0, 2.0]])
        t = sufficient_statistic(FamilyKind.ALPHA_POWER_LAW, sample, q, f, alpha=2.0)
        fbar = (f @ sample.empirical.probs)[0]
        assert t.value[0] == pytest.approx(fbar / (1 / 3), abs=1e-12)

    def test_escort_statistic_collapses_at_alpha_one(self):
        sample = SampleData.from_counts([1, 2, 2], A3)
        q = Distribution(A3, [0.2, 0.3, 0.5])
        f = np.array([[0.0, 1.0, 2.0]])
        t = sufficient_statistic(FamilyKind.ALPHA_EXPONENTIAL, sample, q, f, alpha=1.0)
        fbar = f @ sample.empirical.probs
        assert np.allclose(t.value, fbar, atol=1e-14)


class TestLikelihoodSplit:
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_split_reconstructs_likelihood(self, kind):
        rng = rng_of(33)
        alpha = 1.0 if kind is FamilyKind.EXPONENTIAL else 2.0
        spec = random_family(rng, kind, m=3, k=1, alpha=alpha, f_scale=0.5)
        sample = SampleData.from_counts([3, 4, 5], spec.alphabet)
        for _ in range(5):
            theta = random_admissible_theta(rng, spec, scale=0.15)
            g, h = likelihood_split(spec, theta, sample)
            direct = likelihood(MATCHED_LIKELIHOOD[kind], spec, theta, sample)
            assert g + h == pytest.approx(direct, abs=1e-12)

    def test_sample_part_for_basu_likelihood(self):
        # h carries only the sample mean of Q^(alpha-1)
        rng = rng_of(34)
        alpha = 2.0
        spec = random_family(rng, FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, m=3, k=1, alpha=alpha, f_scale=0.4)
        sample = SampleData.from_counts([2, 5, 3], spec.alphabet)
        theta = random_admissible_theta(rng, spec, scale=0.1)
        _, h = likelihood_split(spec, theta, sample)
        qbar = float(sample.empirical.probs @ spec.q.probs ** (alpha - 1.0))
        assert h == pytest.approx(alpha / (alpha - 1.0) * qbar, abs=1e-15)


def _bernoulli_like_exponential():
    q = Distribution(A3, [0.3, 0.4, 0.3])
    return FamilySpec(FamilyKind.EXPONENTIAL, q, np.array([[0.0, 1.0, 2.0]]))


class TestFactorization:
    def test_permuted_sample_gives_identically_zero_difference(self):
        spec = _bernoulli_like_exponential()
        obs = ["a", "b", "b", "c", "a", "c", "b"]
        from divproj.measures import empirical

        sample_a = empirical(obs, A3)
        sample_b = empirical(list(reversed(obs)), A3)
        report = factorization_check(spec, sample_a, sample_b, np.linspace(-1, 1, 51))
        assert report.t_equal
        assert report.max_deviation_from_constant == 0.0
        assert report.argmax_equal

    def test_distinct_counts_equal_mean(self):
        # counts (1,2,1) and (2,0,2) share the mean of f = (0,1,2)
        spec = _bernoulli_like_exponential()
        sample_a = SampleData.from_counts([1, 2, 1], A3)
        sample_b = SampleData.from_counts([2, 0, 2], A3)
        report = factorization_check(spec, sample_a, sample_b, np.linspace(-1, 1, 101))
        assert report.t_equal
        assert report.max_deviation_from_constant <= 1e-9
        assert report.argmax_equal

    def test_equal_t3_pair_with_non_uniform_reference(self):
        # counts c and c + (1,-2,1,0) preserve both fbar and the sample mean
        # of Q^(alpha-1) when Q is affine in f
        q = Distribution(A4, [0.1, 0.2, 0.3, 0.4])
        f = np.array([[0.0, 1.0, 2.0, 3.0]])
        spec = FamilySpec(FamilyKind.ALPHA_POWER_LAW, q, f, alpha=2.0)
        sample_a = SampleData.from_counts([2, 3, 4, 3], A4)
        sample_b = SampleData.from_counts([3, 1, 5, 3], A4)
        t_a = sufficient_statistic(spec.kind, sample_a, q, f, 2.0)
        t_b = sufficient_statistic(spec.kind, sample_b, q, f, 2.0)
        assert np.max(np.abs(t_a.value - t_b.value)) <= 1e-10
        report = factorization_check(spec, sample_a, sample_b, np.linspace(-0.4, 0.4, 101))
        assert report.t_equal and report.argmax_equal
        assert report.max_deviation_from_constant <= 1e-9

    def test_forced_equal_t_mismatch_is_a_numeric_failure(self):
        # t_tol = 1e9 declares unequal statistics equal; the likelihood
        # difference then fails the constancy certificate
        spec = _bernoulli_like_exponential()
        sample_a = SampleData.from_counts([3, 4, 3], A3)
        sample_b = SampleData.from_counts([1, 2, 7], A3)
        with pytest.raises(CertificateMismatch) as err:
            factorization_check(spec, sample_a, sample_b, np.linspace(-1, 1, 41), t_tol=1e9)
        assert isinstance(err.value, NumericFailure)
        low, high = err.value.values
        assert high - low > 1e-9

    def test_estimates_depend_on_sample_only_through_t(self):
        spec = _bernoulli_like_exponential()
        sample_a = SampleData.from_counts([1, 2, 1], A3)
        sample_b = SampleData.from_counts([2, 0, 2], A3)
        eq_a = solve_estimating_equation(EstimatorKind.MLE, spec, sample_a)
        eq_b = solve_estimating_equation(EstimatorKind.MLE, spec, sample_b)
        assert np.max(np.abs(eq_a.theta_star - eq_b.theta_star)) <= 1e-8
        lik_a = maximize_likelihood(EstimatorKind.MLE, spec, sample_a)
        lik_b = maximize_likelihood(EstimatorKind.MLE, spec, sample_b)
        assert np.max(np.abs(lik_a.theta_star - lik_b.theta_star)) <= 1e-8


class TestEqualStatisticSearch:
    def test_finds_mean_ties(self):
        q = Distribution(A3, [0.3, 0.4, 0.3])
        pairs = equal_statistic_pairs(
            FamilyKind.EXPONENTIAL, q, np.array([[0.0, 1.0, 2.0]]), 1.0, n=4
        )
        assert pairs
        sample_a, sample_b = pairs[0]
        fbar_a = sample_a.empirical.probs @ np.array([0.0, 1.0, 2.0])
        fbar_b = sample_b.empirical.probs @ np.array([0.0, 1.0, 2.0])
        assert fbar_a == pytest.approx(fbar_b, abs=1e-12)
        assert not np.array_equal(sample_a.counts, sample_b.counts)

    def test_pairs_have_distinct_counts_without_a_flag(self):
        q = Distribution(A3, [0.3, 0.4, 0.3])
        f = np.array([[0.0, 1.0, 2.0]])
        pairs = equal_statistic_pairs(FamilyKind.EXPONENTIAL, q, f, 1.0, n=6, max_pairs=100)
        assert pairs
        assert all(not np.array_equal(a.counts, b.counts) for a, b in pairs)
        with pytest.raises(TypeError):
            equal_statistic_pairs(FamilyKind.EXPONENTIAL, q, f, 1.0, n=4, require_distinct_counts=False)

    def test_stops_at_max_pairs(self):
        q = Distribution(A3, [0.3, 0.4, 0.3])
        f = np.array([[0.0, 1.0, 2.0]])
        every = equal_statistic_pairs(FamilyKind.EXPONENTIAL, q, f, 1.0, n=6, max_pairs=100)
        capped = equal_statistic_pairs(FamilyKind.EXPONENTIAL, q, f, 1.0, n=6, max_pairs=3)
        assert len(every) > 3
        assert [(a.counts.tolist(), b.counts.tolist()) for a, b in capped] == [
            (a.counts.tolist(), b.counts.tolist()) for a, b in every[:3]
        ]

    def test_finds_escort_ties_for_uniform_reference(self):
        q = Distribution(A3, np.full(3, 1 / 3))
        pairs = equal_statistic_pairs(
            FamilyKind.ALPHA_EXPONENTIAL, q, np.array([[0.0, 1.0, 2.0]]), 2.0, n=4
        )
        assert pairs
