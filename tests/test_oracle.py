import numpy as np
import pytest

from divproj.divergences import DivergenceKind
from divproj.errors import EmptyFeasibleGrid, InputError, NoAdmissibleTheta
from divproj.estimators import EstimatorKind
from divproj.families import FamilyKind, FamilySpec, LinearFamilySpec
from divproj.measures import Alphabet, Distribution, SampleData
from divproj.oracle import (
    MATCHED_DIVERGENCE,
    SimplexGrid,
    ThetaGrid,
    grid_forward_min,
    grid_reverse_min,
)
from divproj.projection import forward_dpd_projection

from conftest import random_admissible_theta, random_distribution, random_family, rng_of, sample_from

A3 = Alphabet(("a", "b", "c"))
AB = Alphabet(("a", "b"))


class TestSimplexGrid:
    def test_point_count_formula(self):
        grid = SimplexGrid(3, 60)
        points = grid.points()
        assert grid.point_count() == 1891  # C(62, 2)
        assert len(points) == 1891

    def test_points_sum_to_one_exactly_in_rational_arithmetic(self):
        grid = SimplexGrid(4, 7)
        pts = grid.points()
        # counts are integer compositions of d, so d * p sums to d exactly
        assert np.all(np.abs(np.round(pts * 7).sum(axis=1) - 7) == 0)
        assert np.max(np.abs(pts.sum(axis=1) - 1.0)) <= 1e-15

    def test_lexicographic_deterministic(self):
        a = SimplexGrid(3, 5).points()
        b = SimplexGrid(3, 5).points()
        assert np.array_equal(a, b)
        # first point in combination order is the full mass on the last slot
        assert np.array_equal(a[0], [0.0, 0.0, 1.0])

    def test_interior_only_drops_boundary(self):
        pts = SimplexGrid(3, 4, interior_only=True).points()
        assert np.all(pts > 0.0)
        assert len(pts) == 3  # compositions of 4 into 3 positive parts


class TestGridCaps:
    """Parameter grids past the point cap are refused before anything is
    allocated (the simplex cap is tested through the CLI)."""

    def test_parameter_grid_over_cap(self):
        with pytest.raises(InputError, match="exceeds"):
            ThetaGrid.of([-1.0, -1.0], [1.0, 1.0], [1001, 1001], k=2)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_parameter_grid_needs_a_step(self, steps):
        with pytest.raises(InputError, match="step"):
            ThetaGrid.of(-1.0, 1.0, steps)


class TestForwardOracle:
    def test_reference_inside_family_wins(self):
        rng = rng_of(41)
        q = random_distribution(rng, 3)
        f = np.array([[0.0, 1.0, 2.0]])
        lin = LinearFamilySpec(f, f @ q.probs, alphabet=q.alphabet)
        d = 60
        p_best, value = grid_forward_min(DivergenceKind.KL, 1.0, q, lin, SimplexGrid(3, d))
        assert np.max(np.abs(p_best.probs - q.probs)) <= 1.0 / d
        assert value <= 25.0 / d**2

    def test_matches_hand_computed_projection(self):
        q = Distribution(A3, np.full(3, 1 / 3))
        lin = LinearFamilySpec(np.array([[0.0, 1.0, 2.0]]), np.array([1.2]), alphabet=A3)
        p_best, _ = grid_forward_min(DivergenceKind.DENSITY_POWER, 2.0, q, lin, SimplexGrid(3, 60))
        assert np.max(np.abs(p_best.probs - np.array([7, 10, 13]) / 30.0)) <= 1.0 / 60.0

    def test_runtime_is_interactive(self):
        import time

        start = time.monotonic()
        grid_forward_min(
            DivergenceKind.RENYI,
            0.5,
            Distribution(A3, np.full(3, 1 / 3)),
            None,
            SimplexGrid(3, 60),
        )
        assert time.monotonic() - start < 1.0

    def test_empty_grid_raises(self):
        q = Distribution(A3, np.full(3, 1 / 3))
        with pytest.raises(EmptyFeasibleGrid):
            grid_forward_min(DivergenceKind.KL, 1.0, q, None, SimplexGrid(3, 1, interior_only=True))

    def test_refinement_shrinks_value_gap(self):
        # per-instance ratios are alignment-noisy, so the check runs on the
        # worst case over a batch of smooth instances, where the gap scales
        # with the squared step
        from divproj.divergences import divergence
        from divproj.estimators import solve_estimating_equation
        from divproj.families import eval_member

        steps = (0.04, 0.02, 0.01)
        gaps = {s: 0.0 for s in steps}
        for seed in range(60, 72):
            rng = rng_of(seed)
            spec = random_family(rng, FamilyKind.EXPONENTIAL, m=3, k=1, alpha=1.0, f_scale=0.8)
            theta0 = random_admissible_theta(rng, spec, scale=0.4)
            sample = sample_from(spec, theta0, 300, rng)
            rep = solve_estimating_equation(EstimatorKind.MLE, spec, sample)
            v_solver = divergence(DivergenceKind.KL, sample.empirical, rep.p_star, 1.0)
            for s in steps:
                grid = ThetaGrid.of(-2.0, 2.0, int(round(4.0 / s)) + 1)
                _, v = grid_reverse_min(DivergenceKind.KL, 1.0, sample, spec, grid)
                gaps[s] = max(gaps[s], abs(v - v_solver))
        assert gaps[0.02] <= gaps[0.04] / 2.0
        assert gaps[0.01] <= gaps[0.02] / 2.0


class TestReverseOracle:
    def bernoulli(self):
        return FamilySpec(
            FamilyKind.EXPONENTIAL, Distribution(AB, [0.5, 0.5]), np.array([[0.0, 1.0]])
        )

    def test_logit_closed_form(self):
        spec = self.bernoulli()
        sample = SampleData.from_counts([3, 7], AB)
        grid = ThetaGrid.of(-2.0, 2.0, 201)
        theta_best, _ = grid_reverse_min(DivergenceKind.KL, 1.0, sample, spec, grid)
        assert abs(theta_best[0] - np.log(7 / 3)) <= grid.cell_width()[0]

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_likelihood_argmax_cross_assert_passes(self, kind):
        rng = rng_of(43 + ord(kind.value[0]))
        alpha = {"mle": 1.0, "hellinger": 0.5, "basu": 2.0, "jones": 2.0}[kind.value]
        from divproj.estimators import MATCHED_FAMILY

        spec = random_family(rng, MATCHED_FAMILY[kind], m=3, k=1, alpha=alpha, f_scale=0.5)
        theta0 = random_admissible_theta(rng, spec, scale=0.2)
        sample = sample_from(spec, theta0, 150, rng)
        grid = ThetaGrid.of(-1.0, 1.0, 101)
        theta_best, value = grid_reverse_min(MATCHED_DIVERGENCE[kind], alpha, sample, spec, grid)
        assert np.isfinite(value)
        assert abs(theta_best[0]) <= 1.0

    def test_no_admissible_theta(self):
        q = Distribution(AB, [0.5, 0.5])
        spec = FamilySpec(FamilyKind.ALPHA_POWER_LAW, q, np.array([[0.0, 1.0]]), alpha=2.0)
        sample = SampleData.from_counts([5, 5], AB)
        grid = ThetaGrid.of(3.0, 4.0, 11)  # bracket at 'b' is 2 - theta < 0
        with pytest.raises(NoAdmissibleTheta):
            grid_reverse_min(DivergenceKind.REL_ALPHA_ENTROPY, 2.0, sample, spec, grid)

    def test_two_dimensional_grid(self):
        rng = rng_of(44)
        spec = random_family(rng, FamilyKind.EXPONENTIAL, m=3, k=2, alpha=1.0, f_scale=0.6)
        theta0 = random_admissible_theta(rng, spec, scale=0.3)
        sample = sample_from(spec, theta0, 400, rng)
        grid = ThetaGrid.of([-1.5, -1.5], [1.5, 1.5], [76, 76], k=2)
        theta_best, _ = grid_reverse_min(DivergenceKind.KL, 1.0, sample, spec, grid)
        from divproj.estimators import solve_estimating_equation

        rep = solve_estimating_equation(EstimatorKind.MLE, spec, sample)
        assert np.max(np.abs(theta_best - rep.theta_star)) <= grid.cell_width().max()
