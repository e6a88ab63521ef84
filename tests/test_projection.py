import numpy as np
import pytest

from divproj.divergences import DivergenceKind, density_power
from divproj.errors import DomainError
from divproj.estimators import EstimatorKind, solve_estimating_equation
from divproj.families import (
    FamilyKind,
    FamilySpec,
    LinearFamilySpec,
    eval_member,
    membership_residual,
    theta_of_member,
)
from divproj.measures import Alphabet, Distribution, SampleData
from divproj.oracle import SimplexGrid, grid_forward_min
from divproj.projection import (
    fit_projection_form,
    forward_dpd_projection,
    power_law_moment_jacobian,
    power_law_moment_map,
    projection_residual,
    pythagorean_gap,
    reverse_dpd_projection,
    solve_projection_equation,
)

from conftest import (
    random_admissible_theta,
    random_distribution,
    random_family,
    rng_of,
    sample_from,
)

AB = Alphabet(("a", "b"))
A3 = Alphabet(("a", "b", "c"))
Q3_UNIFORM = Distribution(A3, np.full(3, 1.0 / 3.0))
LIN_HAND = LinearFamilySpec(np.array([[0.0, 1.0, 2.0]]), np.array([1.2]), alphabet=A3)
P_STAR_HAND = np.array([7.0, 10.0, 13.0]) / 30.0


def random_linear_family(rng, m=3, k=1):
    p0 = random_distribution(rng, m)
    f = rng.uniform(-1.0, 1.0, size=(k, m))
    return LinearFamilySpec(f, f @ p0.probs, alphabet=p0.alphabet), p0


class TestProjectionResidual:
    def test_moment_match_for_kl(self):
        spec = FamilySpec(FamilyKind.EXPONENTIAL, Distribution(AB, [0.5, 0.5]), np.array([[0.0, 1.0]]))
        sample = SampleData.from_counts([3, 7], AB)
        r = projection_residual(DivergenceKind.KL, spec, [np.log(7.0 / 3.0)], sample)
        assert np.max(np.abs(r)) <= 1e-12

    def test_renyi_residual_zero_when_reference_is_empirical(self):
        rng = rng_of(2)
        q = random_distribution(rng, 3)
        spec = FamilySpec(FamilyKind.ALPHA_EXPONENTIAL, q, np.array([[0.0, 1.0, 2.0]]), alpha=2.0)
        # sample whose empirical measure equals the reference
        r = projection_residual(DivergenceKind.RENYI, spec, [0.0], q)
        assert np.max(np.abs(r)) <= 1e-12

    def test_rel_alpha_entropy_residual_at_jones_solution(self):
        rng = rng_of(3)
        spec = random_family(rng, FamilyKind.ALPHA_POWER_LAW, m=3, k=1, alpha=2.0, f_scale=0.6)
        theta0 = random_admissible_theta(rng, spec, scale=0.2)
        sample = sample_from(spec, theta0, 300, rng)
        rep = solve_estimating_equation(EstimatorKind.JONES, spec, sample)
        r = projection_residual(DivergenceKind.REL_ALPHA_ENTROPY, spec, rep.theta_star, sample)
        assert np.max(np.abs(r)) <= 1e-8


    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_renyi_escort_form_equals_plain_form(self, alpha):
        # reference: the plain alpha-power-sum form, divided by sum P^a
        rng = rng_of(4)
        for _ in range(10):
            spec = random_family(rng, FamilyKind.ALPHA_EXPONENTIAL, m=4, k=2, alpha=alpha, f_scale=0.6)
            theta = random_admissible_theta(rng, spec, scale=0.2)
            sample = sample_from(spec, theta, 40, rng)
            pv, ph, f = eval_member(spec, theta).probs, sample.empirical.probs, spec.f
            pa, pha, q1a = pv**alpha, ph**alpha, spec.q.probs ** (1.0 - alpha)
            plain = f @ pa - (float(pa @ q1a) / float(pha @ q1a)) * (f @ pha)
            got = projection_residual(DivergenceKind.RENYI, spec, theta, sample)
            assert np.max(np.abs(plain / pa.sum() - got)) <= 1e-12


class TestSolveProjectionEquation:
    def test_kl_bernoulli_logit(self):
        spec = FamilySpec(FamilyKind.EXPONENTIAL, Distribution(AB, [0.5, 0.5]), np.array([[0.0, 1.0]]))
        sample = SampleData.from_counts([3, 7], AB)
        rep = solve_projection_equation(DivergenceKind.KL, spec, sample)
        assert rep.theta_star[0] == pytest.approx(np.log(7.0 / 3.0), abs=1e-10)

    def test_dpd_moment_match(self):
        spec = FamilySpec(
            FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW,
            Distribution(AB, [0.5, 0.5]),
            np.array([[0.0, 1.0]]),
            alpha=2.0,
        )
        sample = SampleData.from_counts([4, 6], AB)
        rep = solve_projection_equation(DivergenceKind.DENSITY_POWER, spec, sample)
        assert (spec.f @ rep.p_star.probs).item() == pytest.approx(0.6, abs=1e-10)

    def test_rel_alpha_entropy_agrees_with_jones_route(self):
        rng = rng_of(4)
        spec = random_family(rng, FamilyKind.ALPHA_POWER_LAW, m=3, k=2, alpha=2.0, f_scale=0.5)
        theta0 = random_admissible_theta(rng, spec, scale=0.2)
        sample = sample_from(spec, theta0, 400, rng)
        proj = solve_projection_equation(DivergenceKind.REL_ALPHA_ENTROPY, spec, sample)
        est = solve_estimating_equation(EstimatorKind.JONES, spec, sample)
        assert np.max(np.abs(proj.theta_star - est.theta_star)) <= 1e-6


class TestForwardProjection:
    def test_reference_on_family_projects_to_itself(self, rng):
        q = random_distribution(rng, 4)
        f = rng.uniform(-1, 1, size=(2, 4))
        lin = LinearFamilySpec(f, f @ q.probs, alphabet=q.alphabet)
        for alpha in (0.5, 2.0):
            res = forward_dpd_projection(q, lin, alpha)
            assert np.max(np.abs(res.p_star.probs - q.probs)) <= 1e-9
            assert res.objective <= 1e-12

    def test_hand_computed_euclidean_case(self):
        res = forward_dpd_projection(Q3_UNIFORM, LIN_HAND, 2.0)
        assert np.max(np.abs(res.p_star.probs - P_STAR_HAND)) <= 1e-9
        assert res.objective == pytest.approx(0.02, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_small_alpha_matches_simplex_oracle(self, alpha):
        rng = rng_of(int(alpha * 100))
        lin, _ = random_linear_family(rng, m=3, k=1)
        q = random_distribution(rng, 3)
        res = forward_dpd_projection(q, lin, alpha)
        grid = SimplexGrid(3, 60)
        p_best, value = grid_forward_min(DivergenceKind.DENSITY_POWER, alpha, q, lin, grid)
        # the grid filters to a band of width 0.5/d around the constraint
        # slice; project that offset out before comparing locations, and
        # allow the band to undercut the constrained minimum by O(1/d)
        on_slice = lin.affine_project(p_best.probs)
        assert np.max(np.abs(res.p_star.probs - on_slice)) <= 3.0 / 60.0
        assert abs(res.objective - value) <= 2.0 / 60.0
        # the projection lies on the parametric shape
        _, _, residual, clamp_ok = fit_projection_form(res.p_star, q, lin, alpha)
        assert residual <= 1e-8 and clamp_ok

    def test_clamped_case_kkt(self):
        lin = LinearFamilySpec(np.array([[0.0, 1.0, 2.0]]), np.array([1.9]), alphabet=A3)
        res = forward_dpd_projection(Q3_UNIFORM, lin, 3.0)
        assert not np.all(res.support_mask)
        kkt = res.kkt_multipliers
        assert kkt is not None
        assert np.all(kkt["mu"] >= -1e-12)
        assert np.max(np.abs(kkt["mu"] * res.p_star.probs)) <= 1e-10
        _, _, residual, clamp_ok = fit_projection_form(res.p_star, Q3_UNIFORM, lin, 3.0)
        assert residual <= 1e-8 and clamp_ok

    def test_kkt_stationarity_identity(self):
        # lambda, nu, mu reconstructed from (theta, Z) satisfy the
        # stationarity equation of the simplex program
        lin = LinearFamilySpec(np.array([[0.0, 1.0, 2.0]]), np.array([1.9]), alphabet=A3)
        alpha = 2.0
        res = forward_dpd_projection(Q3_UNIFORM, lin, alpha)
        kkt = res.kkt_multipliers
        grad = alpha / (alpha - 1.0) * (res.p_star.probs ** (alpha - 1.0) - Q3_UNIFORM.probs ** (alpha - 1.0))
        rhs = kkt["lambda"] @ (lin.f - lin.a[:, None]) + kkt["mu"] - kkt["nu"]
        assert np.max(np.abs(grad - rhs)) <= 1e-9

    def test_restricted_support_family(self):
        # constraints force P(x0) = 0; the alpha < 1 projection lives on the
        # support of the family
        lin = LinearFamilySpec(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]), alphabet=A3)
        res = forward_dpd_projection(Q3_UNIFORM, lin, 0.5)
        assert res.p_star.probs[0] == 0.0
        assert np.all(res.p_star.probs[1:] > 0)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_constraint_rows_spanning_the_constant(self, alpha):
        # f_0 + f_1 = 1: one constraint repeats the normalization, so the
        # shape's (theta, Z) split is not unique but its fit still is exact
        lin = LinearFamilySpec(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([0.6, 0.4]), alphabet=A3)
        q = Distribution(A3, [0.2, 0.3, 0.5])
        res = forward_dpd_projection(q, lin, alpha)
        _, _, residual, clamp_ok = fit_projection_form(res.p_star, q, lin, alpha)
        assert residual <= 1e-10 and clamp_ok


class TestPythagorean:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_equality_below_one(self, alpha):
        rng = rng_of(int(alpha * 1000) + 1)
        lin, _ = random_linear_family(rng, m=4, k=2)
        q = random_distribution(rng, 4)
        res = forward_dpd_projection(q, lin, alpha)
        for _ in range(5):
            member = lin.sample_member(rng)
            assert abs(pythagorean_gap(member, res.p_star, q, alpha)) <= 1e-9

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_inequality_above_one(self, alpha):
        rng = rng_of(int(alpha * 1000) + 2)
        lin, _ = random_linear_family(rng, m=4, k=1)
        q = random_distribution(rng, 4)
        res = forward_dpd_projection(q, lin, alpha)
        full_support = bool(np.all(res.p_star.probs > 0))
        for _ in range(5):
            member = lin.sample_member(rng)
            gap = pythagorean_gap(member, res.p_star, q, alpha)
            assert gap >= -1e-10
            if full_support:
                assert abs(gap) <= 1e-9

    def test_gap_zero_at_projection_itself(self):
        res = forward_dpd_projection(Q3_UNIFORM, LIN_HAND, 2.0)
        assert pythagorean_gap(res.p_star, res.p_star, Q3_UNIFORM, 2.0) == pytest.approx(0.0, abs=1e-14)


class TestOrthogonality:
    """With the linear family and the non-normalized power-law family sharing
    their statistics, the forward projection is their unique intersection and
    every family member projects to the same point."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_corollary(self, alpha):
        rng = rng_of(int(alpha * 77))
        q = random_distribution(rng, 3)
        lin, _ = random_linear_family(rng, m=3, k=1)
        spec = FamilySpec(FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, q, lin.f, alpha=alpha)
        res = forward_dpd_projection(q, lin, alpha)
        assert membership_residual(spec, res.p_star) <= 1e-8
        assert np.max(np.abs(lin.f @ res.p_star.probs - lin.a)) <= 1e-10
        # any other member plays the role of the reference
        for _ in range(3):
            theta = random_admissible_theta(rng, spec, scale=0.15)
            other_ref = eval_member(spec, theta)
            member = lin.sample_member(rng)
            gap = pythagorean_gap(member, res.p_star, other_ref, alpha)
            assert abs(gap) <= 1e-8
            res_other = forward_dpd_projection(other_ref, lin, alpha)
            assert np.max(np.abs(res_other.p_star.probs - res.p_star.probs)) <= 1e-7


class TestReverseProjection:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_consistency_at_the_model(self, alpha):
        # family built so that the sample's empirical measure is the member
        # at theta = 1 exactly
        rng = rng_of(int(alpha * 10) + 5)
        counts = np.array([2, 3, 5])
        p0 = Distribution(A3, counts / counts.sum())
        q = random_distribution(rng, 3)
        f = (p0.probs ** (alpha - 1.0) - q.probs ** (alpha - 1.0)) / (1.0 - alpha)
        spec = FamilySpec(FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, q, f[None, :], alpha=alpha)
        sample = SampleData.from_counts(counts, A3)
        res = reverse_dpd_projection(sample, spec)
        assert res.in_family
        assert res.theta[0] == pytest.approx(1.0, abs=1e-6)
        fbar = spec.f @ sample.empirical.probs
        assert np.max(np.abs(spec.f @ res.p_star.probs - fbar)) <= 1e-8

    def test_closure_only_case(self):
        # the sample never sees symbol a and the statistic is its indicator:
        # the moment family forces P(a) = 0, off the strictly positive family
        q = Distribution(A3, [0.2, 0.3, 0.5])
        spec = FamilySpec(
            FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, q, np.array([[1.0, 0.0, 0.0]]), alpha=0.5
        )
        sample = SampleData.from_counts([0, 4, 6], A3)
        res = reverse_dpd_projection(sample, spec)
        assert not res.in_family
        assert res.p_star.probs[0] == 0.0
        assert "closure" in res.report.note
        fbar = spec.f @ sample.empirical.probs
        assert np.max(np.abs(spec.f @ res.p_star.probs - fbar)) <= 1e-8

    def test_small_alpha_matches_grid_argmin_over_family(self):
        # the family can be nearly flat in theta, so the oracle comparison
        # runs in probability/value space rather than parameter space
        rng = rng_of(17)
        alpha = 0.5
        spec = random_family(rng, FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, m=3, k=1, alpha=alpha, f_scale=0.5)
        theta0 = random_admissible_theta(rng, spec, scale=0.2)
        sample = sample_from(spec, theta0, 200, rng)
        res = reverse_dpd_projection(sample, spec)
        assert res.in_family
        grid = np.arange(-20.0, 20.0, 0.01)
        vals, members = [], []
        for t in grid:
            try:
                member = eval_member(spec, [t])
                vals.append(density_power(sample.empirical, member, alpha))
                members.append(member.probs)
            except Exception:
                vals.append(np.inf)
                members.append(None)
        i_best = int(np.argmin(vals))
        solver_value = density_power(sample.empirical, res.p_star, alpha)
        assert solver_value <= vals[i_best] + 1e-10
        assert np.max(np.abs(members[i_best] - res.p_star.probs)) <= 1e-3


class TestMomentMap:
    def make_instance(self, seed=8, m=3, k=1, alpha=2.0, n=300):
        rng = rng_of(seed)
        spec = random_family(rng, FamilyKind.ALPHA_POWER_LAW, m=m, k=k, alpha=alpha, f_scale=0.6)
        theta0 = random_admissible_theta(rng, spec, scale=0.2)
        sample = sample_from(spec, theta0, n, rng)
        return spec, sample, rng

    def test_equals_sample_mean_at_solution(self):
        spec, sample, _ = self.make_instance()
        rep = solve_projection_equation(DivergenceKind.REL_ALPHA_ENTROPY, spec, sample)
        phi = power_law_moment_map(spec, rep.theta_star, sample)
        fbar = spec.f @ sample.empirical.probs
        assert np.max(np.abs(phi - fbar)) <= 1e-8

    def test_value_at_zero(self):
        spec, sample, _ = self.make_instance(seed=9)
        a = spec.alpha
        ph = sample.empirical.probs
        qa = spec.q.probs ** (a - 1.0)
        expected = (spec.f @ spec.q.probs) * float(ph @ qa) / float(np.sum(spec.q.probs**a))
        got = power_law_moment_map(spec, np.zeros(spec.theta_dim), sample)
        assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_power_form_equals_quotient_form(self, alpha):
        # reference: the reference-bracket quotient form of the moment map
        spec, sample, rng = self.make_instance(seed=15, m=4, k=2, alpha=alpha)
        ph, f = sample.empirical.probs, spec.f
        qa = spec.q.probs ** (alpha - 1.0)
        for _ in range(10):
            theta = random_admissible_theta(rng, spec, scale=0.25)
            pv = eval_member(spec, theta).probs
            quotient = (
                (f @ pv)
                * (float(ph @ qa) + (1.0 - alpha) * float(theta @ (f @ ph)))
                / float(pv @ (qa + (1.0 - alpha) * (theta @ f)))
            )
            got = power_law_moment_map(spec, theta, sample)
            assert np.max(np.abs(quotient - got)) <= 1e-12 * max(1.0, float(np.max(np.abs(got))))

    def test_injective_spot_check(self):
        spec, sample, _ = self.make_instance(seed=10)
        v1 = power_law_moment_map(spec, [0.05], sample)
        v2 = power_law_moment_map(spec, [0.15], sample)
        assert np.max(np.abs(v1 - v2)) > 1e-8

    def test_jacobian_matches_finite_differences_at_solution(self):
        for alpha in (0.5, 2.0):
            spec, sample, _ = self.make_instance(seed=11, m=4, k=2, alpha=alpha)
            rep = solve_projection_equation(DivergenceKind.REL_ALPHA_ENTROPY, spec, sample)
            theta = rep.theta_star
            jac = power_law_moment_jacobian(spec, theta, sample)
            fd = np.empty_like(jac)
            h = 1e-6
            for j in range(spec.theta_dim):
                tp = theta.copy()
                tp[j] += h
                tm = theta.copy()
                tm[j] -= h
                fd[:, j] = (
                    power_law_moment_map(spec, tp, sample)
                    - power_law_moment_map(spec, tm, sample)
                ) / (2 * h)
            assert np.max(np.abs(jac - fd)) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_negative_definite_at_random_parameters(self, alpha):
        spec, sample, rng = self.make_instance(seed=12, m=4, k=2, alpha=alpha)
        for _ in range(20):
            theta = random_admissible_theta(rng, spec, scale=0.25)
            jac = power_law_moment_jacobian(spec, theta, sample)
            assert np.max(np.abs(jac - jac.T)) <= 1e-12
            assert np.all(np.linalg.eigvalsh(jac) < -1e-12)

    def test_scalar_case_sign(self):
        spec, sample, _ = self.make_instance(seed=13, k=1)
        jac = power_law_moment_jacobian(spec, [0.1], sample)
        assert jac.shape == (1, 1) and jac[0, 0] < 0

    def test_rejects_other_kinds(self):
        rng = rng_of(14)
        spec = random_family(rng, FamilyKind.EXPONENTIAL, m=3, k=1)
        sample = sample_from(spec, [0.1], 50, rng)
        with pytest.raises(DomainError):
            power_law_moment_map(spec, [0.1], sample)
