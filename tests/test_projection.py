import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divproj.families
from divproj.divergences import DivergenceKind, density_power
from divproj.errors import DomainError, NoConvergence
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
    forward_corpus,
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
        p_best, value, _ = grid_forward_min(DivergenceKind.DENSITY_POWER, alpha, q, lin, grid)
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


# alpha = 3 optima with one coordinate of order 1e-5, where the residual's
# rounding floor (about 1e-12) sits above the 1e-13 Newton stop: the
# warm-started full-support Newton stalls just short of it
NEAR_ZERO_OPTIMA = [
    (  # the mass of x0 at the optimum is 4.5e-6
        [0.461662135515379, 0.2678452039824383, 0.2704926605021827],
        [[-0.5119416765412541, -0.2948801305631379, 0.806821807104392]],
        [0.6857985360387332],
    ),
    (  # the mass of x1 at the optimum is 1.4e-5
        [0.1117078241688158, 0.2286472635747115, 0.06104103801293203, 0.5986038742435408],
        [
            [-0.5268117655781794, -0.47239554598256256, 0.5068212054343462, 0.4923861061263956],
            [0.42077228740561934, -0.43597541420116454, 0.5700784752934457, -0.5548753484979],
        ],
        [0.192713643535993, -0.022520283498749002],
    ),
]


class TestNearZeroOptimum:
    @pytest.mark.parametrize("q, f, a", NEAR_ZERO_OPTIMA, ids=["m3", "m4k2"])
    def test_full_support_optimum_with_tiny_coordinate(self, q, f, a):
        q = Distribution(Alphabet.of_size(len(q)), q)
        lin = LinearFamilySpec(np.array(f), np.array(a), alphabet=q.alphabet)
        res = forward_dpd_projection(q, lin, 3.0)
        assert np.all(res.p_star.probs > 0.0)
        assert 1e-6 < res.p_star.probs.min() < 1e-4
        assert lin.contains(res.p_star, tol=1e-9)
        _, _, residual, clamp_ok = fit_projection_form(res.p_star, q, lin, 3.0)
        assert residual <= 1e-8 and clamp_ok
        rng = rng_of(3)
        for _ in range(5):
            gap = pythagorean_gap(lin.sample_member(rng), res.p_star, q, 3.0)
            assert abs(gap) <= 1e-9


class TestWrongClampStall:
    # alpha = 3: a full-support Newton from theta = 0 stalls against the
    # bracket of x2 (P(x2) about 9e-10), although the optimum clamps x3 and
    # puts 0.09 on x2; an active set that clamps the smallest bracket on a
    # stall ends on the wrong face
    Q = [0.6769154973788509, 0.18233672119268407, 0.06791262668497285, 0.07283515474349221]
    F = [
        [-0.36937307941137476, 0.7963216261657113, 0.049482819243600866, -0.47643136599793745],
        [0.39493347458864303, -0.2614991007000006, 0.5524529855102739, -0.6858873593989162],
    ]
    A = [0.36302128229886227, 0.01799342065193138]

    def test_clamps_the_right_symbol(self):
        q = Distribution(Alphabet.of_size(4), self.Q)
        lin = LinearFamilySpec(np.array(self.F), np.array(self.A), alphabet=q.alphabet)
        res = forward_dpd_projection(q, lin, 3.0)
        assert res.p_star.probs[3] == 0.0 and np.all(res.p_star.probs[:3] > 0.0)
        assert res.p_star.probs[2] == pytest.approx(0.090, abs=1e-3)
        assert lin.contains(res.p_star, tol=1e-9)
        assert np.all(res.kkt_multipliers["mu"] >= -1e-12)
        _, _, residual, clamp_ok = fit_projection_form(res.p_star, q, lin, 3.0)
        assert residual <= 1e-8 and clamp_ok


class TestNewtonRestart:
    # alpha = 10: the dual Newton from (theta, Z) = 0 stalls on this family;
    # the restart from the shape fitted to the family's centre solves it
    Q = [0.09245055042079164, 0.45176110653873947, 0.455788343040469]
    F = [[-0.9910389122008587, 0.5018831915877722, -0.8625885488683183]]
    A = [-0.3335106145567373]

    def test_restart_from_the_centre_is_certified(self):
        q = Distribution(Alphabet.of_size(3), self.Q)
        lin = LinearFamilySpec(np.array(self.F), np.array(self.A), alphabet=q.alphabet)
        res = forward_dpd_projection(q, lin, 10.0)
        assert lin.contains(res.p_star, tol=1e-10)
        assert np.all(res.kkt_multipliers["mu"] >= -1e-12)
        _, _, residual, clamp_ok = fit_projection_form(res.p_star, q, lin, 10.0)
        assert residual <= 1e-8 and clamp_ok

    def test_stall_after_the_restart_names_its_best_iterate(self):
        # the face is x1..x4; both Newton runs stall at alpha = 10
        q = Distribution(Alphabet.of_size(5), [0.123074, 0.051425, 0.553119, 0.118292, 0.154090])
        f = np.array([[1.398044] + [0.398044] * 4, [0.880119, 0.532317, 0.011459, 0.707209, 0.109244]])
        lin = LinearFamilySpec(f, np.array([0.398044, 0.14491]), alphabet=q.alphabet)
        assert lin.support_mask().tolist() == [False, True, True, True, True]
        with pytest.raises(NoConvergence, match="family's centre") as err:
            forward_dpd_projection(q, lin, 10.0)
        assert err.value.best_theta.shape == (2,)
        assert err.value.best_residual > 1e-10


class TestSingleMemberFamily:
    # f pins P(x0) and P(x2), so the family is the single point
    # (0.3, 0.7 - a1, a1); Newton alone stalls on it at alpha >= 3
    Q = Distribution(A3, [0.3, 0.3, 0.4])
    F = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a1, alpha", [(1e-9, 3.0), (1e-3, 5.0)])
    def test_member_is_returned_directly(self, a1, alpha):
        lin = LinearFamilySpec(self.F, np.array([0.3, a1]), alphabet=A3)
        res = forward_dpd_projection(self.Q, lin, alpha)
        assert np.max(np.abs(res.p_star.probs - [0.3, 0.7 - a1, a1])) <= 1e-15
        assert lin.contains(res.p_star, tol=1e-15)
        _, _, residual, clamp_ok = fit_projection_form(res.p_star, self.Q, lin, alpha)
        assert residual <= 1e-15 and clamp_ok
        assert np.all(res.kkt_multipliers["mu"] == 0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 2.0, 3.0])
def test_fuzz_corpus_is_solved_and_certified(alpha):
    # the corpus's first 200 families, single-member faces included
    for q, f, a in itertools.islice(forward_corpus(), 200):
        lin = LinearFamilySpec(f, a, alphabet=q.alphabet)
        res = forward_dpd_projection(q, lin, alpha)
        p = res.p_star.probs
        assert np.max(np.abs(f @ p - a)) <= 1e-10 and abs(p.sum() - 1.0) <= 1e-10
        _, _, residual, clamp_ok = fit_projection_form(res.p_star, q, lin, alpha)
        assert residual <= 1e-8 and clamp_ok
        if alpha > 1.0:
            assert np.all(res.kkt_multipliers["mu"] >= -1e-12)


class TestBoundaryFaces:
    """Families on a boundary face of the simplex: members are drawn on the
    face, with exactly zero mass off it."""

    def test_face_draws_keep_equality_below_one(self):
        lin = LinearFamilySpec(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]), alphabet=A3)
        q = Distribution(A3, [0.2, 0.3, 0.5])
        res = forward_dpd_projection(q, lin, 0.5)
        rng = rng_of(11)
        for _ in range(10):
            member = lin.sample_member(rng)
            assert member.probs[0] == 0.0 and np.all(member.probs[1:] > 0.0)
            assert lin.contains(member, tol=1e-12)
            assert abs(pythagorean_gap(member, res.p_star, q, 0.5)) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_clamp_condition_ignores_symbols_off_the_face(self, alpha):
        lin = LinearFamilySpec(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]), alphabet=A3)
        q = Distribution(A3, [0.2, 0.3, 0.5])
        res = forward_dpd_projection(q, lin, alpha)
        _, _, residual, clamp_ok = fit_projection_form(res.p_star, q, lin, alpha)
        assert residual <= 1e-10 and clamp_ok

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_multipliers_are_nonnegative_off_the_face(self, alpha):
        # the face pins P(a) = 0; mu must certify that symbol too
        lin = LinearFamilySpec(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]), alphabet=A3)
        q = Distribution(A3, [0.2, 0.3, 0.5])
        res = forward_dpd_projection(q, lin, alpha)
        kkt = res.kkt_multipliers
        assert np.all(kkt["mu"] >= -1e-12)
        assert np.max(np.abs(kkt["mu"] * res.p_star.probs)) <= 1e-10
        grad = alpha / (alpha - 1.0) * (res.p_star.probs ** (alpha - 1.0) - q.probs ** (alpha - 1.0))
        rhs = kkt["lambda"] @ (lin.f - lin.a[:, None]) + kkt["mu"] - kkt["nu"]
        assert np.max(np.abs(grad - rhs)) <= 1e-9

    def test_single_point_family(self):
        # three rows pin the one member (0.2, 0.3, 0.5, 0); on its support
        # the (theta, Z) system is rank-deficient
        f = np.array([[2.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 2.0], [-2.0, 2.0, 0.0, -1.0]])
        point = np.array([0.2, 0.3, 0.5, 0.0])
        q = Distribution(Alphabet.of_size(4), [0.1, 0.2, 0.3, 0.4])
        lin = LinearFamilySpec(f, f @ point, alphabet=q.alphabet)
        res = forward_dpd_projection(q, lin, 0.8)
        assert res.p_star.probs[3] == 0.0
        assert np.max(np.abs(res.p_star.probs - point)) <= 1e-9

    def test_single_vertex_face(self):
        # P(a) - 2 P(b) = 1 leaves the one member (1, 0)
        lin = LinearFamilySpec(np.array([[1.0, -2.0]]), np.array([1.0]), alphabet=AB)
        q = Distribution(AB, [0.4, 0.6])
        assert lin.support_mask().tolist() == [True, False]
        res = forward_dpd_projection(q, lin, 0.5)
        rng = rng_of(12)
        for _ in range(10):
            member = lin.sample_member(rng)
            assert member.probs.tolist() == [1.0, 0.0]
            assert pythagorean_gap(member, res.p_star, q, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_centre_is_the_faces_max_min_point(self):
        lin = LinearFamilySpec(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]), alphabet=A3)
        center, margin = lin.interior_member()
        assert margin == 0.0
        assert center[0] == 0.0
        assert center[1:] == pytest.approx([0.5, 0.5], abs=1e-12)


class TestLinearFamilyLPs:
    """A linear family solves its LPs at construction and none afterwards."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        original = divproj.families.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(divproj.families, "linprog", counting)
        return calls

    def test_full_support_family_solves_one_lp(self, lp_calls):
        rng = rng_of(21)
        lin, _ = random_linear_family(rng, m=4, k=2)
        assert len(lp_calls) == 1
        assert np.all(lin.support_mask())
        for _ in range(20):
            lin.sample_member(rng)
        q = random_distribution(rng, 4)
        for alpha in (0.5, 3.0):
            forward_dpd_projection(q, lin, alpha)
        assert len(lp_calls) == 1

    def test_boundary_face_solves_no_lp_after_construction(self, lp_calls):
        lin = LinearFamilySpec(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]), alphabet=A3)
        built = len(lp_calls)
        assert built >= 2
        lin.support_mask()
        lin.sample_member(rng_of(22))
        forward_dpd_projection(Q3_UNIFORM, lin, 0.5)
        assert len(lp_calls) == built


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


class TestProjectionProperties:
    """Random linear families, one in three on a boundary face that a row
    pins, with targets pushed toward a vertex half the time."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 5),
        k=st.integers(1, 2),
        boundary=st.booleans(),
        pushed=st.booleans(),
        alpha=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0)),
    )
    def test_certified_projection(self, seed, m, k, boundary, pushed, alpha):
        rng = rng_of(seed)
        q = random_distribution(rng, m, floor=0.02)
        f = rng.uniform(-1.0, 1.0, size=(k, m))
        face = np.ones(m, dtype=bool)
        if boundary:
            missing = int(rng.integers(m))
            face[missing] = False
            f[0] = rng.uniform(-0.5, 0.5)
            f[0, missing] += 1.0
        target = np.zeros(m)
        target[face] = rng.dirichlet(np.ones(int(face.sum())))
        if pushed:
            target = 0.85 * np.eye(m)[np.flatnonzero(face)[0]] + 0.15 * face / face.sum()
        lin = LinearFamilySpec(f, f @ target, alphabet=q.alphabet)
        res = forward_dpd_projection(q, lin, alpha)
        assert lin.contains(res.p_star, tol=1e-9)
        if alpha > 1.0:
            assert np.all(res.kkt_multipliers["mu"] >= -1e-12)
        for _ in range(3):
            assert pythagorean_gap(lin.sample_member(rng), res.p_star, q, alpha) >= -1e-10


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
        assert res.theta is None
        assert "closure" in res.note
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


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: forward_dpd_projection(Distribution(A3, [0.0, 0.5, 0.5], strict=False), LIN_HAND, 2.0), id="q_off_support"),
        pytest.param(lambda: forward_dpd_projection(Distribution(AB, [0.5, 0.5]), LIN_HAND, 2.0), id="sizes_differ"),
        pytest.param(
            lambda: power_law_moment_jacobian(
                FamilySpec(FamilyKind.EXPONENTIAL, Q3_UNIFORM, [[0.0, 1.0, 2.0]]), [0.1], SampleData.from_counts([1, 2, 3], A3)
            ),
            id="moment_jacobian_of_an_exponential_family",
        ),
    ],
)
def test_bad_arguments_raise_domain_errors(call):
    with pytest.raises(DomainError):
        call()
