import numpy as np
import pytest

from divproj.divergences import density_power
from divproj import estimators
from divproj.errors import DomainViolation, NoConvergence, NormalizerNotFound
from divproj.estimators import (
    EstimatorKind,
    MATCHED_FAMILY,
    estimating_residual,
    is_matched_pair,
    likelihood,
    maximize_likelihood,
    score,
    score_matrix,
    solve_estimating_equation,
    _gradient,
    _likelihood_at_rows,
)
from divproj.families import (
    FamilyKind,
    FamilySpec,
    escort_family_map,
    escort_family_spec,
    escort_parameter_map,
    eval_member,
    member_with_normalizer,
)
from divproj.measures import Alphabet, Distribution, SampleData, empirical
from divproj.solvers import fd_jacobian

from conftest import (
    random_admissible_theta,
    random_family,
    rng_of,
    sample_from,
)

AB = Alphabet(("a", "b"))
BERNOULLI = FamilySpec(FamilyKind.EXPONENTIAL, Distribution(AB, [0.5, 0.5]), np.array([[0.0, 1.0]]))
SAMPLE_7 = SampleData.from_counts([3, 7], AB)  # fbar = 0.7

ROBUST_KINDS = [EstimatorKind.HELLINGER, EstimatorKind.BASU, EstimatorKind.JONES]
ALPHA_OF_KIND = {
    EstimatorKind.MLE: 1.0,
    EstimatorKind.HELLINGER: 0.5,
    EstimatorKind.BASU: 2.0,
    EstimatorKind.JONES: 2.0,
}


def matched_instance(kind, seed, m=3, k=1, n=200, theta_scale=0.3):
    rng = rng_of(seed)
    alpha = ALPHA_OF_KIND[kind]
    spec = random_family(rng, MATCHED_FAMILY[kind], m=m, k=k, alpha=alpha, f_scale=0.6)
    theta0 = random_admissible_theta(rng, spec, scale=theta_scale)
    sample = sample_from(spec, theta0, n, rng)
    return spec, theta0, sample


class TestScore:
    def test_bernoulli_at_zero(self):
        assert score(BERNOULLI, [0.0], "b") == pytest.approx([0.5])

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_mean_score_vanishes(self, kind, rng):
        alpha = 1.0 if kind is FamilyKind.EXPONENTIAL else 2.0
        spec = random_family(rng, kind, m=4, k=2, alpha=alpha, f_scale=0.5)
        theta = random_admissible_theta(rng, spec, scale=0.2)
        s = score_matrix(spec, theta)
        p = eval_member(spec, theta)
        assert np.max(np.abs(s @ p.probs)) <= 1e-10

    @pytest.mark.parametrize("kind", list(FamilyKind))
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_matches_finite_differences(self, kind, alpha, rng):
        if kind is FamilyKind.EXPONENTIAL:
            alpha = 1.0
        spec = random_family(rng, kind, m=3, k=2, alpha=alpha, f_scale=0.5)
        theta = random_admissible_theta(rng, spec, scale=0.2)
        s = score_matrix(spec, theta)
        h = 1e-5
        for j in range(spec.theta_dim):
            tp = theta.copy()
            tp[j] += h
            tm = theta.copy()
            tm[j] -= h
            fd = (np.log(eval_member(spec, tp).probs) - np.log(eval_member(spec, tm).probs)) / (2 * h)
            assert np.max(np.abs(s[j] - fd)) <= 1e-6


class TestGradientIdentity:
    def test_nn_family_member_gradient(self, rng):
        # the member gradient of the non-normalized kind factors through
        # -P^(2-alpha) (grad Z + f); checked against finite differences
        spec = random_family(rng, FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, m=4, k=1, alpha=2.0, f_scale=0.5)
        theta = random_admissible_theta(rng, spec, scale=0.2)
        p = eval_member(spec, theta)
        f = spec.f
        w = p.probs ** (2.0 - spec.alpha)
        grad_z = -(f @ w) / w.sum()
        analytic = -(p.probs ** (2.0 - spec.alpha))[None, :] * (grad_z[:, None] + f)
        h = 1e-6
        tp = theta + h
        tm = theta - h
        fd = (eval_member(spec, tp).probs - eval_member(spec, tm).probs) / (2 * h)
        assert np.max(np.abs(analytic[0] - fd)) <= 1e-6


class TestLikelihood:
    def test_mle_at_empirical_member_is_negative_entropy(self):
        ph = SAMPLE_7.empirical
        spec = FamilySpec(FamilyKind.EXPONENTIAL, Distribution(AB, ph.probs), np.array([[0.0, 1.0]]))
        expected = float(np.sum(ph.probs * np.log(ph.probs)))
        assert likelihood(EstimatorKind.MLE, spec, [0.0], SAMPLE_7) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_alpha_near_one_collapse(self, kind):
        # the Hellinger likelihood tends to L + H(empirical): its exact
        # limit carries the sample entropy as an additive constant, which
        # shifts nothing in the maximization
        base = likelihood(EstimatorKind.MLE, BERNOULLI, [0.3], SAMPLE_7)
        ph = SAMPLE_7.empirical.probs
        shift = -float(np.sum(ph * np.log(ph))) if kind is EstimatorKind.HELLINGER else 0.0
        for alpha in (0.999, 1.001):
            got = likelihood(kind, BERNOULLI, [0.3], SAMPLE_7, alpha=alpha)
            assert got == pytest.approx(base + shift, abs=2e-3)

    def test_alpha_one_exact_dispatch(self):
        base = likelihood(EstimatorKind.MLE, BERNOULLI, [0.3], SAMPLE_7)
        for kind in ROBUST_KINDS:
            assert likelihood(kind, BERNOULLI, [0.3], SAMPLE_7, alpha=1.0) == base

    def test_grid_argmax_matches_divergence_argmin(self):
        # Basu likelihood vs density power divergence on a 201-point grid
        spec, theta0, sample = matched_instance(EstimatorKind.BASU, seed=77, m=2)
        grid = np.linspace(-0.2, 0.2, 201)
        lik, div = [], []
        for t in grid:
            try:
                lik.append(likelihood(EstimatorKind.BASU, spec, [t], sample))
                div.append(density_power(sample.empirical, eval_member(spec, [t]), spec.alpha))
            except Exception:
                lik.append(-np.inf)
                div.append(np.inf)
        assert int(np.argmax(lik)) == int(np.argmin(div))

    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
    def test_scalar_is_the_one_row_case(self, kind):
        spec, _, sample = matched_instance(kind, seed=7, m=4, k=2)
        theta = random_admissible_theta(rng_of(7), spec, scale=0.2)
        rows = _likelihood_at_rows(kind, spec, sample)
        assert likelihood(kind, spec, theta, sample) == rows(theta[None, :])[0]
        far = np.array([1e3, -1e3])
        if spec.kind is not FamilyKind.EXPONENTIAL:
            # outside the domain: NaN as a row, the member's own error as a scalar
            assert np.isnan(rows(far[None, :])[0])
            with pytest.raises((DomainViolation, NormalizerNotFound)):
                likelihood(kind, spec, far, sample)


class TestEstimatingResidual:
    def test_mle_zero_at_moment_match(self):
        theta = [np.log(7.0 / 3.0)]
        r = estimating_residual(EstimatorKind.MLE, BERNOULLI, theta, SAMPLE_7)
        assert np.max(np.abs(r)) <= 1e-10

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_alpha_one_equals_mle_exactly(self, kind):
        r_mle = estimating_residual(EstimatorKind.MLE, BERNOULLI, [0.4], SAMPLE_7)
        r = estimating_residual(kind, BERNOULLI, [0.4], SAMPLE_7, alpha=1.0)
        assert np.array_equal(r, r_mle)

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_alpha_near_one_within_order_h(self, kind):
        r_mle = estimating_residual(EstimatorKind.MLE, BERNOULLI, [0.4], SAMPLE_7)
        for h in (1e-3, 1e-4):
            r = estimating_residual(kind, BERNOULLI, [0.4], SAMPLE_7, alpha=1.0 + h)
            assert np.max(np.abs(r - r_mle)) <= 5.0 * h

    def test_jones_zero_at_exact_model_frequencies(self):
        # empirical measure equal to the member at theta0 = 0 (the reference)
        q = Distribution(Alphabet.of_size(4), [0.1, 0.2, 0.3, 0.4])
        spec = FamilySpec(FamilyKind.ALPHA_POWER_LAW, q, np.array([[0.0, 1.0, 2.0, 0.5]]), alpha=2.0)
        sample = SampleData.from_counts([1, 2, 3, 4], q.alphabet)
        r = estimating_residual(EstimatorKind.JONES, spec, [0.0], sample)
        assert np.max(np.abs(r)) <= 1e-10


class TestSolvers:
    def test_mle_bernoulli_closed_form(self):
        rep = solve_estimating_equation(EstimatorKind.MLE, BERNOULLI, SAMPLE_7)
        assert rep.theta_star[0] == pytest.approx(np.log(7.0 / 3.0), abs=1e-10)
        assert np.allclose(rep.p_star.probs, [0.3, 0.7], atol=1e-10)

    def test_basu_alpha2_moment_match_and_closed_form(self):
        spec = FamilySpec(
            FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, Distribution(AB, [0.5, 0.5]), np.array([[0.0, 1.0]]), alpha=2.0
        )
        sample = SampleData.from_counts([4, 6], AB)  # fbar = 0.6
        rep = solve_estimating_equation(EstimatorKind.BASU, spec, sample)
        assert (spec.f @ rep.p_star.probs).item() == pytest.approx(0.6, abs=1e-10)
        # linear closed form: P = Q - Z - theta f with E[f] = 0.6
        assert rep.theta_star[0] == pytest.approx(-0.2, abs=1e-9)
        _, z = member_with_normalizer(spec, rep.theta_star)
        assert z == pytest.approx(0.1, abs=1e-9)

    def test_jones_matches_fine_grid_oracle(self):
        spec, theta0, sample = matched_instance(EstimatorKind.JONES, seed=3, m=3)
        rep = solve_estimating_equation(EstimatorKind.JONES, spec, sample)
        from divproj.divergences import rel_alpha_entropy

        grid = np.arange(rep.theta_star[0] - 0.05, rep.theta_star[0] + 0.05, 1e-4)
        vals = []
        for t in grid:
            try:
                vals.append(rel_alpha_entropy(sample.empirical, eval_member(spec, [t]), spec.alpha))
            except Exception:
                vals.append(np.inf)
        best = grid[int(np.argmin(vals))]
        assert abs(best - rep.theta_star[0]) <= 1e-4

    def test_trace_norms_non_increasing_tail(self):
        rep = solve_estimating_equation(EstimatorKind.MLE, BERNOULLI, SAMPLE_7)
        norms = [n for _, n in rep.trace]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_routes_agree(self, kind):
        for seed in (11, 12):
            spec, theta0, sample = matched_instance(kind, seed=seed)
            eq = solve_estimating_equation(kind, spec, sample)
            lik = maximize_likelihood(kind, spec, sample)
            assert np.max(np.abs(eq.theta_star - lik.theta_star)) <= 1e-6
            # first-order cross-check at the likelihood maximum
            r = estimating_residual(kind, spec, lik.theta_star, sample)
            assert np.max(np.abs(r)) <= 1e-8

    def test_degenerate_sample_has_no_maximizer(self):
        degenerate = SampleData.from_counts([0, 5], AB)
        with pytest.raises(NoConvergence):
            maximize_likelihood(EstimatorKind.MLE, BERNOULLI, degenerate)

    def test_unmatched_pair_is_labelled(self):
        rep = solve_estimating_equation(EstimatorKind.BASU, BERNOULLI, SAMPLE_7, alpha=2.0)
        assert rep.note == "unmatched pair, no equivalence guarantee"
        assert not is_matched_pair(EstimatorKind.BASU, BERNOULLI)


class TestFdJacobian:
    """One central stencil per coordinate; the first inadmissible stencil
    point ends the Jacobian."""

    A = np.array([[1.0, 2.0, 0.5], [-1.0, 0.0, 3.0]])

    def counting(self, calls, edge=np.inf):
        def residual(theta):
            calls.append(np.array(theta))
            if theta[1] > edge:
                raise DomainViolation("outside the region")
            return self.A @ theta

        return residual

    def test_two_calls_per_coordinate(self):
        calls = []
        theta = np.array([0.1, -0.2, 0.3])
        jac = fd_jacobian(self.counting(calls), theta, self.A @ theta)
        assert len(calls) == 2 * theta.size
        assert np.allclose(jac, self.A, atol=1e-8)

    def test_inadmissible_plus_point_raises_without_retry(self):
        # h = 1.5e-6 at theta_1 = 0.5: theta_1 + h leaves the region, and a
        # quarter step would not
        calls = []
        theta = np.array([0.1, 0.5, 0.3])
        residual = self.counting(calls, edge=0.5 + 1e-6)
        with pytest.raises(DomainViolation, match="coordinate 1"):
            fd_jacobian(residual, theta, self.A @ theta)
        # coordinate 0's two points, then coordinate 1's +h point
        assert len(calls) == 3 and calls[-1][1] > 0.5 + 1e-6


FAMILY_ALPHA = {MATCHED_FAMILY[kind]: alpha for kind, alpha in ALPHA_OF_KIND.items()}


class TestResidualIsLikelihoodGradient:
    """The estimating residual is a positive multiple of the gradient of the
    kind's likelihood, on every family kind and at any alpha; the estimating
    route's line search relies on it."""

    @pytest.mark.parametrize("other_alpha", [False, True], ids=["spec_alpha", "other_alpha"])
    @pytest.mark.parametrize("family_kind", list(FamilyKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
    def test_positive_multiple(self, kind, family_kind, other_alpha):
        rng = rng_of(700 + 10 * list(EstimatorKind).index(kind) + list(FamilyKind).index(family_kind))
        spec = random_family(rng, family_kind, m=4, k=2, alpha=FAMILY_ALPHA[family_kind], f_scale=0.6)
        alpha = 1.5 if other_alpha else None
        sample = sample_from(spec, random_admissible_theta(rng, spec), 40, rng)
        theta = random_admissible_theta(rng, spec)
        r = estimating_residual(kind, spec, theta, sample, alpha=alpha)
        grad = np.empty(2)
        for j in range(2):
            h = np.zeros(2)
            h[j] = 1e-5
            grad[j] = (
                likelihood(kind, spec, theta + h, sample, alpha=alpha)
                - likelihood(kind, spec, theta - h, sample, alpha=alpha)
            ) / 2e-5
        ratio = float(grad @ r) / float(r @ r)
        assert ratio > 0.0
        assert np.max(np.abs(grad - ratio * r)) <= 1e-6 * np.max(np.abs(grad))


class TestEstimatingRouteStart:
    """Criterion 10's Jones family: on the ||r||^2 merit alone, Newton from 0
    walks off toward theta = -16, where the residual flattens along a ray;
    from -5 the likelihood is flat, and small ascent steps would crawl.  Both
    routes on the likelihood-guarded Newton run."""

    A4 = Alphabet.of_size(4)
    SPEC = FamilySpec(
        FamilyKind.ALPHA_POWER_LAW, Distribution(A4, [0.1, 0.2, 0.3, 0.4]), np.array([[0.0, 1.0, 2.0, 3.0]]), alpha=2.0
    )

    @pytest.mark.parametrize("solver", [solve_estimating_equation, maximize_likelihood])
    @pytest.mark.parametrize("counts", [[4, 3, 2, 3], [5, 1, 3, 3]])
    @pytest.mark.parametrize("init", [None, [-0.5], [-5.0]])
    def test_one_run_from_the_callers_start(self, init, counts, solver):
        sample = SampleData.from_counts(counts, self.A4)
        rep = solver(EstimatorKind.JONES, self.SPEC, sample, init=init)
        assert rep.theta_star[0] == pytest.approx(1.0 / 9.0, abs=1e-10)
        start = np.zeros(1) if init is None else np.asarray(init)
        assert np.array_equal(rep.trace[0][0], start)

    @pytest.mark.parametrize("solver", [solve_estimating_equation, maximize_likelihood])
    def test_inadmissible_start_is_an_error(self, solver):
        sample = SampleData.from_counts([4, 3, 2, 3], self.A4)
        with pytest.raises(NoConvergence, match="inadmissible") as err:
            solver(EstimatorKind.JONES, self.SPEC, sample, init=[5.0])
        assert np.array_equal(err.value.best_theta, [5.0])


class TestHellingerJonesEquivalence:
    """Solving the Hellinger equation on an alpha-exponential family is the
    same problem as solving the Jones equation on the escorted power-law
    family at the mapped parameter."""

    def test_residual_equivalence(self):
        from divproj.measures import escort as escort_measure

        rng = rng_of(101)
        alpha = 0.5
        spec = random_family(rng, FamilyKind.ALPHA_EXPONENTIAL, m=3, k=1, alpha=alpha, f_scale=0.6)
        theta0 = random_admissible_theta(rng, spec, scale=0.2)
        sample = sample_from(spec, theta0, 300, rng)
        assert sample.empirical.is_strictly_positive()
        rep = solve_estimating_equation(EstimatorKind.HELLINGER, spec, sample, alpha=alpha)
        mapped_spec = escort_family_spec(spec)
        mapped_theta = escort_parameter_map(rep.theta_star, spec.q, alpha)
        # the escorted empirical measure drives the mapped problem; it is not
        # realizable by a finite sample, so it is passed as a bare measure
        ph_escort = escort_measure(sample.empirical, alpha)
        r = estimating_residual(EstimatorKind.JONES, mapped_spec, mapped_theta, ph_escort)
        assert np.max(np.abs(r)) <= 1e-8
        # both residuals are nonzero away from the solution
        for t in np.linspace(-0.15, 0.15, 10):
            theta = rep.theta_star + t
            if abs(t) < 1e-3:
                continue
            r1 = estimating_residual(EstimatorKind.HELLINGER, spec, theta, sample)
            r2 = estimating_residual(
                EstimatorKind.JONES, mapped_spec, escort_parameter_map(theta, spec.q, alpha), ph_escort
            )
            assert np.max(np.abs(r1)) > 1e-7
            assert np.max(np.abs(r2)) > 1e-7


class TestLikelihoodStencil:
    """The likelihood route scores each iteration's whole stencil in one
    batch, and its five-point gradient is accurate far below the 1e-10
    stop rule."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("kind", ROBUST_KINDS, ids=lambda k: k.value)
    def test_stencil_gradient_matches_the_analytic_gradient(self, kind, k):
        for seed in range(5):
            spec, _, sample = matched_instance(kind, seed=800 + seed, m=3 + k, k=k)
            theta = random_admissible_theta(rng_of(seed), spec, scale=0.2)
            r = estimating_residual(kind, spec, theta, sample)
            if kind is EstimatorKind.HELLINGER:
                # the residual is S times the gradient, S = sum Ph^a P^(1-a)
                p, ph, a = eval_member(spec, theta).probs, sample.empirical.probs, spec.alpha
                analytic = r / np.sum(ph**a * p ** (1.0 - a))
            else:
                analytic = spec.alpha * r
            g = _gradient(_likelihood_at_rows(kind, spec, sample), theta)
            assert np.max(np.abs(g - analytic)) <= 1e-11

    @pytest.mark.parametrize(
        "kind, seed, k",
        [(kind, 11, 2) for kind in EstimatorKind] + [(EstimatorKind.MLE, 10, 1), (EstimatorKind.BASU, 11, 1)],
        ids=lambda v: getattr(v, "value", str(v)),
    )
    def test_one_batch_per_iteration_and_no_scalar_likelihood(self, kind, seed, k, monkeypatch):
        spec, _, sample = matched_instance(kind, seed=seed, m=2 + k, k=k)
        batches, scalar = [], []
        batch = estimators.eval_members_batch

        def counting_batch(spec, thetas):
            batches.append(len(thetas))
            return batch(spec, thetas)

        monkeypatch.setattr(estimators, "eval_members_batch", counting_batch)
        monkeypatch.setattr(estimators, "likelihood", lambda *a, **kw: scalar.append(a))
        rep = maximize_likelihood(kind, spec, sample)
        # a gradient's whole 6k-row stencil, one coordinate's shrunk 6-row
        # stencil, or one row: a likelihood value
        assert all(n in (6 * k, 6, 1) for n in batches)
        # each iteration forms the gradient at its 2k Jacobian points and at
        # one trial point at least
        assert batches.count(6 * k) >= (2 * k + 1) * rep.iterations
        assert scalar == []


class TestUnderflowIsNumeric:
    """A trial point whose member underflows to an exact 0 is outside the
    domain, not an input error."""

    @pytest.mark.parametrize("solver", [solve_estimating_equation, maximize_likelihood])
    def test_far_start_is_no_convergence(self, solver):
        with pytest.raises(NoConvergence):
            solver(EstimatorKind.MLE, BERNOULLI, SAMPLE_7, init=[800.0])
