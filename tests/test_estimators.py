import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divproj.divergences import DivergenceKind, density_power
from divproj import estimators, projection, solvers
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
    _estimating_rows,
    _gradient,
    _likelihood_at_rows,
    _score_rows,
)
from divproj.families import (
    FamilyKind,
    FamilySpec,
    escort_family_map,
    escort_family_spec,
    escort_parameter_map,
    _at_rows,
    eval_member,
    eval_members_batch,
    is_admissible,
    member_with_normalizer,
)
from divproj.measures import ROW_LOOP_MIN, Alphabet, Distribution, SampleData, empirical
from divproj.projection import _projection_rows, projection_residual, solve_projection_equation
from divproj.solvers import FD_STEP, THETA_CAP, fd_jacobian, solve_residual

from conftest import (
    MATCHED_DIVERGENCE,
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
    """One call on the 2k central stencil rows, +h then -h for each
    coordinate; the first inadmissible stencil row names its coordinate."""

    A = np.array([[1.0, 2.0, 0.5], [-1.0, 0.0, 3.0]])

    def counting(self, calls, edge=np.inf):
        def residual_rows(thetas):
            calls.append(np.array(thetas))
            r = thetas @ self.A.T
            r[thetas[:, 1] > edge] = np.nan  # outside the region
            return r

        return residual_rows

    def test_one_call_on_the_2k_stencil_rows(self):
        calls = []
        theta = np.array([0.1, -0.2, 0.3])
        jac = fd_jacobian(self.counting(calls), theta)
        h = FD_STEP * (1.0 + np.abs(theta))
        stencil = [theta + sign * h[j] * np.eye(3)[j] for j in range(3) for sign in (1.0, -1.0)]
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.array(stencil))
        assert np.allclose(jac, self.A, atol=1e-8)

    def test_inadmissible_plus_point_raises_without_retry(self):
        # h = 1.5e-6 at theta_1 = 0.5: theta_1 + h leaves the region, and a
        # quarter step would not
        calls = []
        theta = np.array([0.1, 0.5, 0.3])
        residual = self.counting(calls, edge=0.5 + 1e-6)
        with pytest.raises(DomainViolation, match="coordinate 1"):
            fd_jacobian(residual, theta)
        # the one stencil call, whose row 2 is coordinate 1's +h point
        assert len(calls) == 1 and calls[0][2, 1] > 0.5 + 1e-6


class TestSolverStops:
    """The driver's two fallbacks, reached through its public interface."""

    # full-mix seed 3, op 5 of the estimate benchmark: Hellinger at alpha =
    # 0.5 on a sample with an empty symbol, whose optimum lies past the edge
    # of the admissible region; every route walks up to the edge
    EDGE_Q = Distribution(Alphabet.of_size(3), [0.1549912562575419, 0.7950087437424582, 0.05])
    EDGE_F = np.array([[-0.12581369045281757, -0.2993589922893146, 0.4251726827421322]])

    @pytest.mark.parametrize("route", ["equation", "projection", "likelihood"])
    def test_a_stencil_past_the_edge_stops_the_run(self, route):
        spec = FamilySpec(FamilyKind.ALPHA_EXPONENTIAL, self.EDGE_Q, self.EDGE_F, alpha=0.5)
        sample = SampleData.from_counts([3, 27, 0], spec.alphabet)
        solve = {
            "equation": lambda: solve_estimating_equation(EstimatorKind.HELLINGER, spec, sample),
            "projection": lambda: solve_projection_equation(DivergenceKind.RENYI, spec, sample),
            "likelihood": lambda: maximize_likelihood(EstimatorKind.HELLINGER, spec, sample),
        }[route]
        with pytest.raises(NoConvergence, match="the Jacobian stencil left the admissible region") as err:
            solve()
        assert is_admissible(spec, err.value.best_theta)
        assert err.value.best_residual > 1e-10

    def test_a_singular_jacobian_takes_the_least_squares_step(self):
        # both residuals are theta_0 + theta_1 - 1: the Jacobian's rows are
        # equal, np.linalg.solve refuses it, and the minimum-norm step from 0
        # lands on (1/2, 1/2)
        def residual_rows(thetas):
            r = thetas.sum(axis=1) - 1.0
            return np.stack([r, r], axis=1)

        rep = solve_residual(residual_rows, 2)
        assert rep.iterations == 1
        assert np.allclose(rep.theta_star, [0.5, 0.5], atol=1e-12)


class TestJacobianCalls:
    """Each route's Jacobian is one call of its row residual on the 2k
    stencil rows; every other call of the driver is one row, a trial point."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("route", ["equation", "projection", "likelihood"])
    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
    def test_each_jacobian_is_one_kernel_call(self, kind, route, k, monkeypatch):
        spec, _, sample = matched_instance(kind, seed=31, m=2 + k, k=k)
        calls, jacobians = [], []
        solve, jacobian = solvers.solve_residual, solvers.fd_jacobian

        def counted(log, residual_rows):
            def rows(thetas):
                log.append(len(thetas))
                return residual_rows(thetas)

            return rows

        def solve_counted(residual_rows, *args, **kwargs):
            return solve(counted(calls, residual_rows), *args, **kwargs)

        def jacobian_counted(residual_rows, theta):
            jacobians.append([])
            return jacobian(counted(jacobians[-1], residual_rows), theta)

        for module in (estimators, projection):
            monkeypatch.setattr(module, "solve_residual", solve_counted)
        monkeypatch.setattr(solvers, "fd_jacobian", jacobian_counted)
        rep = {
            "equation": lambda: solve_estimating_equation(kind, spec, sample),
            "projection": lambda: solve_projection_equation(MATCHED_DIVERGENCE[kind], spec, sample),
            "likelihood": lambda: maximize_likelihood(kind, spec, sample),
        }[route]()
        assert rep.iterations >= 1
        assert jacobians == [[2 * k]] * rep.iterations
        assert calls.count(2 * k) == rep.iterations
        assert all(n in (1, 2 * k) for n in calls)


class TestRowKernels:
    """Every route's row kernel scores a row of a batch as its one-row call
    does, bit for bit, on any statistics and batches of any size: the
    member, the scores, the estimating and projection residuals, the
    likelihood and its stencil gradient.  The public scalars are the
    one-row cases, and raise the member's own error where a row is NaN."""

    ESTIMATOR = {family: kind for kind, family in MATCHED_FAMILY.items()}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(list(FamilyKind)),
        alpha=st.sampled_from([0.5, 1.5, 3.0]),
        k=st.integers(1, 3),
        extra=st.integers(1, 2),
        n=st.one_of(st.integers(1, 12), st.integers(ROW_LOOP_MIN - 4, 300)),
        spread=st.sampled_from([0.3, 3.0]),
        seed=st.integers(0, 2**16),
    )
    def test_batch_rows_are_one_row_calls(self, family, alpha, k, extra, n, spread, seed):
        rng = rng_of(seed)
        spec = random_family(rng, family, m=k + 1 + extra, k=k, alpha=alpha, f_scale=0.8)
        counts = rng.integers(0, 6, size=spec.q.m)
        counts[0] += 1
        sample = SampleData.from_counts(counts, spec.alphabet)
        kind = self.ESTIMATOR[family]
        thetas = rng.normal(scale=spread, size=(n, k))
        probs, ok = eval_members_batch(spec, thetas)
        kernels = {
            "scores": (
                lambda rows: _at_rows(spec, rows, lambda pv, z: _score_rows(spec, pv, z)),
                lambda t: score_matrix(spec, t),
            ),
            "estimating": (_estimating_rows(kind, spec, sample), lambda t: estimating_residual(kind, spec, t, sample)),
            "projection": (
                _projection_rows(MATCHED_DIVERGENCE[kind], spec, sample),
                lambda t: projection_residual(MATCHED_DIVERGENCE[kind], spec, t, sample),
            ),
            "likelihood": (_likelihood_at_rows(kind, spec, sample), lambda t: likelihood(kind, spec, t, sample)),
        }
        batches = {name: rows(thetas) for name, (rows, _) in kernels.items()}
        for i, theta in enumerate(thetas):
            one, one_ok = eval_members_batch(spec, theta[None, :])
            assert one_ok[0] == ok[i]
            assert np.array_equal(probs[i], one[0], equal_nan=True)
            for name, (_, scalar) in kernels.items():
                assert np.isnan(batches[name][i]).any() == (not ok[i]), name
                if ok[i]:
                    assert np.array_equal(batches[name][i], scalar(theta)), name
                else:
                    with pytest.raises((DomainViolation, NormalizerNotFound)):
                        scalar(theta)
        # the likelihood route's kernel, on a few rows: its one-row calls
        # have no public scalar of their own
        values = kernels["likelihood"][0]
        head = thetas[:5]
        grads = _gradient(values, head)
        for i, theta in enumerate(head):
            assert np.array_equal(grads[i], _gradient(values, theta[None, :])[0], equal_nan=True)


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


class TestSolverBox:
    """A trial point outside |theta| <= THETA_CAP is inadmissible, so a long
    Newton step from a far start halves back into the box, and a run the
    box stops names it."""

    @pytest.mark.parametrize("solver", [solve_estimating_equation, maximize_likelihood])
    def test_supremum_at_infinity_names_the_box(self, solver):
        degenerate = SampleData.from_counts([0, 10], AB)
        with pytest.raises(NoConvergence, match=r"solver box \|theta\| <= 15 \(a supremum") as err:
            solver(EstimatorKind.MLE, BERNOULLI, degenerate)
        assert 14.0 < err.value.best_theta[0] <= THETA_CAP

    @pytest.mark.parametrize("solver", [solve_estimating_equation, maximize_likelihood])
    def test_far_start_converges_inside_the_box(self, solver):
        # a full Newton step from this start lands far outside the box
        rng = rng_of(9001)
        spec = random_family(rng, FamilyKind.EXPONENTIAL, m=4, k=2)
        sample = sample_from(spec, random_admissible_theta(rng, spec), 200, rng)
        start = rng.uniform(-6.0, 6.0, 2)
        assert np.allclose(start, [0.251, -5.938], atol=1e-3)
        rep = solver(EstimatorKind.MLE, spec, sample, init=start)
        ref = solver(EstimatorKind.MLE, spec, sample)
        assert np.max(np.abs(rep.theta_star - ref.theta_star)) <= 1e-8
        assert all(np.max(np.abs(theta)) <= THETA_CAP for theta, _ in rep.trace)


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
            g = _gradient(_likelihood_at_rows(kind, spec, sample), theta[None, :])[0]
            assert np.max(np.abs(g - analytic)) <= 1e-11

    @pytest.mark.parametrize(
        "kind, seed, k",
        [(kind, 11, 2) for kind in EstimatorKind] + [(EstimatorKind.MLE, 10, 1), (EstimatorKind.BASU, 11, 1)],
        ids=lambda v: getattr(v, "value", str(v)),
    )
    def test_one_batch_per_iteration_and_no_scalar_likelihood(self, kind, seed, k, monkeypatch):
        spec, _, sample = matched_instance(kind, seed=seed, m=2 + k, k=k)
        batches, scalar = [], []
        batch = estimators._at_rows

        def counting_batch(spec, thetas, formula):
            batches.append(len(thetas))
            return batch(spec, thetas, formula)

        monkeypatch.setattr(estimators, "_at_rows", counting_batch)
        monkeypatch.setattr(estimators, "likelihood", lambda *a, **kw: scalar.append(a))
        rep = maximize_likelihood(kind, spec, sample)
        # the gradients at a Jacobian's 2k stencil rows (12k^2 rows), a trial
        # point's gradient (6k rows), one coordinate's shrunk 6-row stencil,
        # or one row: a likelihood value
        assert all(n in (12 * k * k, 6 * k, 6, 1) for n in batches)
        # each iteration forms one Jacobian and the gradient at one trial
        # point at least
        assert batches.count(12 * k * k) == rep.iterations
        assert batches.count(6 * k) >= rep.iterations
        assert scalar == []


class TestUnderflowIsNumeric:
    """A trial point whose member underflows to an exact 0 is outside the
    domain, not an input error."""

    @pytest.mark.parametrize("solver", [solve_estimating_equation, maximize_likelihood])
    def test_far_start_is_no_convergence(self, solver):
        with pytest.raises(NoConvergence):
            solver(EstimatorKind.MLE, BERNOULLI, SAMPLE_7, init=[800.0])
