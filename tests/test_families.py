import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divproj.errors import (
    DomainViolation,
    InfeasibleError,
    InvalidDistribution,
    NormalizerNotFound,
)
from divproj import families
from divproj.families import (
    HALFSPACE_SLACK,
    FamilyKind,
    FamilySpec,
    LinearFamilySpec,
    admissible_halfspaces,
    escort_family_map,
    escort_family_spec,
    escort_parameter_map,
    eval_member,
    eval_members_batch,
    fit_family_form,
    is_admissible,
    member_with_normalizer,
    membership_residual,
    normalizer_root,
    theta_of_member,
    _normalizer_rows,
)
from divproj.divergences import DivergenceKind
from divproj.measures import Alphabet, Distribution, SampleData, escort
from divproj.oracle import ThetaGrid, grid_reverse_min

from conftest import random_admissible_theta, random_distribution, random_family, rng_of

AB = Alphabet(("a", "b"))
Q_UNIFORM2 = Distribution(AB, [0.5, 0.5])
F_COUNT = np.array([[0.0, 1.0]])

ALL_KINDS = list(FamilyKind)


def spec_of(kind, alpha=2.0, m=3, seed=1, k=1, f_scale=1.0):
    return random_family(rng_of(seed), kind, m=m, k=k, alpha=alpha, f_scale=f_scale)


class TestEvalMember:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_theta_zero_returns_reference(self, kind):
        spec = spec_of(kind)
        p = eval_member(spec, np.zeros(spec.theta_dim))
        assert np.max(np.abs(p.probs - spec.q.probs)) <= 1e-14

    def test_bernoulli_logit(self):
        spec = FamilySpec(FamilyKind.EXPONENTIAL, Q_UNIFORM2, F_COUNT)
        p = eval_member(spec, [np.log(3.0)])
        assert np.allclose(p.probs, [0.25, 0.75], atol=1e-15)

    def test_power_law_alpha2_at_zero_is_reference(self):
        q = Distribution(Alphabet.of_size(3), [0.2, 0.3, 0.5])
        spec = FamilySpec(FamilyKind.ALPHA_POWER_LAW, q, np.array([[0.0, 1.0, 2.0]]), alpha=2.0)
        p, z = member_with_normalizer(spec, [0.0])
        assert np.allclose(p.probs, q.probs, atol=1e-15)
        assert z == pytest.approx(1.0, abs=1e-15)

    def test_domain_violation_names_symbols(self):
        q = Distribution(Alphabet.of_size(3), [0.2, 0.3, 0.5])
        spec = FamilySpec(FamilyKind.ALPHA_POWER_LAW, q, np.array([[0.0, 1.0, 2.0]]), alpha=2.0)
        with pytest.raises(DomainViolation) as err:
            eval_member(spec, [1.0])  # bracket at x2: 0.5 - 2 < 0
        assert "x2" in err.value.symbols

    def test_members_sum_to_one(self, rng):
        for kind in ALL_KINDS:
            for alpha in (0.5, 2.0, 3.0):
                spec = random_family(rng, kind, m=4, k=2, alpha=alpha)
                theta = random_admissible_theta(rng, spec)
                p = eval_member(spec, theta)
                assert abs(p.probs.sum() - 1.0) <= 1e-12


class TestNormalizerRoot:
    def nn_spec(self, alpha=2.0):
        return FamilySpec(
            FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, Q_UNIFORM2, F_COUNT, alpha=alpha
        )

    def test_zero_theta_zero_normalizer(self):
        assert normalizer_root(self.nn_spec(), [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_alpha2_closed_form(self):
        # at alpha=2 the bracket is linear: P(x) = Q(x) - Z - 0.1 f(x), so
        # sum = 1 forces Z = -0.05 and P = (0.55, 0.45)
        spec = self.nn_spec()
        p, z = member_with_normalizer(spec, [0.1])
        assert z == pytest.approx(-0.05, abs=1e-12)
        assert np.allclose(p.probs, [0.55, 0.45], atol=1e-12)

    def test_no_normalizer_for_large_tilt(self):
        with pytest.raises((NormalizerNotFound, DomainViolation)):
            member_with_normalizer(self.nn_spec(), [2.0])

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_mass_is_one(self, alpha, rng):
        for _ in range(10):
            spec = random_family(rng, FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, m=4, alpha=alpha, f_scale=0.5)
            theta = random_admissible_theta(rng, spec, scale=0.2)
            z = normalizer_root(spec, theta)
            from divproj.families import bracket_values

            mass = np.sum(bracket_values(spec, theta, z) ** (1.0 / (alpha - 1.0)))
            assert abs(mass - 1.0) <= 1e-12


class TestEscortCorrespondence:
    def test_parameter_map_zero(self):
        assert escort_parameter_map([0.0], Q_UNIFORM2, 2.0) == pytest.approx([0.0])

    def test_parameter_map_uniform(self):
        got = escort_parameter_map([1.0], Q_UNIFORM2, 2.0)
        assert got[0] == pytest.approx(-1.4142135623730951, abs=1e-14)

    def test_parameter_map_skew(self):
        q = Distribution(AB, [0.25, 0.75])
        got = escort_parameter_map([0.3], q, 2.0)
        assert got[0] == pytest.approx(-0.4743416490252569, abs=1e-14)

    def test_zero_maps_to_escort_of_reference(self):
        spec = spec_of(FamilyKind.ALPHA_EXPONENTIAL, alpha=2.0)
        image, theta_prime = escort_family_map(spec, np.zeros(spec.theta_dim))
        assert np.allclose(image.probs, escort(spec.q, 2.0).probs)
        assert np.allclose(theta_prime, 0.0)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_bijection_on_random_instances(self, alpha, rng):
        for _ in range(17):
            spec = random_family(rng, FamilyKind.ALPHA_EXPONENTIAL, m=3, k=1, alpha=alpha)
            theta = random_admissible_theta(rng, spec, scale=0.25)
            image, theta_prime = escort_family_map(spec, theta)
            mapped = escort_family_spec(spec)
            direct = eval_member(mapped, theta_prime)
            assert np.max(np.abs(image.probs - direct.probs)) <= 1e-9
            # round trip recovers the original member
            back = escort(image, 1.0 / alpha)
            original = eval_member(spec, theta)
            assert np.max(np.abs(back.probs - original.probs)) <= 1e-10

    def test_injectivity_spot_check(self, rng):
        spec = spec_of(FamilyKind.ALPHA_EXPONENTIAL, alpha=2.0)
        img1, _ = escort_family_map(spec, [0.1])
        img2, _ = escort_family_map(spec, [0.2])
        assert np.max(np.abs(img1.probs - img2.probs)) > 1e-6


class TestMembership:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_members_fit_exactly(self, kind, rng):
        spec = random_family(rng, kind, m=4, k=2, alpha=2.0)
        theta = random_admissible_theta(rng, spec)
        p = eval_member(spec, theta)
        assert membership_residual(spec, p) <= 1e-10
        assert membership_residual(spec, spec.q) <= 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_perturbed_member_fails(self, kind, rng):
        spec = random_family(rng, kind, m=4, k=1, alpha=2.0)
        theta = random_admissible_theta(rng, spec)
        p = eval_member(spec, theta)
        shifted = p.probs.copy()
        shifted[0] += 0.05
        shifted[-1] -= 0.05
        if np.any(shifted <= 0):
            shifted = np.abs(shifted)
            shifted /= shifted.sum()
        perturbed = Distribution(spec.alphabet, shifted / shifted.sum(), strict=True)
        assert membership_residual(spec, perturbed) > 1e-4

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_distribution_with_a_zero_is_no_member(self, kind):
        spec = FamilySpec(kind, Q_UNIFORM2, F_COUNT, alpha=2.0)
        assert membership_residual(spec, Distribution(AB, [0.0, 1.0], strict=False)) == np.inf

    def test_theta_recovery(self, rng):
        for kind in ALL_KINDS:
            spec = random_family(rng, kind, m=4, k=2, alpha=0.5)
            theta = random_admissible_theta(rng, spec, scale=0.2)
            p = eval_member(spec, theta)
            assert np.max(np.abs(theta_of_member(spec, p) - theta)) <= 1e-8


class TestRebasing:
    """Any member can act as the reference: re-basing the family at P_theta0
    reproduces the same set of distributions under an affine parameter map."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rebased_family_is_same_set(self, kind, rng):
        alpha = 2.0
        spec = random_family(rng, kind, m=3, k=1, alpha=alpha, f_scale=0.5)
        theta0 = random_admissible_theta(rng, spec, scale=0.15)
        p0, z0 = member_with_normalizer(spec, theta0)
        rebased = FamilySpec(kind, p0, spec.f, alpha=spec.alpha)
        for t in np.linspace(-0.1, 0.1, 7):
            theta = theta0 + t
            if not is_admissible(spec, theta):
                continue
            if kind in (FamilyKind.EXPONENTIAL, FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW):
                eta = np.atleast_1d(t)
            elif kind is FamilyKind.ALPHA_POWER_LAW:
                eta = np.atleast_1d(t) * z0 ** (1.0 - alpha)
            else:
                eta = np.atleast_1d(t) * z0 ** (alpha - 1.0)
            if not is_admissible(rebased, eta):
                continue
            lhs = eval_member(spec, theta)
            rhs = eval_member(rebased, eta)
            assert np.max(np.abs(lhs.probs - rhs.probs)) <= 1e-9


class TestSpecValidation:
    def test_dependent_rows_rejected(self):
        q = Distribution(Alphabet.of_size(3), [0.2, 0.3, 0.5])
        f = np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 4.0]])
        with pytest.raises(InvalidDistribution):
            FamilySpec(FamilyKind.EXPONENTIAL, q, f)

    def test_power_law_reference_dependence_rejected(self):
        q = Distribution(Alphabet.of_size(3), [0.2, 0.3, 0.5])
        f = q.probs[None, :].copy()  # f spans Q^(alpha-1) at alpha=2
        with pytest.raises(InvalidDistribution):
            FamilySpec(FamilyKind.ALPHA_POWER_LAW, q, f, alpha=2.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_statistic_absorbed_by_normalization_rejected(self, kind):
        # Z absorbs a constant tilt (exponential, non-normalized kinds) or a
        # multiple of the reference bracket (the other two), so theta could
        # not be identified
        q = Distribution(Alphabet.of_size(3), [0.2, 0.3, 0.5])
        absorbed = {
            FamilyKind.ALPHA_POWER_LAW: q.probs,
            FamilyKind.ALPHA_EXPONENTIAL: q.probs ** -1.0,
        }.get(kind, np.ones(3))
        f = np.vstack([[0.0, 1.0, -1.0], 2.0 * absorbed + np.array([0.0, 1.0, -1.0])])
        with pytest.raises(InvalidDistribution, match="identifiable"):
            FamilySpec(kind, q, f, alpha=2.0)

    def test_non_strict_reference_rejected(self):
        q = Distribution(AB, [0.0, 1.0], strict=False)
        with pytest.raises(InvalidDistribution):
            FamilySpec(FamilyKind.EXPONENTIAL, q, F_COUNT)


class TestBatchEval:
    # the member at theta = -0.44 has min probability 0.0079: its normalizer
    # sits close to the edge of the admissible interval
    NEAR_EDGE = FamilySpec(
        FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW,
        Distribution(AB, [0.09, 0.91]),
        np.array([[-0.14, -1.08]]),
        alpha=5.0,
    )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_batch_matches_scalar(self, kind, rng):
        for alpha in (2.0, 0.5, 5.0):
            spec = random_family(rng, kind, m=3, k=1, alpha=alpha, f_scale=0.5)
            self.check_batch_matches_scalar(spec, np.linspace(-0.6, 0.6, 41)[:, None])

    def test_near_edge_normalizer(self):
        self.check_batch_matches_scalar(self.NEAR_EDGE, np.array([[-0.44], [-0.45], [-0.43]]))
        assert is_admissible(self.NEAR_EDGE, [-0.44])

    def check_batch_matches_scalar(self, spec, thetas):
        probs, ok = eval_members_batch(spec, thetas)
        for i, theta in enumerate(thetas):
            if is_admissible(spec, theta):
                assert ok[i]
                expected = eval_member(spec, theta)
                assert np.max(np.abs(probs[i] - expected.probs)) <= 1e-9
            else:
                assert not ok[i]


class TestLinearFamily:
    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleError):
            LinearFamilySpec(np.array([[0.0, 1.0, 2.0]]), np.array([5.0]))

    def test_support_full_for_interior_target(self):
        lin = LinearFamilySpec(np.array([[0.0, 1.0, 2.0]]), np.array([1.2]))
        assert np.all(lin.support_mask())

    def test_support_detects_forced_zero(self):
        # P(x0) = 0 is forced by the constraint indicator(x0) . P = 0
        lin = LinearFamilySpec(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]))
        assert not lin.support_mask()[0]
        assert np.all(lin.support_mask()[1:])

    def test_sample_member_lies_on_family(self, rng):
        for _ in range(10):
            p0 = random_distribution(rng, 4)
            f = rng.uniform(-1, 1, size=(2, 4))
            lin = LinearFamilySpec(f, f @ p0.probs, alphabet=p0.alphabet)
            member = lin.sample_member(rng)
            assert lin.contains(member, tol=1e-10)


class TestNormalizerRows:
    """The vectorized normalizer iterates only the rows that have not
    converged; each row's arithmetic is that of its one-row call."""

    SPEC_Q = Distribution(Alphabet.of_size(3), [0.2, 0.3, 0.5])
    SPEC_F = np.array([[0.3, -0.5, 0.2], [-0.4, 0.1, 0.3]])

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
    def test_rows_are_bit_identical_to_one_row_calls(self, alpha):
        spec = FamilySpec(FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, self.SPEC_Q, self.SPEC_F, alpha=alpha)
        axis = np.linspace(-2.0, 2.0, 41)
        thetas = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        tilt = families._tilt(spec, thetas)
        z, found, has_root, lo, hi = _normalizer_rows(spec, tilt)
        assert np.any(found)
        if alpha > 1.0:
            # the grid reaches the admissibility edge: rootless rows, and rows
            # whose root sits within 1e-3 of the edge (hi)
            assert np.any(~has_root)
            assert np.any(found & (hi - z < 1e-3))
        for i, theta in enumerate(thetas):
            one = _normalizer_rows(spec, tilt[i : i + 1])
            for got, expected in zip((z, found, has_root, lo, hi), one):
                assert np.array_equal(got[i : i + 1], expected, equal_nan=got.dtype.kind == "f")
            try:
                assert np.array_equal(z[i], normalizer_root(spec, theta))
                assert found[i]
            except NormalizerNotFound as err:
                assert not found[i]
                assert np.array_equal(err.interval, (lo[i], hi[i]), equal_nan=True)

    @staticmethod
    def op58():
        # the family of op 58 of the estimate benchmark (seed 1): Basu at
        # alpha = 3, k = 2, whose oracle grid is 301 x 301
        q = Distribution(Alphabet.of_size(4), [0.15, 0.22626641375235912, 0.3475163877630808, 0.2762171984845601])
        f = np.array([
            [-0.00014194970620997761, -0.02965470919016319, 0.06910468346888396, -0.03930802457251083],
            [-0.008099009943905184, -0.05950491169223625, 0.008224368944177293, 0.05937955269196414],
        ])
        return FamilySpec(FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, q, f, alpha=3.0)

    @staticmethod
    def count_brackets(monkeypatch) -> list:
        """The row count of each later ``_bracket`` call."""
        rows = []
        bracket = families._bracket

        def counting(spec, tilt, z=0.0):
            rows.append(len(tilt))
            return bracket(spec, tilt, z)

        monkeypatch.setattr(families, "_bracket", counting)
        return rows

    def test_converged_rows_leave_the_iteration(self, monkeypatch):
        # iterating every row until the slowest converges evaluated 33 n rows
        spec = self.op58()
        axis = np.linspace(-3.0, 3.0, 301)
        thetas = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        rows = self.count_brackets(monkeypatch)
        _normalizer_rows(spec, thetas @ spec.f)
        assert sum(rows) <= 3 * len(thetas)
        # the members pass forms brackets on the rows with a normalizer only,
        # and the edge test reads the mass alone: 252083 rows when every row
        # paid for its bracket and power
        rows.clear()
        probs, ok = eval_members_batch(spec, thetas)
        assert 0 < ok.sum() < len(thetas) // 10
        assert sum(rows) <= 170160

    def test_no_row_bisects_above_alpha_two(self, monkeypatch):
        # the same grid: at alpha > 2 a Newton step that leaves the bracket
        # jumps to a point right of the root, from which Newton converges
        # monotonically.  The normalizer took 33 passes over the grid
        # bisecting, and the oracle 133 calls of _bracket over its six blocks
        spec = self.op58()
        thetas = ThetaGrid.of([-3.0, -3.0], [3.0, 3.0], [301, 301], k=2).points()
        rows = self.count_brackets(monkeypatch)
        _normalizer_rows(spec, thetas @ spec.f)
        assert len(rows) <= 10
        rows.clear()
        sample = SampleData.from_counts([60, 90, 140, 110], spec.alphabet)
        grid_reverse_min(DivergenceKind.DENSITY_POWER, 3.0, sample, spec, ThetaGrid.of([-3.0, -3.0], [3.0, 3.0], [301, 301], k=2))
        assert len(rows) <= 40


class TestAdmissibleHalfspaces:
    """Every theta that is_admissible accepts satisfies its kind's
    half-spaces, within the slack the oracle's screen grants them."""

    @staticmethod
    def assert_inside(spec, theta):
        G, h, scale = admissible_halfspaces(spec)
        slack = HALFSPACE_SLACK * (1.0 + np.abs(h) + scale @ np.abs(theta))
        assert np.all(G @ theta < h + slack), (G @ theta - h) / slack

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        alpha=st.sampled_from([0.3, 0.7, 1.3, 1.8, 2.0, 2.5, 3.0, 6.0]),
        m=st.integers(2, 8),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_admissible_thetas_satisfy_the_halfspaces(self, kind, alpha, m, k, seed):
        rng = rng_of(seed)
        spec = random_family(rng, kind, m=m, k=min(k, m - 1), alpha=alpha, f_scale=rng.uniform(0.1, 3.0))
        G, h, scale = admissible_halfspaces(spec)
        if kind is FamilyKind.EXPONENTIAL or (kind is FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW and alpha < 1.0):
            assert G.shape == scale.shape == (0, spec.theta_dim) and h.shape == (0,)
        radii = np.geomspace(1e-3, 1e3, 20)
        for _ in range(3):
            # along a ray: a ladder of radii, then the admissibility edge
            # itself, bisected between the last admitted radius and the next
            direction = rng.standard_normal(spec.theta_dim)
            admitted = [r for r in radii if is_admissible(spec, r * direction)]
            for r in admitted:
                self.assert_inside(spec, r * direction)
            lo = max(admitted, default=0.0)
            if lo == radii[-1]:
                continue
            hi = radii[radii > lo][0]
            for _ in range(36):
                mid = 0.5 * (lo + hi)
                if is_admissible(spec, mid * direction):
                    self.assert_inside(spec, mid * direction)
                    lo = mid
                else:
                    hi = mid

    def test_the_bounds_are_the_edge_mass_bounds(self):
        # non-normalized, alpha = 3, m = 3: pairs (a-1)(e_x - e_y) < 1 and
        # sums (a-1) sum_x (e_x - e_y) < 1; at theta = 0 the edges are Q^2/2
        q = Distribution(Alphabet.of_size(3), [0.2, 0.3, 0.5])
        spec = FamilySpec(FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, q, np.array([[1.0, -2.0, 0.5]]), alpha=3.0)
        G, h, _ = admissible_halfspaces(spec)
        assert G.shape == (6 + 3, 1)
        edges = q.probs**2 / 2.0
        pairs = [2.0 * (edges[x] - edges[y]) for x in range(3) for y in range(3) if x != y]
        sums = [2.0 * np.sum(edges - edges[y]) for y in range(3)]
        assert np.allclose(h, 1.0 - np.array(pairs + sums), atol=1e-15)
        # below alpha = 2 the sums are bounded by m^(2-a)
        spec = FamilySpec(FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW, q, spec.f, alpha=1.5)
        G, h, _ = admissible_halfspaces(spec)
        sums = [0.5 * np.sum(q.probs**0.5 / 0.5 - q.probs[y] ** 0.5 / 0.5) for y in range(3)]
        assert np.allclose(h[6:], 3.0**0.5 - np.array(sums), atol=1e-15)


class TestAdmissibleRowsOnly:
    """A grid pays powers only on the rows that can be admissible; each row
    is still its one-row call, bit for bit, NaN placement included.  The
    first statistics are dyadic, so theta.f is exact whatever the order of
    its sum; the second are not, and the tilt sums them in the same order
    in a batch as in a single row."""

    Q = Distribution(Alphabet.of_size(4), [0.15, 0.25, 0.35, 0.25])
    F = {
        "dyadic": np.array([[0.625, -0.875, 0.375, -0.125], [-0.5, 0.25, 0.75, -0.5]]),
        "decimal": np.array([[0.6, -0.9, 0.4, -0.1], [-0.5, 0.2, 0.7, -0.4]]),
    }

    @pytest.mark.parametrize("f", ["dyadic", "decimal"])
    @pytest.mark.parametrize(
        "kind, alpha",
        [(kind, alpha) for kind in (FamilyKind.ALPHA_POWER_LAW, FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW,
                                     FamilyKind.ALPHA_EXPONENTIAL) for alpha in (0.5, 1.5, 3.0)]
        + [(FamilyKind.EXPONENTIAL, 1.0)],
    )
    def test_batch_rows_are_one_row_calls(self, kind, alpha, f):
        spec = FamilySpec(kind, self.Q, self.F[f], alpha=alpha)
        # coarse far out, fine near 0, where alpha = 3 brackets stay positive
        axis = np.unique(np.concatenate([np.arange(-24.0, 25.0, 2.0), np.arange(-2.0, 2.25, 0.25),
                                         np.arange(-0.125, 0.13, 1.0 / 64.0)]))
        thetas = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        # and a row whose tilt overflows
        thetas = np.vstack([thetas, [[1e308, -1e308]]])
        probs, ok = eval_members_batch(spec, thetas)
        assert ok.any() and not ok.all()
        if kind is FamilyKind.ALPHA_POWER_LAW or kind is FamilyKind.ALPHA_EXPONENTIAL or alpha > 1.0:
            # below alpha = 1 every finite tilt of the non-normalized kind has
            # a normalizer, and the exponential kind loses only the far rows
            assert ok.mean() < 0.6
        for i, theta in enumerate(thetas):
            one, one_ok = eval_members_batch(spec, theta[None, :])
            assert one_ok[0] == ok[i]
            assert np.array_equal(probs[i], one[0], equal_nan=True)
            try:
                p = member_with_normalizer(spec, theta)[0].probs
            except (DomainViolation, NormalizerNotFound):
                assert not ok[i]
            else:
                assert ok[i] and np.array_equal(probs[i], p)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_parameter_batch_takes_a_flat_vector(kind):
    spec = FamilySpec(kind, Q_UNIFORM2, F_COUNT, alpha=2.0)
    thetas = np.array([0.0, 0.3, 50.0])
    probs, ok = eval_members_batch(spec, thetas)
    column, column_ok = eval_members_batch(spec, thetas[:, None])
    assert np.array_equal(probs, column, equal_nan=True) and np.array_equal(ok, column_ok)
    assert ok[:2].all()


class TestUnderflow:
    """A member that underflows to an exact 0 is a numeric failure: every
    member has full support."""

    BERNOULLI = FamilySpec(FamilyKind.EXPONENTIAL, Q_UNIFORM2, F_COUNT)

    def test_scalar_raises_domain_violation_naming_the_symbol(self):
        with pytest.raises(DomainViolation) as err:
            eval_member(self.BERNOULLI, [800.0])
        assert err.value.symbols == ("a",)
        assert not is_admissible(self.BERNOULLI, [800.0])

    @pytest.mark.filterwarnings("error")
    def test_far_member_raises_without_an_overflow_warning(self):
        # Z overflows to inf there, which is its value; numpy must not warn
        with pytest.raises(DomainViolation):
            eval_member(self.BERNOULLI, [800.0])

    def test_batch_marks_the_row_inadmissible(self):
        probs, ok = eval_members_batch(self.BERNOULLI, np.array([[0.0], [800.0], [-800.0]]))
        assert ok.tolist() == [True, False, False]
        assert np.all(probs[0] > 0.0)
        assert np.isnan(probs[1, 0]) and np.isnan(probs[2, 1])


class TestPowerOverflow:
    """A finite, positive bracket raised to the member's power can still
    over- or underflow on every symbol; that theta is inadmissible too."""

    # Q = (0.5, 0.5), f = (1, 2): the bracket is positive on both symbols
    # and near 1e200, so its power 1/(a-1) or 1/(1-a) is about 1e+-400
    CASES = [
        (FamilyKind.ALPHA_POWER_LAW, 1.5, -1e200, "member's mass overflows"),
        (FamilyKind.ALPHA_EXPONENTIAL, 0.5, 1e200, "member's mass overflows"),
        (FamilyKind.ALPHA_POWER_LAW, 0.5, 1e200, "member underflows to 0 on some symbols"),
        (FamilyKind.ALPHA_EXPONENTIAL, 1.5, -1e200, "member underflows to 0 on some symbols"),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, alpha, theta, message", CASES)
    def test_scalar_and_batch_agree_without_a_warning(self, kind, alpha, theta, message):
        spec = FamilySpec(kind, Q_UNIFORM2, np.array([[1.0, 2.0]]), alpha=alpha)
        with pytest.raises(DomainViolation, match=message) as err:
            eval_member(spec, [theta])
        assert err.value.symbols == ("a", "b")
        probs, ok = eval_members_batch(spec, np.array([[0.0], [theta]]))
        assert ok.tolist() == [True, False]
        assert np.all(probs[0] > 0.0) and np.isnan(probs[1]).all()
