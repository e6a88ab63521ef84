import itertools
import tracemalloc

import numpy as np
import pytest

from divproj.divergences import DivergenceKind, divergence_fixed_p, divergence_rows
from divproj.errors import DomainError, EmptyFeasibleGrid, InputError, NoAdmissibleTheta
from divproj.estimators import MATCHED_FAMILY, EstimatorKind, likelihood_rows
from divproj import oracle
from divproj.families import FamilyKind, FamilySpec, LinearFamilySpec, admissible_halfspaces, eval_members_batch
from divproj.measures import Alphabet, Distribution, SampleData, row_dots
from divproj.oracle import (
    BLOCK_ROWS,
    MAX_GRID_POINTS,
    SimplexGrid,
    ThetaGrid,
    grid_forward_min,
    grid_reverse_min,
)
from divproj.projection import forward_dpd_projection

from conftest import (
    MATCHED_DIVERGENCE,
    random_admissible_theta,
    random_distribution,
    random_family,
    rng_of,
    sample_from,
)

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

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_counts_are_the_stars_and_bars_compositions_in_order(self, m):
        for d in (1, 2, 5, 9):
            expected = []
            for cuts in itertools.combinations(range(d + m - 1), m - 1):
                bounds = (-1, *cuts, d + m - 1)
                expected.append([hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])])
            counts = SimplexGrid(m, d).counts()
            assert counts.dtype == np.int64
            assert np.array_equal(counts, expected)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lo, hi", [(np.nan, 1.0), (-1.0, np.inf), (-np.inf, 1.0), (-1e308, 1e308), ([0.0, np.nan], [1.0, 1.0])]
    )
    def test_parameter_grid_needs_finite_bounds_and_width(self, lo, hi):
        # -1e308..1e308 has finite bounds but a width that overflows
        with pytest.raises(InputError, match="finite"):
            ThetaGrid.of(lo, hi, 5, k=np.size(lo))


class TestGridSizes:
    """Grid sizes are whole numbers: numpy integers and integral floats pass,
    anything else is an input error, not a bare ValueError or TypeError and
    not a silently truncated grid."""

    @pytest.mark.parametrize("steps", [float("nan"), float("inf"), 2.7, "5", [3, 2.5]])
    def test_parameter_grid_refuses_a_step_count_that_is_not_whole(self, steps):
        with pytest.raises(InputError, match="whole"):
            ThetaGrid.of(np.zeros(np.size(steps)), np.ones(np.size(steps)), steps, k=np.size(steps))

    @pytest.mark.parametrize("m, resolution", [(3, 2.5), (2.5, 3), (3, float("nan")), (float("inf"), 3), ("3", 4)])
    def test_simplex_grid_refuses_a_size_that_is_not_whole(self, m, resolution):
        with pytest.raises(InputError, match="whole"):
            SimplexGrid(m, resolution)

    def test_numpy_integers_and_integral_floats_are_sizes(self):
        assert np.array_equal(ThetaGrid.of(0.0, 1.0, np.int32(5)).points(), ThetaGrid.of(0.0, 1.0, 5).points())
        assert np.array_equal(ThetaGrid.of(0.0, 1.0, 5.0).points(), ThetaGrid.of(0.0, 1.0, 5).points())
        steps = np.array([3, 4], dtype=np.uint16)
        assert ThetaGrid.of([0.0, 0.0], [1.0, 1.0], steps, k=2).point_count() == 12
        assert SimplexGrid(np.int64(3), np.uint8(4)) == SimplexGrid(3, 4)
        assert SimplexGrid(2.0, 3) == SimplexGrid(2, 3)
        assert np.array_equal(SimplexGrid(2.0, 3).points(), SimplexGrid(2, 3).points())


def whole_grid_reverse_min(kind, alpha, sample, spec, grid):
    """The unblocked oracle: one members call over the whole meshgrid, then
    the divergences and np.argmin."""
    axes = [np.linspace(lo, hi, s) for lo, hi, s in zip(grid.lo, grid.hi, grid.steps)]
    thetas = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    probs, ok = eval_members_batch(spec, thetas)
    if not ok.any():
        raise NoAdmissibleTheta("no admissible parameter")
    thetas, probs = thetas[ok], probs[ok]
    values = divergence_fixed_p(kind, sample.empirical.probs, probs, alpha)
    best = int(np.argmin(values))
    return thetas[best], float(values[best])


def whole_grid_forward_min(kind, alpha, q, constraint, grid):
    """The unblocked forward oracle, scored over every point at once."""
    points = grid.points()
    gap = np.zeros(len(points))
    if constraint is not None:
        gap = np.max(np.abs(row_dots(constraint.f, points) - constraint.a[None, :]), axis=1)
        near = gap <= 0.5 / grid.resolution
        points, gap = points[near], gap[near]
    values = divergence_rows(kind, points, q.probs, alpha)
    values = np.where(np.isnan(values), np.inf, values)
    best = int(np.argmin(values))
    return points[best], float(values[best]), float(gap[best])


def assert_same_bits(a, b):
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestBlocks:
    """Grids are scored in blocks of at most BLOCK_ROWS rows; the answer is
    the whole grid's, bit for bit."""

    SIZES = [1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_blocked_reverse_oracle_is_the_whole_grid_bit_for_bit(self, kind, n):
        rng = rng_of(71 + ord(kind.value[0]))
        alpha = {"mle": 1.0, "hellinger": 0.5, "basu": 2.0, "jones": 3.0}[kind.value]
        k = 2 if n == BLOCK_ROWS else 1
        spec = random_family(rng, MATCHED_FAMILY[kind], m=4, k=k, alpha=alpha, f_scale=0.8)
        theta0 = random_admissible_theta(rng, spec, scale=0.2)
        sample = sample_from(spec, theta0, 200, rng)
        if n == 1:
            grid = ThetaGrid.of(theta0, theta0, 1)
        elif k == 2:
            grid = ThetaGrid.of([-2.5, -1.5], [1.5, 2.5], [128, 128], k=2)
        else:
            grid = ThetaGrid.of(-2.5, 2.5, n)
        assert grid.point_count() == n
        probs, ok = eval_members_batch(spec, grid.points())
        if kind is not EstimatorKind.MLE and n > 1:
            assert 0 < ok.sum() < n  # the box reaches past the admissible region
        div = MATCHED_DIVERGENCE[kind]
        theta, value = grid_reverse_min(div, alpha, sample, spec, grid)
        ref_theta, ref_value = whole_grid_reverse_min(div, alpha, sample, spec, grid)
        assert_same_bits(theta, ref_theta)
        assert_same_bits(value, ref_value)

    def test_a_grid_one_past_a_block_scores_its_last_row_alone(self):
        # the argmin is the grid's last row, which the last block holds
        # alone: its one-row value is the value it gets in a many-row batch
        a4 = Alphabet.of_size(4)
        f = np.array([[0.274, -0.46, -0.918, -0.967], [0.627, 0.826, 0.213, 0.459]])
        spec = FamilySpec(FamilyKind.EXPONENTIAL, Distribution(a4, [0.1, 0.2, 0.3, 0.4]), f)
        sample = SampleData.from_counts([674, 271, 16, 39], a4)
        grid = ThetaGrid.of([-1.0, -1.0], [0.7, 1.3], [145, 113], k=2)
        assert grid.point_count() == BLOCK_ROWS + 1
        last = grid.rows(grid.point_count() - 2, grid.point_count())
        ph = sample.empirical.probs
        alone = divergence_fixed_p(DivergenceKind.KL, ph, eval_members_batch(spec, last[1:])[0], 1.0)
        batch = divergence_fixed_p(DivergenceKind.KL, ph, eval_members_batch(spec, grid.points())[0], 1.0)
        theta, value = grid_reverse_min(DivergenceKind.KL, 1.0, sample, spec, grid)
        assert_same_bits(theta, last[1])
        assert_same_bits(value, alone[0])
        assert_same_bits(alone[0], batch[-1])
        assert_same_bits(value, whole_grid_reverse_min(DivergenceKind.KL, 1.0, sample, spec, grid)[1])

    def jones_half_line(self):
        # admissible iff theta > -0.5: the bracket at 'b' is 0.5 + theta
        return FamilySpec(
            FamilyKind.ALPHA_POWER_LAW, Distribution(AB, [0.5, 0.5]), np.array([[0.0, -1.0]]), alpha=2.0
        )

    def test_a_first_block_without_admissible_rows(self):
        spec = self.jones_half_line()
        sample = SampleData.from_counts([3, 7], AB)
        grid = ThetaGrid.of(-3.0, 1.0, 3 * BLOCK_ROWS + 5)
        assert not eval_members_batch(spec, grid.rows(0, BLOCK_ROWS))[1].any()
        got = grid_reverse_min(DivergenceKind.REL_ALPHA_ENTROPY, 2.0, sample, spec, grid)
        ref = whole_grid_reverse_min(DivergenceKind.REL_ALPHA_ENTROPY, 2.0, sample, spec, grid)
        assert_same_bits(got[0], ref[0])
        assert_same_bits(got[1], ref[1])

    def test_an_exact_tie_across_blocks_goes_to_the_first(self):
        # the symmetric instance of TestReverseOracle.test_exact_tie; its two
        # best rows, -c and c, end the first block and start the second
        spec = FamilySpec(
            FamilyKind.ALPHA_POWER_LAW, Distribution(AB, [0.5, 0.5]), np.array([[-0.5, 0.5]]), alpha=2.0
        )
        sample = SampleData.from_counts([5, 5], AB)
        grid = ThetaGrid.of(-0.4, 0.4, 2 * BLOCK_ROWS)
        pair = eval_members_batch(spec, grid.rows(BLOCK_ROWS - 1, BLOCK_ROWS + 1))[0]
        tied = divergence_fixed_p(DivergenceKind.DENSITY_POWER, sample.empirical.probs, pair, 2.0)
        assert tied[0] == tied[1]
        theta, value = grid_reverse_min(DivergenceKind.DENSITY_POWER, 2.0, sample, spec, grid)
        assert theta[0] < 0.0 and value == tied[0]
        assert_same_bits(theta, whole_grid_reverse_min(DivergenceKind.DENSITY_POWER, 2.0, sample, spec, grid)[0])

    def test_a_grid_without_admissible_rows_in_any_block(self):
        spec = self.jones_half_line()
        sample = SampleData.from_counts([3, 7], AB)
        with pytest.raises(NoAdmissibleTheta):
            grid_reverse_min(DivergenceKind.REL_ALPHA_ENTROPY, 2.0, sample, spec, ThetaGrid.of(-4.0, -1.0, 3 * BLOCK_ROWS + 5))

    def test_a_log_term_that_overflows_in_a_later_block(self):
        # at alpha = 1e308 a log term overflows once P_theta's smaller entry
        # falls below exp(-1.797) = 0.166, that is for |theta| > 1.62
        spec = FamilySpec(FamilyKind.EXPONENTIAL, Distribution(AB, [0.5, 0.5]), np.array([[0.0, 1.0]]))
        sample = SampleData.from_counts([5, 5], AB)
        steps = 3 * BLOCK_ROWS + 5
        first = -(-steps // 4)
        grid = ThetaGrid.of(0.0, 3.0, steps)
        head = ThetaGrid.of(0.0, grid.rows(first - 1, first)[0, 0], first)
        grid_reverse_min(DivergenceKind.RENYI, 1e308, sample, spec, head)  # the first block is fine
        with pytest.raises(DomainError, match="overflows"):
            grid_reverse_min(DivergenceKind.RENYI, 1e308, sample, spec, grid)

    @pytest.mark.parametrize(
        "lo, hi, steps",
        [(-1.3, 2.9, [BLOCK_ROWS + 7]), ([-1.0, 0.1], [0.7, 3.3], [301, 301]), ([-2.0, -1.0, 0.0], [1.0, 0.3, 1e-3], [17, 101, 23])],
    )
    def test_block_rows_are_the_mesh_bit_for_bit(self, lo, hi, steps):
        grid = ThetaGrid.of(lo, hi, steps, k=len(steps))
        axes = [np.linspace(a, b, s) for a, b, s in zip(grid.lo, grid.hi, grid.steps)]
        mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        cuts = [0, 1, 2, 999, BLOCK_ROWS, grid.point_count()]
        blocks = np.concatenate([grid.rows(a, b) for a, b in zip(cuts, cuts[1:])])
        assert_same_bits(blocks, mesh)
        assert_same_bits(grid.points(), mesh)

    @pytest.mark.parametrize("kind, alpha", [("kl", 1.0), ("renyi", 0.5), ("dpd", 2.0), ("rae", 3.0)])
    def test_blocked_forward_oracle_is_the_whole_grid_bit_for_bit(self, kind, alpha):
        rng = rng_of(73)
        q = random_distribution(rng, 3)
        grid = SimplexGrid(3, 300)  # 45451 points, three blocks
        f = np.array([[1.0, 0.0, 0.0], [0.3, -0.7, 0.2]])
        # the constrained points, p_a near 0.9, all lie in the last block
        for lin in (None, LinearFamilySpec(f, f @ np.array([0.9, 0.06, 0.04]), alphabet=q.alphabet)):
            p_best, value, gap = grid_forward_min(kind, alpha, q, lin, grid)
            ref = whole_grid_forward_min(DivergenceKind(kind), alpha, q, lin, grid)
            assert_same_bits(p_best.probs, ref[0])
            assert_same_bits(value, ref[1])
            assert_same_bits(gap, ref[2])


class TestScreen:
    """The reverse oracle scores only the rows that its family's half-spaces
    leave as candidates; the answer is the unscreened grid's, bit for bit,
    and no scoring batch is empty or larger than a block."""

    @staticmethod
    def batches(monkeypatch) -> list:
        """The row count of each later scoring batch of the oracle."""
        sizes = []
        members = oracle._members

        def counting(spec, thetas):
            sizes.append(len(thetas))
            return members(spec, thetas)

        monkeypatch.setattr(oracle, "_members", counting)
        return sizes

    def check(self, monkeypatch, kind, alpha, sample, spec, grid):
        """The screened answer against the meshgrid reference, or both
        raising NoAdmissibleTheta; returns the batch sizes."""
        sizes = self.batches(monkeypatch)
        try:
            ref = whole_grid_reverse_min(kind, alpha, sample, spec, grid)
        except NoAdmissibleTheta:
            with pytest.raises(NoAdmissibleTheta):
                grid_reverse_min(kind, alpha, sample, spec, grid)
        else:
            sizes.clear()
            theta, value = grid_reverse_min(kind, alpha, sample, spec, grid)
            assert_same_bits(theta, ref[0])
            assert_same_bits(value, ref[1])
        assert all(0 < size <= BLOCK_ROWS for size in sizes)
        return sizes

    POWER_KINDS = [(EstimatorKind.JONES, 3.0), (EstimatorKind.HELLINGER, 0.5), (EstimatorKind.BASU, 3.0), (EstimatorKind.BASU, 1.5)]

    @pytest.mark.parametrize("k, steps", [(1, [5001]), (2, [181, 157]), (3, [31, 23, 37])])
    @pytest.mark.parametrize("kind, alpha", POWER_KINDS)
    def test_screened_oracle_is_the_whole_grid_bit_for_bit(self, monkeypatch, kind, alpha, k, steps):
        rng = rng_of(83 + k + ord(kind.value[0]))
        spec = random_family(rng, MATCHED_FAMILY[kind], m=5, k=k, alpha=alpha, f_scale=0.8)
        sample = sample_from(spec, random_admissible_theta(rng, spec, scale=0.2), 200, rng)
        grid = ThetaGrid.of([-4.0] * k, [4.0] * k, steps, k=k)
        sizes = self.check(monkeypatch, MATCHED_DIVERGENCE[kind], alpha, sample, spec, grid)
        admissible = eval_members_batch(spec, grid.points())[1].sum()
        # the screen drops rows, and keeps at least the admissible ones
        assert admissible <= sum(sizes) < grid.point_count()

    @pytest.mark.parametrize("kind, alpha", POWER_KINDS)
    def test_a_halfspace_blind_to_the_last_parameter(self, monkeypatch, kind, alpha):
        # the last statistic is 0 on the first symbol and equal on the next
        # two: the bracket's half-space at the first symbol, and the
        # non-normalized kind's pair half-spaces, have no last coefficient
        f = np.array([[0.6, -0.3, 0.5, -0.8], [0.0, 0.7, 0.7, -0.4]])
        spec = FamilySpec(MATCHED_FAMILY[kind], Distribution(Alphabet.of_size(4), [0.2, 0.3, 0.1, 0.4]), f, alpha=alpha)
        assert np.any(admissible_halfspaces(spec)[0][:, -1] == 0.0)
        sample = SampleData.from_counts([50, 70, 30, 100], spec.alphabet)
        grid = ThetaGrid.of([-5.0, -3.0], [5.0, 3.0], [201, 151], k=2)
        self.check(monkeypatch, MATCHED_DIVERGENCE[kind], alpha, sample, spec, grid)

    @pytest.mark.parametrize(
        "lo, hi, steps",
        [
            ([2.0, 3.0], [-2.0, -3.0], [97, 89]),  # both axes decreasing
            ([-3.0, 0.25], [3.0, 0.25], [301, 1]),  # one step on the last axis
            ([-3.0, 0.4], [3.0, 0.9], [BLOCK_ROWS + 3, 1]),
            ([0.1, -0.2], [0.1, -0.2], [1, 1]),  # a one-point grid
        ],
    )
    @pytest.mark.parametrize("kind, alpha", POWER_KINDS)
    def test_decreasing_and_one_step_axes(self, monkeypatch, kind, alpha, lo, hi, steps):
        rng = rng_of(89)
        spec = random_family(rng, MATCHED_FAMILY[kind], m=4, k=2, alpha=alpha, f_scale=0.8)
        sample = sample_from(spec, np.zeros(2), 300, rng)
        self.check(monkeypatch, MATCHED_DIVERGENCE[kind], alpha, sample, spec, ThetaGrid.of(lo, hi, steps, k=2))

    def test_a_box_without_admissible_rows_scores_nothing(self, monkeypatch):
        spec = TestBlocks().jones_half_line()  # admissible iff theta > -0.5
        sample = SampleData.from_counts([3, 7], AB)
        sizes = self.batches(monkeypatch)
        with pytest.raises(NoAdmissibleTheta):
            grid_reverse_min(DivergenceKind.REL_ALPHA_ENTROPY, 2.0, sample, spec, ThetaGrid.of(-40.0, -1.0, 3 * BLOCK_ROWS + 5))
        assert sizes == []

    @pytest.mark.parametrize(
        "lo, hi, steps",
        [
            (-1e300, 1e300, [7]),
            ([-1e300, -1.0], [1e300, 1.0], [5, 9]),
            ([1e300, 1e300], [1.7e308, 1.7e308], [11, 13]),  # every tilt overflows
            ([-3.0, 1e307], [3.0, 1.7e308], [5, 7]),
        ],
    )
    @pytest.mark.parametrize("kind, alpha", POWER_KINDS)
    def test_boxes_near_the_float_range(self, monkeypatch, kind, alpha, lo, hi, steps):
        rng = rng_of(97)
        k = len(steps)
        spec = random_family(rng, MATCHED_FAMILY[kind], m=3, k=k, alpha=alpha, f_scale=0.8)
        sample = sample_from(spec, np.zeros(k), 300, rng)
        self.check(monkeypatch, MATCHED_DIVERGENCE[kind], alpha, sample, spec, ThetaGrid.of(lo, hi, steps, k=k))

    def test_a_single_candidate_in_a_multi_block_grid_is_scored_alone(self, monkeypatch):
        # Jones at alpha = 2 on Q uniform: the brackets keep |theta_1| < 1/3
        # whatever theta_2 is on the single-step last axis, and the leading
        # axis, 0.7 apart, puts one point there
        q = Distribution(A3, np.full(3, 1.0 / 3.0))
        spec = FamilySpec(FamilyKind.ALPHA_POWER_LAW, q, np.array([[1.0, -1.0, 0.0], [0.3, 0.1, -0.6]]), alpha=2.0)
        sample = SampleData.from_counts([40, 35, 25], A3)
        half = 0.7 * BLOCK_ROWS
        grid = ThetaGrid.of([-half, 0.1], [half, 0.1], [2 * BLOCK_ROWS + 1, 1], k=2)
        sizes = self.check(monkeypatch, DivergenceKind.REL_ALPHA_ENTROPY, 2.0, sample, spec, grid)
        assert sizes == [1]


class TestBlockMemory:
    """A grid's memory is set by a block: the unblocked oracle peaked at
    207-229 MB on these 10^6-point grids."""

    @pytest.mark.parametrize("kind", [FamilyKind.EXPONENTIAL, FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW])
    def test_a_million_point_grid_stays_under_16_mb(self, kind):
        rng = rng_of(79)
        alpha = 1.0 if kind is FamilyKind.EXPONENTIAL else 2.0
        spec = random_family(rng, kind, m=8, k=3, alpha=alpha, f_scale=0.2)
        sample = sample_from(spec, np.zeros(3), 500, rng)
        grid = ThetaGrid.of(-0.3, 0.3, 100, k=3)
        assert grid.point_count() == MAX_GRID_POINTS
        div = DivergenceKind.KL if kind is FamilyKind.EXPONENTIAL else DivergenceKind.DENSITY_POWER
        tracemalloc.start()
        try:
            _, value = grid_reverse_min(div, alpha, sample, spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        assert peak < 16 * 2**20


class TestForwardOracle:
    def test_reference_inside_family_wins(self):
        rng = rng_of(41)
        q = random_distribution(rng, 3)
        f = np.array([[0.0, 1.0, 2.0]])
        lin = LinearFamilySpec(f, f @ q.probs, alphabet=q.alphabet)
        d = 60
        p_best, value, gap = grid_forward_min(DivergenceKind.KL, 1.0, q, lin, SimplexGrid(3, d))
        assert np.max(np.abs(p_best.probs - q.probs)) <= 1.0 / d
        assert value <= 25.0 / d**2
        assert gap == pytest.approx(np.max(np.abs(lin.f @ p_best.probs - lin.a)), abs=1e-15)
        assert gap <= 0.5 / d

    def test_matches_hand_computed_projection(self):
        q = Distribution(A3, np.full(3, 1 / 3))
        lin = LinearFamilySpec(np.array([[0.0, 1.0, 2.0]]), np.array([1.2]), alphabet=A3)
        p_best, _, _ = grid_forward_min(DivergenceKind.DENSITY_POWER, 2.0, q, lin, SimplexGrid(3, 60))
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
        # the grid's points are the vertices, where 2 P(a) is 0 or 2: each
        # misses 1 by more than half a cell
        lin = LinearFamilySpec(np.array([[2.0, 0.0, 0.0]]), np.array([1.0]), alphabet=A3)
        with pytest.raises(EmptyFeasibleGrid):
            grid_forward_min(DivergenceKind.KL, 1.0, q, lin, SimplexGrid(3, 1))

    @pytest.mark.parametrize("m, resolution", [(1, 5), (3, 0), (3, -2)])
    def test_empty_grid_size_is_an_input_error(self, m, resolution):
        with pytest.raises(InputError, match="simplex grid needs"):
            SimplexGrid(m, resolution)

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

    @staticmethod
    def assert_likelihood_argmax_attains_the_minimum(kind, alpha, sample, spec, grid):
        # the paper's equivalence on a grid: the matched likelihood's argmax
        # scores the grid minimum of D(P_hat, P_theta).  Values are compared,
        # not indices, so an exact tie that rounds either way still passes.
        theta_best, value = grid_reverse_min(MATCHED_DIVERGENCE[kind], alpha, sample, spec, grid)
        probs, ok = eval_members_batch(spec, grid.points())
        probs = probs[ok]
        ph = sample.empirical.probs
        at_argmax = divergence_fixed_p(
            MATCHED_DIVERGENCE[kind], ph, probs[np.argmax(likelihood_rows(kind, probs, ph, alpha))], alpha
        )
        assert abs(at_argmax - value) <= 1e-12 * (1.0 + abs(value))
        return theta_best, value

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_likelihood_argmax_attains_the_divergence_minimum(self, kind):
        rng = rng_of(43 + ord(kind.value[0]))
        alpha = {"mle": 1.0, "hellinger": 0.5, "basu": 2.0, "jones": 2.0}[kind.value]
        spec = random_family(rng, MATCHED_FAMILY[kind], m=3, k=1, alpha=alpha, f_scale=0.5)
        theta0 = random_admissible_theta(rng, spec, scale=0.2)
        sample = sample_from(spec, theta0, 150, rng)
        grid = ThetaGrid.of(-1.0, 1.0, 101)
        theta_best, value = self.assert_likelihood_argmax_attains_the_minimum(kind, alpha, sample, spec, grid)
        assert np.isfinite(value)
        assert abs(theta_best[0]) <= 1.0

    def test_exact_tie(self):
        # a symmetric Jones instance: theta and -theta give the same member
        # up to relabelling, and 1002 steps put no grid point at theta = 0
        spec = FamilySpec(
            FamilyKind.ALPHA_POWER_LAW, Distribution(AB, [0.5, 0.5]), np.array([[-0.5, 0.5]]), alpha=2.0
        )
        sample = SampleData.from_counts([5, 5], AB)
        grid = ThetaGrid.of(-0.4, 0.4, 1002)
        theta_best, _ = self.assert_likelihood_argmax_attains_the_minimum(EstimatorKind.JONES, 2.0, sample, spec, grid)
        assert abs(theta_best[0]) == pytest.approx(0.4 / 1001, rel=1e-12)

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
