import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
import vvlearn.rademacher as rademacher_module
from oracles import sup_ball
from vvlearn.dataio import Dataset
from vvlearn.rademacher import (
    estimate_complexity,
    identical_pair_sample,
    sandwich_check,
    write_report_csv,
)


def sample_from_dense(rows, js, c):
    return Dataset(np.asarray(rows, dtype=float), np.asarray(js, dtype=np.int64), c, "mcc")


def brute_force_sup(sample, signs, radius, directions=200_000, seed=0):
    """Supremum over a dense sample of ball directions; a lower bound on the
    true supremum that approaches it as the direction count grows."""
    rng = np.random.default_rng(seed)
    d, c = sample.d, sample.c
    dense = oracles.scipy_csr(sample.X).toarray()
    best = -np.inf
    for _ in range(4):
        ws = rng.standard_normal((directions // 4, d * c))
        ws /= np.linalg.norm(ws, axis=1, keepdims=True)
        ws = ws.reshape(-1, d, c)
        scores = np.einsum("bdc,md->bmc", ws, dense)
        picked = scores[:, np.arange(len(sample)), sample.y]
        totals = picked @ np.asarray(signs, dtype=float)
        best = max(best, float(totals.max()))
    return radius * best


def random_sample(m, c, d=3, seed=0):
    """m random pairs over the components 0..c-2, so component c-1 has none."""
    rng = np.random.default_rng(seed)
    return sample_from_dense(rng.standard_normal((m, d)), rng.integers(0, c - 1, size=m), c)


def mixed_sample(m, c, d, seed=0):
    """m random pairs over all c components."""
    rng = np.random.default_rng(seed)
    return sample_from_dense(rng.standard_normal((m, d)), rng.integers(0, c, size=m), c)


def exhaustive_estimate(sample, radius):
    sups = []
    for signs in itertools.product((-1.0, 1.0), repeat=len(sample)):
        sups.append(sup_ball(sample, np.array(signs), radius))
    return float(np.mean(sups)) / len(sample)


class TestSupBall:
    """The closed form behind every estimate, through the one-row oracle."""

    def test_single_pair_all_plus(self):
        x = np.array([1.0, 2.0, 2.0])
        sample = sample_from_dense([x], [0], 2)
        assert np.isclose(sup_ball(sample, np.array([1.0]), 1.0), 3.0, atol=1e-12)

    def test_two_identical_pairs_cancel(self):
        x = np.array([0.5, -1.5])
        sample = sample_from_dense([x, x], [1, 1], 3)
        assert sup_ball(sample, np.array([1.0, -1.0]), 1.0) == 0.0

    def test_radius_scales_linearly(self):
        sample = sample_from_dense([[1.0, 0.0], [0.0, 2.0]], [0, 1], 2)
        signs = np.array([1.0, -1.0])
        one = sup_ball(sample, signs, 1.0)
        assert np.isclose(sup_ball(sample, signs, 2.5), 2.5 * one, rtol=1e-12)

    def test_matches_brute_force_grid(self):
        # three pairs across two columns in two dimensions
        rows = [[1.0, 0.5], [-0.5, 1.0], [0.25, -1.0]]
        js = [0, 1, 0]
        sample = sample_from_dense(rows, js, 2)
        for signs in ([1, 1, 1], [1, -1, 1], [-1, 1, -1]):
            signs = np.asarray(signs, dtype=float)
            exact = sup_ball(sample, signs, 1.3)
            brute = brute_force_sup(sample, signs, 1.3)
            assert brute <= exact + 1e-9
            assert np.isclose(brute, exact, rtol=0.02)


class TestExtendedSample:
    def test_identical_pair_sample(self):
        sample = identical_pair_sample(4, 3, 2)
        assert len(sample) == 4 and sample.d == 3 and sample.c == 2
        assert sample.task == "mcc" and sample.kappa == 1.0
        assert np.array_equal(oracles.scipy_csr(sample.X).toarray(), np.tile([1.0, 0.0, 0.0], (4, 1)))
        assert np.array_equal(sample.y, np.zeros(4, dtype=np.int64))

    def test_scaled_identical_pairs_scale_the_estimate(self):
        # m copies of (2 * e_0, component 0): twice the unit-norm estimate 0.375
        sample = sample_from_dense(np.tile([2.0, 0.0, 0.0], (4, 1)), np.zeros(4), 2)
        est = estimate_complexity(sample, radius=1.0, trials=0, seed=0)
        assert np.isclose(est.mean, 0.75, atol=1e-12)

    def test_validation(self):
        x = np.array([[1.0]])
        empty = Dataset(np.zeros((0, 1)), np.array([], dtype=np.int64), 2, "mcc")
        with pytest.raises(ValueError):
            estimate_complexity(empty, radius=1.0, trials=0, seed=0)
        with pytest.raises(ValueError):
            estimate_complexity(empty, radius=1.0, trials=10, seed=0)
        with pytest.raises(ValueError):
            Dataset(x, np.array([2], dtype=np.int64), 2, "mcc")  # j out of range
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 1)), np.array([0], dtype=np.int64), 2, "mcc")  # length mismatch
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, 2.0]), np.array([0, 0], dtype=np.int64), 2, "mcc")  # not (m, d)

    def test_rejects_nonfinite_inputs(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan, 1.0]]), np.array([0]), 2, "mcc")

    def test_rejects_noninteger_component_ids(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, 0.0]]), np.array([0.7]), 2, "mcc")

    def test_rejects_multilabel_dataset(self):
        sample = Dataset(np.eye(2), np.array([[1, -1], [-1, 1]]), 2, "mlc")
        with pytest.raises(ValueError, match="mcc"):
            estimate_complexity(sample, radius=1.0, trials=0, seed=0)


class TestEstimateComplexity:
    def test_exact_single_sign(self):
        # m=1: E|sign| = 1, so the estimate is radius * ||x||
        x = np.array([0.6, 0.8])
        sample = sample_from_dense([x], [0], 2)
        est = estimate_complexity(sample, radius=1.0, trials=0, seed=0)
        assert est.exact and est.std_error == 0.0
        assert np.isclose(est.mean, 1.0, atol=1e-12)

    def test_exact_four_identical_pairs(self):
        # E|sum of 4 signs| = 24/16, estimate = (24/16)/4 = 0.375
        sample = identical_pair_sample(4, 3, 2)
        est = estimate_complexity(sample, radius=1.0, trials=0, seed=0)
        assert np.isclose(est.mean, 0.375, atol=1e-12)
        assert est.trials == 16

    def test_exact_matches_itertools_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = int(rng.integers(2, 8))
            c = int(rng.integers(1, 4))
            rows = rng.standard_normal((m, 3))
            js = rng.integers(0, c, size=m)
            sample = sample_from_dense(rows, js, c)
            est = estimate_complexity(sample, radius=0.7, trials=0, seed=0)
            assert np.isclose(est.mean, exhaustive_estimate(sample, 0.7), atol=1e-12)

    @pytest.mark.parametrize("m,c", [(1, 2), (2, 3), (7, 5), (19, 4), (20, 5)])
    def test_exact_matches_flat_enumeration_oracle(self, m, c):
        # m = 1 leaves the low half empty; odd m gives unequal halves
        sample = random_sample(m, c, seed=m)
        est = estimate_complexity(sample, radius=0.9, trials=0, seed=0)
        expected = oracles.exact_complexity(sample, 0.9)
        assert est.trials == 2**m
        assert abs(est.mean - expected) <= 1e-13 * expected

    def test_exact_limit(self):
        sample = identical_pair_sample(21, 2, 2)
        with pytest.raises(ValueError):
            estimate_complexity(sample, radius=1.0, trials=0, seed=0)

    def test_monte_carlo_within_band_of_exact(self):
        sample = identical_pair_sample(4, 3, 2)
        est = estimate_complexity(sample, radius=1.0, trials=100_000, seed=3)
        assert abs(est.mean - 0.375) <= 3 * est.std_error

    def test_monte_carlo_packed_bits_with_partial_byte(self):
        # 13 pairs fill one byte and 5 bits of a second one
        sample = random_sample(13, 4, seed=13)
        exact = oracles.exact_complexity(sample, 1.0)
        est = estimate_complexity(sample, radius=1.0, trials=40_000, seed=21)
        again = estimate_complexity(sample, radius=1.0, trials=40_000, seed=21)
        assert abs(est.mean - exact) <= 3 * est.std_error
        assert (est.mean, est.std_error) == (again.mean, again.std_error)

    def test_monte_carlo_deterministic_in_seed(self):
        sample = identical_pair_sample(10, 4, 3)
        a = estimate_complexity(sample, radius=1.0, trials=5000, seed=7)
        b = estimate_complexity(sample, radius=1.0, trials=5000, seed=7)
        c = estimate_complexity(sample, radius=1.0, trials=5000, seed=8)
        assert a.mean == b.mean and a.std_error == b.std_error
        assert a.mean != c.mean

    def test_standard_error_shrinks_like_root_trials(self):
        sample = identical_pair_sample(12, 3, 2)
        small = estimate_complexity(sample, radius=1.0, trials=20_000, seed=5)
        large = estimate_complexity(sample, radius=1.0, trials=80_000, seed=5)
        ratio = small.std_error / large.std_error
        assert 1.6 <= ratio <= 2.5, ratio

    def test_negative_trials_rejected(self):
        sample = identical_pair_sample(3, 2, 2)
        with pytest.raises(ValueError):
            estimate_complexity(sample, radius=1.0, trials=-5, seed=0)

    @pytest.mark.parametrize("trials", [0, 100])
    def test_infinite_radius_rejected(self, trials):
        sample = identical_pair_sample(3, 2, 2)
        with pytest.raises(ValueError, match="finite"):
            estimate_complexity(sample, radius=np.inf, trials=trials, seed=0)

    @pytest.mark.parametrize("trials", [0, 100])
    def test_power_of_two_scaling_is_exact_in_range(self, trials):
        sample = random_sample(9, 3, seed=4)
        scaled = sample_from_dense(2.0**400 * oracles.scipy_csr(sample.X).toarray(), sample.y, 3)
        unit = estimate_complexity(sample, radius=1.0, trials=trials, seed=2)
        big = estimate_complexity(scaled, radius=1.0, trials=trials, seed=2)
        assert big.mean == 2.0**400 * unit.mean
        assert big.std_error == 2.0**400 * unit.std_error

    def test_standard_error_finite_for_suprema_near_the_float_limit(self):
        # suprema above 2**512 square past the float range inside np.std
        sample = random_sample(9, 3, seed=4)
        unit = estimate_complexity(sample, radius=1.0, trials=100, seed=2)
        big = estimate_complexity(sample, radius=2.0**600, trials=100, seed=2)
        assert 0.0 < big.std_error < np.inf
        assert big.mean == 2.0**600 * unit.mean
        assert big.std_error == 2.0**600 * unit.std_error

    @pytest.mark.parametrize("trials", [0, 100])
    def test_overflowing_supremum_rejected(self, trials):
        # entries near 1e160 square past the float range inside ||A||_F
        sample = sample_from_dense([[1e160, 0.0], [1e160, 1.0]], [0, 0], 2)
        with pytest.raises(ValueError, match="overflowed"):
            estimate_complexity(sample, radius=1.0, trials=trials, seed=0)

    @pytest.mark.parametrize("trials", [0, 100])
    def test_negative_radius_rejected(self, trials):
        sample = identical_pair_sample(3, 2, 2)
        with pytest.raises(ValueError):
            estimate_complexity(sample, radius=-1.0, trials=trials, seed=0)


def block_sizes(row_entries):
    """One row's worth of block entries, an odd number of rows, and the default."""
    return [row_entries, 7 * row_entries, rademacher_module._BLOCK_ENTRIES]


class TestBlockedSums:
    @pytest.mark.parametrize("m,c", [(1, 2), (7, 5), (19, 4), (20, 5), (20, 2)])
    def test_exact_bits_do_not_depend_on_the_block_size(self, monkeypatch, m, c):
        # blocks fill the d-wide grids of single components: here one or seven
        # rows of the largest one's, whose low half of n pairs has 2^(n // 2) rows
        sample = random_sample(m, c, seed=m)
        means = []
        for entries in block_sizes(2 ** (np.bincount(sample.y).max() // 2) * sample.d):
            monkeypatch.setattr(rademacher_module, "_BLOCK_ENTRIES", entries)
            means.append(estimate_complexity(sample, radius=0.9, trials=0, seed=0).mean)
        assert means == [means[-1]] * 3
        expected = oracles.exact_complexity(sample, 0.9)
        assert abs(means[-1] - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("m,c,trials", [(13, 4, 3000), (50, 6, 2000)])
    def test_monte_carlo_repeats_per_block_size(self, monkeypatch, m, c, trials):
        sample = random_sample(m, c, seed=m)
        runs = []
        for entries in [m, 7 * m, rademacher_module._SIGN_BLOCK_ENTRIES]:
            monkeypatch.setattr(rademacher_module, "_SIGN_BLOCK_ENTRIES", entries)
            est = estimate_complexity(sample, radius=1.0, trials=trials, seed=4)
            again = estimate_complexity(sample, radius=1.0, trials=trials, seed=4)
            assert (est.mean, est.std_error) == (again.mean, again.std_error)
            runs.append(est)
        for est in runs[:-1]:
            assert abs(est.mean - runs[-1].mean) <= 1e-13 * runs[-1].mean
            assert abs(est.std_error - runs[-1].std_error) <= 1e-13 * runs[-1].std_error

    @pytest.mark.parametrize("m,trials", [(20, 0), (1600, 10_000)])
    def test_peak_memory_stays_cache_sized(self, m, trials):
        # one summation block of A_high + A_low alone took 32 MB, and a
        # Monte-Carlo chunk widened 8 MB of signs per component; the
        # worst-case sample counts its one run's signs in packed bytes.  Cut
        # off centre, the larger side holds up to 2^19 square norms, and the
        # grid keeps only the half of them that its store reads.
        off_centre = [layout_sample([k * m // 20, m - k * m // 20], seed=1) for k in (15, 19)]
        for sample in (random_sample(m, 5, d=6, seed=1), identical_pair_sample(m, 6, 5), *off_centre):
            tracemalloc.start()
            try:
                estimate_complexity(sample, radius=1.0, trials=trials, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8_000_000, peak

    def test_peak_memory_of_a_whole_grid_block(self):
        # at c = d = 1 one summation block is the whole 1,024 x 1,024 grid
        # (8.4 MB) and the filled top half adds 4.2 MB; a full grid store
        # would add 8.4 MB
        sample = mixed_sample(20, 1, 1, seed=1)
        tracemalloc.start()
        try:
            estimate_complexity(sample, radius=1.0, trials=0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14_000_000, peak


def exact_sums(sample, radius=0.9):
    """(the exact path's sum, the full-grid oracle's sum) at the module's chunk size."""
    X, js, slots = oracles.sorted_pairs(sample)
    chunk = rademacher_module._CHUNK_ENTRIES
    return rademacher_module._exact_sum(X, js, slots, radius), oracles.full_grid_sum(X, js, slots, radius, chunk)


PREMISE_SHAPES = [(20, 6, 2), (19, 5, 3), (7, 3, 2), (20, 1, 1), (13, 40, 4), (20, 6, 4)]  # (m, d, c)


class TestMirroredSum:
    """The exact path fills half the (high, low) grid and mirrors the rest."""

    @pytest.mark.parametrize("d", [1, 6])
    @pytest.mark.parametrize("c", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 13, 20])
    def test_equals_the_full_grid_sum(self, m, c, d):
        new, full = exact_sums(mixed_sample(m, c, d, seed=m * 10 + c))
        assert new == full

    @pytest.mark.parametrize("m,c", [(7, 3), (13, 3), (13, 1), (20, 2)])
    @pytest.mark.parametrize("block_entries", [1, 7, None])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 5])
    def test_equals_the_full_grid_sum_at_any_block_size(self, monkeypatch, m, c, chunk_rows, block_entries):
        # H = 2^k high rows, mirrored at H / 2: with 3 or 5 rows a summation
        # chunk straddles the mirror row and later ones lie wholly below it;
        # with 1 row every chunk holds one row.  Blocks of 1 or 7 entries
        # fill every d-wide grid one row at a time.
        sample = mixed_sample(m, c, 2, seed=m)
        H, L = oracles.grid_shape(oracles.sorted_pairs(sample)[1])
        width = len(np.unique(sample.y)) * sample.d  # a chunk row stands for L rows of this width
        monkeypatch.setattr(rademacher_module, "_CHUNK_ENTRIES", chunk_rows * L * width)
        if block_entries:
            monkeypatch.setattr(rademacher_module, "_BLOCK_ENTRIES", block_entries)
        assert chunk_rows == 1 or (H // 2) % chunk_rows  # a chunk straddles the mirror row
        new, full = exact_sums(sample)
        assert new == full

    @pytest.mark.parametrize("m,d,c", PREMISE_SHAPES)
    def test_every_factor_is_a_palindrome(self, m, d, c):
        # halves of a component negate A exactly in reversed order, so their
        # square-norm grids, the sides built from them and the whole grid
        # read the same reversed
        X, js, slots = oracles.sorted_pairs(mixed_sample(m, c, d, seed=m + d + c))
        for t in slots:
            high, _, _, low, _ = rademacher_module._factors(X[js == t], js[js == t], False)
            assert np.array_equal(high[::-1], -high) and np.array_equal(low[::-1], -low)
        high, wh, H, low, wl = rademacher_module._factors(X, js, False)
        for factor in (high, wh, low, wl):
            assert np.array_equal(factor[::-1], factor if factor.ndim == 1 else -factor)
        grid = oracles.grid_norms(X, js).reshape(oracles.grid_shape(js))
        assert grid.shape == (H, len(wl)) and np.array_equal(grid, grid[::-1, ::-1])


def layout_sample(counts, d=6, seed=0):
    """Random pairs in shuffled order, counts[t] of them on component t."""
    rng = np.random.default_rng(seed)
    js = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    return sample_from_dense(rng.standard_normal((len(js), d)), js, len(counts))


CUT_LAYOUTS = {  # pairs per component at m = 20: (counts, H, L at the top cut)
    "balanced": ([10, 10], 2**10, 2**10),
    "off-centre-15-5": ([15, 5], 2**15, 2**5),
    "off-centre-5-15": ([5, 15], 2**15, 2**5),
    "off-centre-19-1": ([19, 1], 2**19, 2**1),
    "one-component": ([20], 2**10, 2**10),
    "five-components": ([6, 2, 5, 4, 3], 2**12, 2**8),
}


class TestComponentCut:
    """Pairs are cut at the component boundary nearest their middle."""

    @pytest.mark.parametrize("layout", CUT_LAYOUTS)
    def test_exact_matches_flat_enumeration_oracle(self, layout):
        sample = layout_sample(CUT_LAYOUTS[layout][0])
        est = estimate_complexity(sample, radius=0.9, trials=0, seed=0)
        expected = oracles.exact_complexity(sample, 0.9)
        assert abs(est.mean - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("layout", CUT_LAYOUTS)
    def test_equals_the_full_grid_sum(self, layout):
        new, full = exact_sums(layout_sample(CUT_LAYOUTS[layout][0], seed=1))
        assert new == full

    @pytest.mark.parametrize("layout", CUT_LAYOUTS)
    def test_one_add_per_sign_vector_unless_one_component(self, layout):
        counts, H, L = CUT_LAYOUTS[layout]
        X, js, _ = oracles.sorted_pairs(layout_sample(counts))
        high, _, rows, low, _ = rademacher_module._factors(X, js, True)
        assert (rows, low.shape[0]) == (H, L)
        # the sides are square-norm vectors, holding only the high rows the store reads
        assert (high.ndim, low.ndim) == ((2, 2) if len(counts) == 1 else (1, 1))
        if len(counts) > 1:
            assert H // 2 <= len(high) < H


def runs_sample(runs, d=3, seed=0):
    """A sample laid out in runs: each (size, component, row) repeats one of
    a few random input rows, chosen by its index, on one component."""
    rows = np.random.default_rng(seed).standard_normal((1 + max(row for _, _, row in runs), d))
    sizes, js, picks = zip(*runs)
    return sample_from_dense(np.repeat(rows[list(picks)], sizes, axis=0), np.repeat(js, sizes), 1 + max(js))


RUN_LAYOUTS = {
    # the pairs are cut at the boundary 9, and component 0 at its middle 4, inside its second run
    "straddles-the-split": [(3, 0, 0), (6, 0, 1), (2, 1, 2)],
    # runs of even size only: component 0 has 5 * 9 sign-sum vectors, an odd count of high rows
    "odd-high-rows": [(2, 0, 0), (6, 0, 1), (2, 1, 2)],
    # runs over pairs 5..13 and 14..16 cross the byte boundaries at 8 and 16
    "crosses-bytes": [(5, 0, 0), (9, 0, 1), (3, 1, 2), (3, 1, 3)],
    "row-split-by-component": [(4, 0, 0), (3, 1, 0), (2, 1, 1)],
    "single-between-long": [(6, 0, 0), (1, 0, 1), (7, 0, 2)],
    "one-pair": [(1, 0, 0)],
    # components alternate, so only the stable sort by component forms the runs
    "interleaved": [(1, 0, 0), (1, 1, 1)] * 6,
    # m = 20: one component cut at 10, inside the run over pairs 7..12
    "one-component-20": [(7, 0, 0), (6, 0, 1), (7, 0, 2)],
    # m = 20 cut 15 / 5 at the boundary; each component's middle falls inside a run
    "off-centre-20": [(5, 0, 0), (6, 0, 1), (4, 0, 2), (1, 1, 3), (3, 1, 4), (1, 1, 5)],
}


class TestRunsOfEqualPairs:
    """A run of n equal pairs adds k * x for the sum k of its n signs."""

    @pytest.mark.parametrize("h", [0, 1, 2, 5, 10])
    def test_all_counts_of_single_pairs_are_all_signs(self, h):
        counts, weights = rademacher_module._all_counts(np.ones(h, dtype=np.int64))
        assert np.array_equal(counts, oracles.all_signs(h))
        assert np.array_equal(weights, np.ones(1 << h))

    def test_all_counts_tally_every_sign_vector_once(self):
        # runs of 3, 1 and 4 pairs: the sign sums of all 2^8 sign vectors, tallied
        counts, weights = rademacher_module._all_counts(np.array([3, 1, 4]))
        assert np.array_equal(counts[:2], [[-3, -1, -4], [-1, -1, -4]])  # run 0 varies fastest
        signs = oracles.all_signs(8)
        sums = np.stack([signs[:, :3].sum(1), signs[:, 3], signs[:, 4:].sum(1)], axis=1)
        patterns, tally = np.unique(sums, axis=0, return_counts=True)
        by_row = np.lexsort(counts.T[::-1])  # np.unique's order: the first column slowest
        assert np.array_equal(counts[by_row], patterns) and np.array_equal(weights[by_row], tally)
        assert np.array_equal(counts[::-1], -counts)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_worst_case_exact_equals_the_closed_form(self, m):
        total = sum(math.comb(m, k) * abs(m - 2 * k) for k in range(m + 1))
        for c, d, radius in itertools.product((1, 2, 3), (1, 6), (np.sqrt(2.0), 1.0, 0.37, 123.456)):
            est = estimate_complexity(identical_pair_sample(m, d, c), radius, trials=0, seed=0)
            assert est.mean == radius * total / (2**m * m)
            assert est.trials == 2**m

    @pytest.mark.parametrize("layout", RUN_LAYOUTS)
    def test_exact_matches_flat_enumeration_oracle(self, layout):
        sample = runs_sample(RUN_LAYOUTS[layout])
        est = estimate_complexity(sample, radius=0.9, trials=0, seed=0)
        expected = oracles.exact_complexity(sample, 0.9)
        assert abs(est.mean - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("layout", RUN_LAYOUTS)
    def test_monte_carlo_matches_the_unpacked_stream(self, layout):
        sample = runs_sample(RUN_LAYOUTS[layout])
        est = estimate_complexity(sample, radius=0.9, trials=3000, seed=11)
        mean, std_error = oracles.monte_carlo_complexity(sample, 0.9, 3000, 11, rademacher_module._CHUNK_ENTRIES)
        assert abs(est.mean - mean) <= 1e-13 * mean
        assert abs(est.std_error - std_error) <= 1e-13 * std_error

    def test_monte_carlo_matches_the_unpacked_stream_across_chunks(self, monkeypatch):
        # random run lengths over 300 pairs, with chunks and blocks of a few rows
        sizes = np.random.default_rng(3).integers(1, 20, size=30)
        sample = runs_sample([(int(n), r % 3, r) for r, n in enumerate(sizes)], d=4, seed=3)
        monkeypatch.setattr(rademacher_module, "_CHUNK_ENTRIES", 250 * len(sample))
        monkeypatch.setattr(rademacher_module, "_SIGN_BLOCK_ENTRIES", 37 * len(sample))
        est = estimate_complexity(sample, radius=1.0, trials=1000, seed=2)
        mean, std_error = oracles.monte_carlo_complexity(sample, 1.0, 1000, 2, 250 * len(sample))
        assert abs(est.mean - mean) <= 1e-13 * mean
        assert abs(est.std_error - std_error) <= 1e-13 * std_error

    @pytest.mark.parametrize("rows,radius", [([[1e160, 0.0]] * 2, 1.0), ([[1.0, 0.0]] * 4, 1e308)])
    def test_overflow_with_runs_rejected(self, rows, radius):
        # a supremum past the float range at radius 1, and a weighted sum past it at the radius
        with pytest.raises(ValueError, match="overflowed"):
            estimate_complexity(sample_from_dense(rows, [0] * len(rows), 2), radius=radius, trials=0, seed=0)

    @pytest.mark.parametrize("m", [1, 7, 8, 13, 100, 401, 1600])
    def test_worst_case_monte_carlo_keeps_the_unpacked_bits(self, m):
        # A = k * e_0 is exact whether k is counted or summed sign by sign
        sample = identical_pair_sample(m, 6, 4)
        est = estimate_complexity(sample, radius=0.9, trials=2600, seed=m)
        expected = oracles.monte_carlo_complexity(sample, 0.9, 2600, m, rademacher_module._CHUNK_ENTRIES)
        assert (est.mean, est.std_error) == expected


class TestSignSumMoments:
    def test_mean_abs_matches_itertools(self):
        for m in range(1, 11):
            exact = np.mean(
                [abs(sum(signs)) for signs in itertools.product((-1, 1), repeat=m)]
            )
            assert np.isclose(oracles.mean_abs_sign_sum(m), exact, atol=1e-12)

    def test_khintchine_floor_holds_exactly(self):
        for m in range(1, 11):
            assert oracles.mean_abs_sign_sum(m) >= oracles.khintchine_floor(m) - 1e-12

    def test_known_values(self):
        assert oracles.mean_abs_sign_sum(1) == 1.0
        assert oracles.mean_abs_sign_sum(2) == 1.0
        assert np.isclose(oracles.mean_abs_sign_sum(4), 1.5, atol=1e-15)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            oracles.mean_abs_sign_sum(0)
        with pytest.raises(ValueError):
            oracles.mean_abs_sign_sum(21)


class TestSandwich:
    def test_minimal_exact_instance(self):
        # n=c=1 with cap sigma/2 gives radius 1: lower 1/sqrt(2), upper 1,
        # and the exact worst-case estimate is exactly 1
        report = sandwich_check(n=1, c=1, d=3, cap=0.5, sigma=1.0, seed=0, trials=0)
        assert np.isclose(report.lower_bound, np.sqrt(0.5), atol=1e-12)
        assert np.isclose(report.upper_bound, 1.0, atol=1e-12)
        worst = report.rows[0]
        assert np.isclose(worst.estimate, 1.0, atol=1e-12)
        assert report.passed

    def test_upper_to_lower_gap_is_root_two(self):
        report = sandwich_check(n=4, c=2, d=3, cap=0.5, sigma=1.0, seed=0, trials=0)
        assert np.isclose(report.upper_bound / report.lower_bound, np.sqrt(2.0), rtol=1e-12)

    @pytest.mark.parametrize("nc,trials", [(4, 0), (16, 0), (64, 20_000)])
    def test_estimate_never_exceeds_upper(self, nc, trials):
        report = sandwich_check(
            n=nc // 2, c=2, d=4, cap=0.5, sigma=1.0, seed=1, trials=trials
        )
        for row in report.rows:
            assert row.estimate <= report.upper_bound + 3 * row.std_error + 1e-12
        assert report.passed

    def test_exact_mode_requires_small_nc(self):
        with pytest.raises(ValueError):
            sandwich_check(n=11, c=2, d=3, cap=0.5, sigma=1.0, seed=0, trials=0)

    def test_inflated_lower_bound_fails(self):
        report = sandwich_check(
            n=5, c=2, d=4, cap=0.5, sigma=1.0, seed=1, trials=0, lower_scale=3.0
        )
        assert not report.passed
        assert not report.rows[0].passed  # the worst-case row carries the check

    def test_report_csv_round_trip(self):
        report = sandwich_check(n=5, c=2, d=4, cap=0.5, sigma=1.0, seed=1, trials=0)
        buffer = io.StringIO()
        write_report_csv(report, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "nc,trials,estimate,std_error,lower_bound,upper_bound,pass"
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert int(first[0]) == 10
        assert float(first[2]) == report.rows[0].estimate
        assert first[6] in ("true", "false")

    def test_validation(self):
        with pytest.raises(ValueError):
            sandwich_check(n=0, c=2, d=3, cap=0.5, sigma=1.0, seed=0)
        with pytest.raises(ValueError):
            sandwich_check(n=2, c=2, d=3, cap=-0.5, sigma=1.0, seed=0)
        with pytest.raises(ValueError):
            sandwich_check(n=2, c=2, d=3, cap=0.5, sigma=0.0, seed=0)
        # from finite values: R = sqrt(2 * cap / sigma) overflows (twice),
        # m * sigma overflows so upper is 0, cap / sigma underflows so R is 0
        for cap, sigma in [
            (np.inf, 1.0), (np.nan, 1.0), (0.5, np.inf),
            (1.0, 1e-320), (1e308, 1e-10), (1.0, 1e308), (1e-300, 1e307),
        ]:  # fmt: skip
            with pytest.raises(ValueError):
                sandwich_check(n=2, c=2, d=3, cap=cap, sigma=sigma, seed=0)

    def test_huge_cap_with_finite_radius_runs(self):
        # 2 * cap overflows, but R = sqrt(2 * (cap / sigma)) is about 4.5e153
        report = sandwich_check(n=2, c=2, d=3, cap=1e308, sigma=10.0, seed=0, trials=0)
        assert 0.0 < report.lower_bound < report.upper_bound < np.inf
        assert report.passed

    def test_band_matches_plain_formula_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            cap, sigma = 10.0 ** rng.uniform(-6.0, 6.0, size=2)
            m = 2 * int(rng.integers(1, 8))
            report = sandwich_check(
                n=m // 2, c=2, d=2, cap=cap, sigma=sigma, seed=0, trials=0, random_samples=0
            )
            radius = np.sqrt(2.0 * cap / sigma)
            assert report.lower_bound == float(np.sqrt(1.0 / (2.0 * m)) * radius)
            assert report.upper_bound == float(np.sqrt(2.0 * cap / (m * sigma)))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            sandwich_check(n=2, c=2, d=3, cap=0.5, sigma=1.0, seed=0, random_samples=-3)
        with pytest.raises(ValueError):
            sandwich_check(n=2, c=2, d=3, cap=0.5, sigma=1.0, seed=0, trials=-3)
