import io
import itertools

import numpy as np
import pytest

import oracles
from vvlearn.dataio import Dataset
from vvlearn.rademacher import (
    estimate_complexity,
    identical_pair_sample,
    sandwich_check,
    sup_ball,
    write_report_csv,
)


def sample_from_dense(rows, js, c):
    return Dataset(np.asarray(rows, dtype=float), np.asarray(js, dtype=np.int64), c, "mcc")


def brute_force_sup(sample, signs, radius, directions=200_000, seed=0):
    """Supremum over a dense sample of ball directions; a lower bound on the
    true supremum that approaches it as the direction count grows."""
    rng = np.random.default_rng(seed)
    d, c = sample.d, sample.c
    dense = sample.X.toarray()
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


def exhaustive_estimate(sample, radius):
    sups = []
    for signs in itertools.product((-1.0, 1.0), repeat=len(sample)):
        sups.append(sup_ball(sample, np.array(signs), radius))
    return float(np.mean(sups)) / len(sample)


class TestSupBall:
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

    def test_matches_oracle_on_random_sign_rows(self):
        sample = random_sample(9, 4, seed=2)
        signs = np.random.default_rng(3).choice([-1.0, 1.0], size=(50, len(sample)))
        expected = oracles.sup_batch(sample, signs, 1.7)
        got = np.array([sup_ball(sample, row, 1.7) for row in signs])
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_sign_shape_checked(self):
        sample = sample_from_dense([[1.0]], [0], 1)
        with pytest.raises(ValueError):
            sup_ball(sample, np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ValueError):
            sup_ball(sample, np.array([1.0]), -0.5)


class TestExtendedSample:
    def test_identical_pair_sample(self):
        sample = identical_pair_sample(4, 3, 2)
        assert len(sample) == 4 and sample.d == 3 and sample.c == 2
        assert sample.task == "mcc" and sample.kappa == 1.0
        assert np.array_equal(sample.X.toarray(), np.tile([1.0, 0.0, 0.0], (4, 1)))
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
            sup_ball(empty, np.array([]), 1.0)
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
        with pytest.raises(ValueError, match="mcc"):
            sup_ball(sample, np.ones(2), 1.0)


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
        with pytest.raises(ValueError, match="finite"):
            sup_ball(sample, np.ones(3), np.inf)

    @pytest.mark.parametrize("trials", [0, 100])
    def test_power_of_two_scaling_is_exact_in_range(self, trials):
        sample = random_sample(9, 3, seed=4)
        scaled = sample_from_dense(2.0**400 * sample.X.toarray(), sample.y, 3)
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
        with pytest.raises(ValueError, match="overflowed"):
            sup_ball(sample, np.ones(2), 1.0)

    @pytest.mark.parametrize("trials", [0, 100])
    def test_negative_radius_rejected(self, trials):
        sample = identical_pair_sample(3, 2, 2)
        with pytest.raises(ValueError):
            estimate_complexity(sample, radius=-1.0, trials=trials, seed=0)


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
