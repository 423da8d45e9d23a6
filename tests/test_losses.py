from typing import NamedTuple

import numpy as np
import pytest

import oracles
from vvlearn.losses import HINGE, LOGISTIC, LossSpec, standard_loss_specs

# ---------------------------------------------------------------------------
# Enumeration oracles.  Each one recomputes the loss from its definition with
# plain loops, independent of the vectorized implementation.


class Example(NamedTuple):
    """A dense input and its label as a one-row label array."""

    x: np.ndarray
    label: np.ndarray

    def scores(self, w):
        return self.x @ w


def value(spec, w, z):
    return float(spec.value(z.scores(w)[None, :], z.label)[0])


def subgrad(spec, w, z):
    """The dense (d, c) subgradient: column j is coef[j] * x."""
    return np.outer(z.x, spec.coef(z.scores(w)[None, :], z.label)[0])


def base_value(base, t):
    if base is HINGE:
        return max(0.0, 1.0 - t)
    return float(np.logaddexp(0.0, -t))


def mc_svm_oracle(w, z, base):
    s = z.scores(w)
    y = int(z.label[0])
    return max(base_value(base, s[y] - s[j]) for j in range(len(s)) if j != y)


def mlogistic_oracle(w, z):
    s = z.scores(w)
    y = int(z.label[0])
    return float(np.log(np.sum(np.exp(s - s[y]))))


def topk_oracle(w, z, k):
    s = z.scores(w)
    y = int(z.label[0])
    a = [0.0 if j == y else 1.0 + s[j] - s[y] for j in range(len(s))]
    top = sorted(a, reverse=True)[:k]
    return max(0.0, sum(top) / k)


def subset_oracle(w, z, base):
    s = z.scores(w)
    y = z.label[0]
    return max(base_value(base, y[j] * s[j]) for j in range(len(s)))


def ranking_oracle(w, z, base):
    s = z.scores(w)
    y = z.label[0]
    pos = [j for j in range(len(s)) if y[j] == 1]
    neg = [j for j in range(len(s)) if y[j] == -1]
    vals = [base_value(base, s[p] - s[q]) for p in pos for q in neg]
    return sum(vals) / len(vals)


def central_fd(fun, w, step=1e-6):
    grad = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        bump = np.zeros_like(w)
        bump[idx] = step
        grad[idx] = (fun(w + bump) - fun(w - bump)) / (2 * step)
    return grad


def mcc_example(x_dense, y):
    return Example(np.asarray(x_dense, dtype=float), np.array([y]))


def mlc_example(x_dense, signs):
    return Example(np.asarray(x_dense, dtype=float), np.asarray([signs], dtype=np.int8))


def random_mcc(rng, d, c):
    x = rng.uniform(-2, 2, size=d)
    if not np.any(x):
        x[0] = 1.0
    return mcc_example(x, int(rng.integers(c)))


def random_mlc(rng, d, c):
    x = rng.uniform(-2, 2, size=d)
    if not np.any(x):
        x[0] = 1.0
    signs = np.where(rng.random(c) < 0.5, 1, -1).astype(np.int8)
    signs[rng.integers(c)] = 1
    signs[np.flatnonzero(signs == 1)[0] - 1] = -1  # guarantee both signs
    return mlc_example(x, signs)


MLOG = LossSpec.multinomial_logistic()
THREE_CLASS_W = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # columns (1,0),(0,1),(0,0)


# ---------------------------------------------------------------------------
# Values against oracles and hand-derived constants.


class TestMcSvmValue:
    def test_zero_model(self):
        z = mcc_example([1.0, -1.0], 1)
        assert value(LossSpec.mc_svm(HINGE), np.zeros((2, 3)), z) == 1.0

    def test_hand_value_hinge(self):
        z = mcc_example([1.0, 1.0], 0)
        assert mc_svm_oracle(THREE_CLASS_W, z, HINGE) == 1.0
        assert value(LossSpec.mc_svm(HINGE), THREE_CLASS_W, z) == 1.0

    def test_hand_value_logistic(self):
        z = mcc_example([1.0, 1.0], 0)
        expected = float(np.log(2.0))
        assert np.isclose(mc_svm_oracle(THREE_CLASS_W, z, LOGISTIC), expected, atol=1e-15)
        assert np.isclose(value(LossSpec.mc_svm(LOGISTIC), THREE_CLASS_W, z), expected, atol=1e-15)

    @pytest.mark.parametrize("base", [HINGE, LOGISTIC])
    def test_matches_enumeration(self, base):
        rng = np.random.default_rng(10)
        for _ in range(200):
            d, c = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            w = rng.standard_normal((d, c))
            z = random_mcc(rng, d, c)
            assert np.isclose(
                value(LossSpec.mc_svm(base), w, z), mc_svm_oracle(w, z, base), atol=1e-12
            )

    def test_needs_two_classes(self):
        z = mcc_example([1.0], 0)
        with pytest.raises(ValueError, match="at least 2 components"):
            LossSpec.mc_svm(HINGE).check_labels(z.label, 1)

    def test_rejects_multilabel_example(self):
        z = mlc_example([1.0], [1, -1])
        with pytest.raises(ValueError, match="class indices"):
            LossSpec.mc_svm(HINGE).check_labels(z.label, 2)


class TestMultinomialLogisticValue:
    def test_zero_model_log_c(self):
        z = mcc_example([1.0, 0.0], 1)
        for c in (2, 5, 10):
            got = value(MLOG, np.zeros((2, c)), z)
            assert np.isclose(got, np.log(c), atol=1e-15)

    def test_hand_value(self):
        # d=1, c=2, columns (1) and (0), x=(1), y=0
        w = np.array([[1.0, 0.0]])
        z = mcc_example([1.0], 0)
        expected = float(np.log(1.0 + np.exp(-1.0)))
        assert np.isclose(mlogistic_oracle(w, z), expected, atol=1e-15)
        assert np.isclose(value(MLOG, w, z), expected, atol=1e-15)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d, c = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            w = rng.standard_normal((d, c))
            z = random_mcc(rng, d, c)
            assert np.isclose(
                value(MLOG, w, z), mlogistic_oracle(w, z), atol=1e-12
            )

    def test_nonnegative_even_at_extreme_scores(self):
        # the log-sum always includes the j = y term, so the value is >= 0
        rng = np.random.default_rng(12)
        for _ in range(100):
            w = rng.standard_normal((3, 4)) * 30
            z = random_mcc(rng, 3, 4)
            assert value(MLOG, w, z) >= 0.0


class TestTopkValue:
    def test_zero_model(self):
        z = mcc_example([1.0, 1.0], 0)
        for k in (1, 2):
            assert value(LossSpec.topk_svm(k), np.zeros((2, 3)), z) == 1.0

    def test_hand_value(self):
        z = mcc_example([1.0, 1.0], 0)
        assert topk_oracle(THREE_CLASS_W, z, 2) == 0.5
        assert value(LossSpec.topk_svm(2), THREE_CLASS_W, z) == 0.5

    def test_matches_sort_and_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d, c = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            k = int(rng.integers(1, c))
            w = rng.standard_normal((d, c))
            z = random_mcc(rng, d, c)
            assert np.isclose(
                value(LossSpec.topk_svm(k), w, z), topk_oracle(w, z, k), atol=1e-12
            )

    def test_k_one_is_mc_svm_hinge(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            d, c = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            w = rng.standard_normal((d, c))
            z = random_mcc(rng, d, c)
            assert np.isclose(
                value(LossSpec.topk_svm(1), w, z), value(LossSpec.mc_svm(HINGE), w, z), atol=1e-12
            )

    @pytest.mark.parametrize("k", [0, 3, 7, -1])
    def test_k_range_rejected(self, k):
        z = mcc_example([1.0, 1.0], 0)
        with pytest.raises(ValueError):
            LossSpec.topk_svm(k).check_labels(z.label, 3)


class TestSubsetValue:
    def test_zero_model(self):
        z = mlc_example([1.0, 1.0], [1, -1, 1])
        assert value(LossSpec.subset(HINGE), np.zeros((2, 3)), z) == 1.0

    def test_hand_values(self):
        z = mlc_example([1.0, 1.0], [1, -1, 1])
        assert subset_oracle(THREE_CLASS_W, z, HINGE) == 2.0
        assert value(LossSpec.subset(HINGE), THREE_CLASS_W, z) == 2.0
        expected = float(np.log(1.0 + np.e))
        assert np.isclose(subset_oracle(THREE_CLASS_W, z, LOGISTIC), expected, atol=1e-15)
        assert np.isclose(value(LossSpec.subset(LOGISTIC), THREE_CLASS_W, z), expected, atol=1e-15)

    @pytest.mark.parametrize("base", [HINGE, LOGISTIC])
    def test_matches_enumeration(self, base):
        rng = np.random.default_rng(15)
        for _ in range(200):
            d, c = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            w = rng.standard_normal((d, c))
            z = random_mlc(rng, d, c)
            assert np.isclose(
                value(LossSpec.subset(base), w, z), subset_oracle(w, z, base), atol=1e-12
            )

    def test_rejects_multiclass_example(self):
        z = mcc_example([1.0], 0)
        with pytest.raises(ValueError, match="sign vectors"):
            LossSpec.subset(HINGE).check_labels(z.label, 2)


class TestRankingValue:
    def test_zero_model(self):
        z = mlc_example([1.0, 1.0], [1, -1, 1])
        assert value(LossSpec.ranking(HINGE), np.zeros((2, 3)), z) == 1.0
        z2 = mlc_example([1.0], [1, 1, 1, -1])
        assert value(LossSpec.ranking(HINGE), np.zeros((1, 4)), z2) == 1.0

    def test_hand_value(self):
        z = mlc_example([1.0, 1.0], [1, -1, 1])
        assert ranking_oracle(THREE_CLASS_W, z, HINGE) == 1.5
        assert value(LossSpec.ranking(HINGE), THREE_CLASS_W, z) == 1.5

    @pytest.mark.parametrize("base", [HINGE, LOGISTIC])
    def test_matches_pair_enumeration(self, base):
        rng = np.random.default_rng(16)
        for _ in range(200):
            d, c = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            w = rng.standard_normal((d, c))
            z = random_mlc(rng, d, c)
            assert np.isclose(
                value(LossSpec.ranking(base), w, z), ranking_oracle(w, z, base), atol=1e-12
            )

    def test_single_sign_rejected(self):
        z = mlc_example([1.0], [1, 1])
        with pytest.raises(ValueError, match="one sign only"):
            LossSpec.ranking(HINGE).check_labels(z.label, 2)


# ---------------------------------------------------------------------------
# Subgradients: finite differences on smooth regions, tie rules at kinks,
# structural identities.


class TestMcSvmSubgrad:
    def test_zero_model_hinge_structure(self):
        # margin 0 < 1 everywhere, smallest competing index wins
        z = mcc_example([2.0, -1.0], 1)
        g = subgrad(LossSpec.mc_svm(HINGE), np.zeros((2, 3)), z)
        x = z.x
        expected = np.zeros((2, 3))
        expected[:, 1] = -x  # column y
        expected[:, 0] = x   # y* = smallest index != y
        assert np.array_equal(g, expected)

    def test_hinge_at_margin_one_is_zero(self):
        # columns (1,0),(0,0), x=(1,0), y=0: single margin exactly 1
        w = np.array([[1.0, 0.0], [0.0, 0.0]])
        z = mcc_example([1.0, 0.0], 0)
        g = subgrad(LossSpec.mc_svm(HINGE), w, z)
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_logistic_finite_differences(self):
        rng = np.random.default_rng(20)
        checked = 0
        while checked < 60:
            d, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            w = rng.standard_normal((d, c))
            z = random_mcc(rng, d, c)
            s = z.scores(w)
            y = int(z.label[0])
            vals = np.array([base_value(LOGISTIC, s[y] - s[j]) for j in range(c) if j != y])
            top2 = np.sort(vals)[-2:]
            if vals.size > 1 and top2[1] - top2[0] < 1e-3:
                continue  # too close to the max kink for finite differences
            fd = central_fd(lambda m: value(LossSpec.mc_svm(LOGISTIC), m, z), w)
            g = subgrad(LossSpec.mc_svm(LOGISTIC), w, z)
            assert np.allclose(g, fd, atol=1e-6), (g, fd)
            checked += 1

    def test_rank_one_structure(self):
        rng = np.random.default_rng(21)
        for base in (HINGE, LOGISTIC):
            w = rng.standard_normal((4, 3))
            z = random_mcc(rng, 4, 3)
            g = subgrad(LossSpec.mc_svm(base), w, z)
            assert np.linalg.matrix_rank(g) <= 1


class TestMultinomialLogisticSubgrad:
    def test_zero_model_uniform_softmax(self):
        z = mcc_example([1.0, -2.0], 0)
        c = 4
        g = subgrad(MLOG, np.zeros((2, c)), z)
        x = z.x
        expected = np.outer(x, np.full(c, 1.0 / c))
        expected[:, 0] -= x
        assert np.allclose(g, expected, atol=1e-15)

    def test_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            d, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            w = rng.standard_normal((d, c))
            z = random_mcc(rng, d, c)
            fd = central_fd(lambda m: value(MLOG, m, z), w)
            g = subgrad(MLOG, w, z)
            assert np.allclose(g, fd, atol=1e-6)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            w = rng.standard_normal((3, 5))
            z = random_mcc(rng, 3, 5)
            g = subgrad(MLOG, w, z)
            assert np.allclose(g.sum(axis=1), 0.0, atol=1e-14)


class TestTopkSubgrad:
    def test_negative_region_zero(self):
        # all a_j for j != y far below zero => averaged top-k < 0 => flat
        w = np.array([[10.0, 0.0, 0.0]])
        z = mcc_example([1.0], 0)
        g = subgrad(LossSpec.topk_svm(2), w, z)
        assert np.array_equal(g, np.zeros((1, 3)))

    def test_finite_differences_smooth(self):
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 60:
            d, c = int(rng.integers(1, 5)), int(rng.integers(3, 6))
            k = int(rng.integers(1, c))
            w = rng.standard_normal((d, c))
            z = random_mcc(rng, d, c)
            y = int(z.label[0])
            s = z.scores(w)
            a = 1.0 + s - s[y]
            a[y] = 0.0
            ordered = np.sort(a)[::-1]
            avg = ordered[:k].sum() / k
            if abs(avg) < 1e-3:  # outer max kink
                continue
            if k < c and ordered[k - 1] - ordered[k] < 1e-3:  # selection tie
                continue
            fd = central_fd(lambda m: value(LossSpec.topk_svm(k), m, z), w)
            g = subgrad(LossSpec.topk_svm(k), w, z)
            assert np.allclose(g, fd, atol=1e-6)
            checked += 1

    def test_k_one_matches_mc_svm_hinge(self):
        rng = np.random.default_rng(25)
        checked = 0
        while checked < 100:
            d, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            w = rng.standard_normal((d, c))
            z = random_mcc(rng, d, c)
            y = int(z.label[0])
            s = z.scores(w)
            margins = np.array([s[y] - s[j] for j in range(c) if j != y])
            if np.min(np.abs(margins - 1.0)) < 1e-6:
                continue  # hinge kink: subgradient choices may differ
            vals = 1.0 - margins
            top2 = np.sort(vals)[-2:]
            if vals.size > 1 and top2[1] - top2[0] < 1e-6:
                continue  # argmax tie
            a = subgrad(LossSpec.mc_svm(HINGE), w, z)
            b = subgrad(LossSpec.topk_svm(1), w, z)
            assert np.allclose(a, b, atol=1e-12)
            checked += 1


class TestSubsetSubgrad:
    def test_zero_model_tie_picks_first_column(self):
        z = mlc_example([1.0, 2.0], [-1, 1, 1])
        g = subgrad(LossSpec.subset(HINGE), np.zeros((2, 3)), z)
        x = z.x
        expected = np.zeros((2, 3))
        expected[:, 0] = x  # -y_0 * deriv(0) * x = -(-1)(-1)x ... sign check below
        # hinge slope at 0 is -1, label -1: contribution -(-1)*x? expand: g_0 = y_0 * deriv * x
        expected[:, 0] = -1 * -1 * x
        assert np.array_equal(g, expected)

    def test_single_nonzero_column(self):
        rng = np.random.default_rng(26)
        for base in (HINGE, LOGISTIC):
            for _ in range(50):
                d, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
                w = rng.standard_normal((d, c))
                z = random_mlc(rng, d, c)
                g = subgrad(LossSpec.subset(base), w, z)
                nonzero_cols = np.flatnonzero(np.any(g != 0.0, axis=0))
                assert nonzero_cols.size <= 1

    def test_logistic_finite_differences(self):
        rng = np.random.default_rng(27)
        checked = 0
        while checked < 60:
            d, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            w = rng.standard_normal((d, c))
            z = random_mlc(rng, d, c)
            s = z.scores(w)
            y = z.label[0]
            vals = np.array([base_value(LOGISTIC, y[j] * s[j]) for j in range(c)])
            top2 = np.sort(vals)[-2:]
            if top2[1] - top2[0] < 1e-3:
                continue
            fd = central_fd(lambda m: value(LossSpec.subset(LOGISTIC), m, z), w)
            g = subgrad(LossSpec.subset(LOGISTIC), w, z)
            assert np.allclose(g, fd, atol=1e-6)
            checked += 1


class TestRankingSubgrad:
    def test_zero_model_hinge_pair_slopes(self):
        z = mlc_example([1.0, -1.0], [1, 1, -1])
        c = 3
        g = subgrad(LossSpec.ranking(HINGE), np.zeros((2, c)), z)
        # every pair has margin 0, hinge slope -1, two pairs (0,2),(1,2)
        x = z.x
        expected = np.zeros((2, c))
        expected[:, 0] = -x / 2
        expected[:, 1] = -x / 2
        expected[:, 2] = x
        assert np.allclose(g, expected, atol=1e-15)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(28)
        for base in (HINGE, LOGISTIC):
            for _ in range(50):
                d, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
                w = rng.standard_normal((d, c))
                z = random_mlc(rng, d, c)
                g = subgrad(LossSpec.ranking(base), w, z)
                assert np.allclose(g.sum(axis=1), 0.0, atol=1e-13)

    def test_logistic_finite_differences(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            d, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            w = rng.standard_normal((d, c))
            z = random_mlc(rng, d, c)
            fd = central_fd(lambda m: value(LossSpec.ranking(LOGISTIC), m, z), w)
            g = subgrad(LossSpec.ranking(LOGISTIC), w, z)
            assert np.allclose(g, fd, atol=1e-6)


# ---------------------------------------------------------------------------
# Convexity and the subgradient inequality, loss by loss.


def loss_pairs():
    specs = standard_loss_specs(k=2)
    return [pytest.param(spec, id=spec.name) for spec in specs]


def min_classes(spec):
    # top-k needs k+1 classes; everything else works from two upward
    return spec.k + 1 if spec.kind == "topk_svm" else 2


@pytest.mark.parametrize("spec", loss_pairs())
def test_subgradient_inequality(spec):
    rng = np.random.default_rng(30)
    maker = random_mlc if spec.is_multilabel else random_mcc
    for _ in range(300):
        d, c = int(rng.integers(1, 5)), int(rng.integers(min_classes(spec), 6))
        z = maker(rng, d, c)
        w1 = rng.uniform(-3, 3, size=(d, c))
        w2 = rng.uniform(-3, 3, size=(d, c))
        g = subgrad(spec, w1, z)
        lower = value(spec, w1, z) + float(np.sum(g * (w2 - w1)))
        assert value(spec, w2, z) >= lower - 1e-9


@pytest.mark.parametrize("spec", loss_pairs())
def test_midpoint_convexity(spec):
    rng = np.random.default_rng(31)
    maker = random_mlc if spec.is_multilabel else random_mcc
    for _ in range(300):
        d, c = int(rng.integers(1, 5)), int(rng.integers(min_classes(spec), 6))
        z = maker(rng, d, c)
        w1 = rng.uniform(-3, 3, size=(d, c))
        w2 = rng.uniform(-3, 3, size=(d, c))
        theta = float(rng.random())
        mix = theta * w1 + (1 - theta) * w2
        bound = theta * value(spec, w1, z) + (1 - theta) * value(spec, w2, z)
        assert value(spec, mix, z) <= bound + 1e-9


# ---------------------------------------------------------------------------
# Certified Lipschitz constants with respect to the max-norm of score changes.


EXPECTED_LIPSCHITZ = {
    "mc_svm/hinge": 2.0,
    "mc_svm/logistic": 2.0,
    "multinomial_logistic": 2.0,
    "topk_svm/k=2": 2.0,
    "subset/hinge": 1.0,
    "subset/logistic": 1.0,
    "ranking/hinge": 2.0,
    "ranking/logistic": 2.0,
}


def test_lipschitz_table_frozen():
    specs = standard_loss_specs(k=2)
    assert {s.name: s.lipschitz_inf for s in specs} == EXPECTED_LIPSCHITZ


def test_standard_specs_cover_eight_combinations():
    names = [s.name for s in standard_loss_specs(k=2)]
    assert len(names) == len(set(names)) == 8


@pytest.mark.parametrize("spec", loss_pairs())
def test_lipschitz_bound_random(spec):
    rng = np.random.default_rng(32)
    maker = random_mlc if spec.is_multilabel else random_mcc
    for _ in range(300):
        d, c = int(rng.integers(1, 5)), int(rng.integers(min_classes(spec), 6))
        z = maker(rng, d, c)
        w1 = rng.uniform(-5, 5, size=(d, c))
        w2 = rng.uniform(-5, 5, size=(d, c))
        gap = np.max(np.abs(z.scores(w1) - z.scores(w2)))
        diff = abs(value(spec, w1, z) - value(spec, w2, z))
        assert diff <= spec.lipschitz_inf * gap + 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_lipschitz_constant_finite_and_nonnegative(bad):
    with pytest.raises(ValueError, match="lipschitz_inf"):
        LossSpec.mc_svm(HINGE).with_lipschitz(bad)


def test_with_lipschitz_replaces_only_constant():
    spec = LossSpec.mc_svm(HINGE)
    loose = spec.with_lipschitz(0.5)
    assert loose.lipschitz_inf == 0.5
    assert loose.name == spec.name
    z = mcc_example([1.0, 1.0], 0)
    assert value(loose, THREE_CLASS_W, z) == value(spec, THREE_CLASS_W, z)


# ---------------------------------------------------------------------------
# Batched kernels against the per-example oracles, row by row.


ORACLE_SPECS = standard_loss_specs(k=2) + [LossSpec.topk_svm(3), LossSpec.topk_svm(4)]
# Hinge-based kinds must match exactly; logistic and softmax to 1e-15.
SMOOTH = {"mc_svm/logistic", "multinomial_logistic", "subset/logistic", "ranking/logistic"}


def oracle_batches(spec, seed):
    """Score matrices with ties and kinks, and labels of the loss's kind.

    Half the batches draw scores from a grid of halves, so equal scores
    (argmax and top-k ties), margins of exactly 1 (the hinge kink) and
    top-k averages at or below zero (the flat region) all occur.
    """
    rng = np.random.default_rng(seed)
    for trial in range(60):
        c = int(rng.integers(max(3, (spec.k or 0) + 1), 9))
        n = int(rng.integers(1, 40))
        if trial % 2:
            S = rng.integers(-4, 5, size=(n, c)) * 0.5
        else:
            S = rng.standard_normal((n, c)) * 2.0
        if trial % 7 == 0:
            S[:] = 0.0  # every score tied
        if spec.is_multilabel:
            y = np.where(rng.random((n, c)) < 0.4, 1, -1).astype(np.int8)
            y[:, 0], y[:, 1] = 1, -1
            y = y[:, rng.permutation(c)]
        else:
            y = rng.integers(0, c, size=n)
        yield S, y


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_batched_kernels_match_per_example_oracles(spec):
    tol = 1e-15 if spec.name in SMOOTH else 0.0
    kinks = flats = 0
    for S, y in oracle_batches(spec, seed=40):
        values, coefs = spec.value(S, y), spec.coef(S, y)
        assert values.shape == (len(y),) and coefs.shape == S.shape
        for i in range(len(y)):
            assert abs(values[i] - oracles.row_value(spec, S[i], y[i])) <= tol
            assert np.max(np.abs(coefs[i] - oracles.row_coef(spec, S[i], y[i]))) <= tol
        if spec.kind == "mc_svm":
            kinks += int(np.sum(S[np.arange(len(y)), y][:, None] - S == 1.0))
        if spec.kind == "topk_svm":
            flats += int(np.sum(values == 0.0))
    if spec.kind == "mc_svm":
        assert kinks > 0  # the hinge kink at t = 1 was exercised
    if spec.kind == "topk_svm":
        assert flats > 0  # so was top-k's flat region


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_single_row_kernel_matches_its_batch_row(spec):
    # the SGD step calls the kernels on one row; that must equal the batch
    for S, y in oracle_batches(spec, seed=41):
        values, coefs = spec.value(S, y), spec.coef(S, y)
        for i in range(len(y)):
            assert spec.value(S[i : i + 1], y[i : i + 1])[0] == values[i]
            assert np.array_equal(spec.coef(S[i : i + 1], y[i : i + 1])[0], coefs[i])


def test_tie_breaking_is_pinned():
    S = np.zeros((1, 4))
    # mc_svm: all margins tie, so the first wrong class takes -g
    assert np.array_equal(LossSpec.mc_svm(HINGE).coef(S, np.array([2])), [[1.0, 0.0, -1.0, 0.0]])
    # top-k: a = (1, 0, 1, 1) for y = 1; the two smallest tied indices win
    assert np.array_equal(LossSpec.topk_svm(2).coef(S, np.array([1])), [[0.5, -1.0, 0.5, 0.0]])
    # subset: every term ties, the first component carries the coefficient
    signs = np.array([[-1, 1, 1, -1]], dtype=np.int8)
    assert np.array_equal(LossSpec.subset(HINGE).coef(S, signs), [[1.0, 0.0, 0.0, 0.0]])
    # hinge kink: margin exactly 1 gives the zero subgradient
    kink = np.array([[1.0, 0.0]])
    assert np.array_equal(LossSpec.mc_svm(HINGE).coef(kink, np.array([0])), [[0.0, 0.0]])


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_check_labels_accepts_its_own_kind(spec):
    for S, y in oracle_batches(spec, seed=42):
        spec.check_labels(y, S.shape[1])
