import numpy as np
import pytest

from vvlearn.core import frobenius_norm, l2p_norm
from vvlearn.regularizers import RegularizerSpec


def central_fd(fun, w, step=1e-6):
    grad = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        bump = np.zeros_like(w)
        bump[idx] = step
        grad[idx] = (fun(w + bump) - fun(w - bump)) / (2 * step)
    return grad


class TestValues:
    def test_zero(self):
        assert RegularizerSpec.frobenius(0.3).value(np.zeros((3, 2))) == 0.0
        assert RegularizerSpec.l2p(0.3, 1.5).value(np.zeros((3, 2))) == 0.0

    def test_frobenius_hand_value(self):
        # norm 5 at sigma 0.01 gives 0.5 * 0.01 * 25
        w = np.array([[3.0, 0.0], [0.0, 4.0]])
        reg = RegularizerSpec.frobenius(0.01)
        assert np.isclose(reg.value(w), 0.125, atol=1e-15)

    def test_formula_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            w = rng.standard_normal((4, 3))
            sigma = float(rng.uniform(0.05, 2.0))
            p = float(rng.uniform(1.01, 2.0))
            fro = RegularizerSpec.frobenius(sigma)
            assert np.isclose(fro.value(w), 0.5 * sigma * frobenius_norm(w) ** 2, rtol=1e-12)
            lp = RegularizerSpec.l2p(sigma, p)
            assert np.isclose(lp.value(w), 0.5 * sigma * l2p_norm(w, p) ** 2, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 4), (7, 1), (1, 5), (40, 30)])
    def test_a_stack_gets_each_matrix_value_bit_for_bit(self, shape):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((9, *shape)) * 10.0 ** rng.integers(-3, 4, size=(9, 1, 1))
        for reg in (RegularizerSpec.frobenius(0.3), RegularizerSpec.l2p(0.3, 1.37)):
            values = reg.value(stack)
            assert values.shape == (9,)
            assert values.tobytes() == np.array([reg.value(w) for w in stack]).tobytes()
            assert type(reg.value(stack[0])) is float
            assert reg.value(stack.reshape(3, 3, *shape)).tobytes() == values.tobytes()

    def test_l2p_at_two_equals_frobenius(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.standard_normal((5, 4))
            a = RegularizerSpec.l2p(0.7, 2.0)
            b = RegularizerSpec.frobenius(0.7)
            assert np.isclose(a.value(w), b.value(w), rtol=1e-12)
            assert np.allclose(a.grad(w), b.grad(w), atol=1e-12)


class TestGradients:
    def test_frobenius_gradient_is_sigma_w(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 3))
        assert np.array_equal(RegularizerSpec.frobenius(0.25).grad(w), 0.25 * w)

    def test_l2p_gradient_at_zero(self):
        assert np.array_equal(
            RegularizerSpec.l2p(0.5, 1.5).grad(np.zeros((3, 2))), np.zeros((3, 2))
        )

    def test_l2p_zero_column_stays_zero(self):
        w = np.array([[1.0, 0.0], [2.0, 0.0]])
        g = RegularizerSpec.l2p(0.5, 1.5).grad(w)
        assert np.array_equal(g[:, 1], np.zeros(2))
        assert np.all(g[:, 0] != 0.0)

    def test_l2p_finite_differences(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 40:
            w = rng.standard_normal((4, 3))
            if np.min(np.linalg.norm(w, axis=0)) < 0.1:
                continue  # keep away from the nonsmooth zero-column set
            p = float(rng.uniform(1.05, 2.0))
            sigma = float(rng.uniform(0.1, 2.0))
            reg = RegularizerSpec.l2p(sigma, p)
            fd = central_fd(reg.value, w)
            err = np.max(np.abs(reg.grad(w) - fd))
            assert err <= 1e-5 * max(1.0, float(np.max(np.abs(fd))))
            checked += 1


class TestStrongConvexity:
    def test_moduli(self):
        assert RegularizerSpec.frobenius(0.4).strong_convexity == 0.4
        assert np.isclose(RegularizerSpec.l2p(0.4, 1.5).strong_convexity, 0.4 * 0.5)

    @pytest.mark.parametrize(
        "reg",
        [RegularizerSpec.frobenius(0.8), RegularizerSpec.l2p(0.8, 1.5)],
        ids=["frobenius", "l2p"],
    )
    def test_midpoint_strong_convexity(self, reg):
        # r((u+v)/2) <= r(u)/2 + r(v)/2 - mu/8 * ||u - v||^2 in the spec's norm
        rng = np.random.default_rng(4)
        mu = reg.strong_convexity
        for _ in range(200):
            u = rng.uniform(-3, 3, size=(3, 4))
            v = rng.uniform(-3, 3, size=(3, 4))
            gap = reg.norm(u - v)
            lhs = reg.value((u + v) / 2)
            rhs = 0.5 * reg.value(u) + 0.5 * reg.value(v) - mu / 8.0 * gap**2
            assert lhs <= rhs + 1e-9

    @pytest.mark.parametrize(
        "reg",
        [RegularizerSpec.frobenius(0.8), RegularizerSpec.l2p(0.8, 1.5)],
        ids=["frobenius", "l2p"],
    )
    def test_gradient_strong_convexity(self, reg):
        # r(v) >= r(u) + <grad(u), v-u> + mu/2 * ||v - u||^2
        rng = np.random.default_rng(5)
        mu = reg.strong_convexity
        for _ in range(200):
            u = rng.uniform(-3, 3, size=(3, 4))
            v = rng.uniform(-3, 3, size=(3, 4))
            gap = reg.norm(v - u)
            lower = reg.value(u) + float(np.sum(reg.grad(u) * (v - u))) + mu / 2.0 * gap**2
            assert reg.value(v) >= lower - 1e-9


class TestValidation:
    @pytest.mark.parametrize("sigma", [0.0, -0.1, np.inf])
    def test_sigma_positive(self, sigma):
        with pytest.raises(ValueError):
            RegularizerSpec.frobenius(sigma)
        with pytest.raises(ValueError):
            RegularizerSpec.l2p(sigma, 1.5)

    @pytest.mark.parametrize("p", [1.0, 0.5, 2.5])
    def test_p_range(self, p):
        with pytest.raises(ValueError):
            RegularizerSpec.l2p(0.5, p)

    def test_names(self):
        assert RegularizerSpec.frobenius(0.5).name == "frobenius"
        assert RegularizerSpec.l2p(0.5, 1.5).name.startswith("l2p")
