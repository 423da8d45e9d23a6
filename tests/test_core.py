import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp

from vvlearn.core import frobenius_norm, l2p_norm, predict


def predict_oracle(w, x):
    """Dense dot-product reference: materialize x and multiply."""
    return x.toarray() @ w


def random_sparse(rng, dim, rows=1, density=0.5):
    mask = rng.random((rows, dim)) < density
    return sp.csr_matrix(np.where(mask, rng.standard_normal((rows, dim)), 0.0))


class TestPredict:
    def test_zero_model_trivial(self):
        x = sp.csr_matrix(np.array([[0.0, 1.0, -2.0, 0.0]]))
        assert np.array_equal(predict(np.zeros((4, 3)), x), np.zeros((1, 3)))

    def test_identity_like_columns_trivial(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(predict(w, np.array([1.0, 1.0])), np.array([1.0, 1.0]))

    def test_two_column_value(self):
        # columns (1,2,0) and (0,0,3) against sparse {0: 2.0, 2: 1.0}
        w = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        x = sp.csr_matrix((np.array([2.0, 1.0]), np.array([0, 2]), np.array([0, 2])), shape=(1, 3))
        expected = np.array([[2.0, 3.0]])
        assert np.array_equal(predict_oracle(w, x), expected)
        assert np.array_equal(predict(w, x), expected)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d, c = rng.integers(1, 10), rng.integers(1, 6)
            w = rng.standard_normal((d, c))
            x = random_sparse(rng, d, rows=int(rng.integers(1, 5)))
            assert np.allclose(predict(w, x), predict_oracle(w, x), atol=1e-12)

    def test_empty_rows_score_zero(self):
        x = sp.csr_matrix((3, 4))
        assert np.array_equal(predict(np.ones((4, 2)), x), np.zeros((3, 2)))

    def test_dim_mismatch_rejected(self):
        x = sp.csr_matrix(np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            predict(np.zeros((4, 2)), x)
        with pytest.raises(ValueError):
            predict(np.zeros(3), x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 5))
    def test_predict_property(self, seed, d, c):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((d, c))
        x = random_sparse(rng, d)
        assert np.allclose(predict(w, x), predict_oracle(w, x), atol=1e-12)


class TestNorms:
    def test_frobenius_values(self):
        assert frobenius_norm(np.zeros((3, 2))) == 0.0
        assert frobenius_norm(np.array([[3.0, 0.0], [0.0, 4.0]])) == 5.0
        assert frobenius_norm(np.ones((4, 1))) == 2.0

    def test_l2p_zero(self):
        assert l2p_norm(np.zeros((3, 2)), 1.5) == 0.0

    def test_l2p_unit_columns(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.isclose(l2p_norm(w, 1.5), 2.0 ** (2.0 / 3.0), atol=1e-12)

    def test_l2p_at_two_matches_frobenius(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            w = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 6)))
            assert np.isclose(l2p_norm(w, 2.0), frobenius_norm(w), atol=1e-12)

    def test_l2p_formula_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            w = rng.standard_normal((5, 4))
            p = float(rng.uniform(1.01, 2.0))
            cols = np.sqrt((w * w).sum(axis=0))
            expected = float((cols**p).sum() ** (1.0 / p))
            assert np.isclose(l2p_norm(w, p), expected, rtol=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.5, -1.0])
    def test_l2p_exponent_range(self, p):
        with pytest.raises(ValueError):
            l2p_norm(np.ones((2, 2)), p)
