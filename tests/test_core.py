import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp

import oracles
import vvlearn.core as core_module
import vvlearn.optimizer as optimizer_module
from vvlearn.core import frobenius_norm, l2p_norm, nnz_groups, predict, squared_norms
from vvlearn.dataio import Dataset
from vvlearn.losses import LossSpec


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
        assert np.array_equal(predict(w, sp.csr_matrix(np.array([[1.0, 1.0]]))), np.array([[1.0, 1.0]]))

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


def same_bits(a, b):
    """Equal shapes and float64 bits, so signs of zero count."""
    return a.shape == b.shape and np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def mixed_rows(rng, n, d):
    """A CSR matrix of ragged, empty and full-width rows, with explicit +0.0 and -0.0 entries."""
    dense = np.where(rng.random((n, d)) < rng.uniform(0.1, 0.9), rng.standard_normal((n, d)), 0.0)
    dense[rng.random(n) < 0.3] = rng.standard_normal(d)  # full-width rows
    dense[rng.random(n) < 0.2] = 0.0  # empty rows
    dense *= 10.0 ** rng.integers(-3, 4, size=(n, d))
    X = sp.csr_matrix(dense)
    X.data[rng.random(X.nnz) < 0.05] = -0.0
    X.data[rng.random(X.nnz) < 0.05] = 0.0
    return X


class TestPredictOracle:
    """predict against scipy's sparse product, bit for bit."""

    @pytest.mark.parametrize("budget", [1, 16, 37, None], ids=lambda b: f"gather{b or ''}")
    @pytest.mark.parametrize("c", [1, 2, 5, 36])
    def test_matches_scipy_bit_for_bit(self, c, budget, monkeypatch):
        if budget is not None:  # pieces of one row up to whole groups
            monkeypatch.setattr(core_module, "_GATHER_VALUES", budget)
        rng = np.random.default_rng(c)
        for _ in range(60):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            X = mixed_rows(rng, n, d)
            w = rng.standard_normal((d, c)) * 10.0 ** rng.integers(-3, 4, size=(d, c))
            w[rng.random((d, c)) < 0.1] = -0.0
            rows = rng.integers(0, n, size=int(rng.integers(1, 3 * n)))
            assert same_bits(predict(w, X, rows), np.asarray(X[rows] @ w))
            assert same_bits(predict(w, X), np.asarray(X @ w))

    def test_peak_memory_holds_one_piece_of_w(self):
        # 1,000 rows of 20 entries at c = 256: one gather of w for them all would be 41 MB
        n, d, k, c = 1000, 2000, 20, 256
        rng = np.random.default_rng(6)
        cols = np.concatenate([np.sort(rng.choice(d, size=k, replace=False)) for _ in range(n)])
        X = Dataset(sp.csr_matrix((rng.standard_normal(n * k), cols, np.arange(0, n * k + 1, k)), shape=(n, d)),
                    np.zeros(n, dtype=int), 1, "mcc").X
        w = rng.standard_normal((d, c))
        tracemalloc.start()
        try:
            out = predict(w, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n * k * c * 8 > 8 << 20
        assert peak <= 8 * core_module._GATHER_VALUES + out.nbytes + (64 << 10)
        assert same_bits(out, np.asarray(oracles.scipy_csr(X) @ w))

    def test_negative_zero_products_sum_to_positive_zero(self):
        X = sp.csr_matrix((np.array([-0.0, 1.0, -1.0]), np.array([0, 0, 1]), np.array([0, 0, 1, 3])), shape=(3, 2))
        w = np.array([[1.0, -0.0], [1.0, -0.0]])  # every product is 0.0 or -0.0, or row 2's 1.0 and -1.0
        assert same_bits(predict(w, X), np.zeros((3, 2))) and same_bits(np.asarray(X @ w), np.zeros((3, 2)))

    @pytest.mark.parametrize("c", [1, 2, 5, 36])
    def test_chunked_row_losses_match_scipy_scores(self, c, monkeypatch):
        rng = np.random.default_rng(40 + c)
        X = mixed_rows(rng, 50, 12)
        data = Dataset(X, rng.integers(0, c, size=50), c, "mcc")
        w = rng.standard_normal((12, c))
        rows = rng.integers(0, 50, size=90)
        loss = LossSpec.multinomial_logistic()
        monkeypatch.setattr(optimizer_module, "_EVAL_CHUNK_ENTRIES", 7 * c)  # seven rows per chunk
        got = optimizer_module._row_losses(w, data, loss, rows)
        assert same_bits(got, loss.value(np.asarray(X[rows] @ w), data.y[rows]))


def per_row_groups(indptr, rows, max_entries):
    """The groups ``nnz_groups`` should yield, found one row at a time."""
    positions = range(len(indptr) - 1) if rows is None else range(len(rows))
    row = (lambda i: i) if rows is None else (lambda i: int(rows[i]))
    widths = {i: int(indptr[row(i) + 1] - indptr[row(i)]) for i in positions}
    groups = []
    for k in sorted(set(widths.values()) - {0}):
        members = [i for i in positions if widths[i] == k]
        size = len(members) if max_entries is None else max(1, max_entries // k)
        for lo in range(0, len(members), size):
            piece = members[lo : lo + size]
            groups.append((piece, [int(indptr[row(i)]) for i in piece], k))
    return groups


class TestNnzGroups:
    """nnz_groups against a per-row oracle: k ascending, members ascending, empty rows skipped."""

    @pytest.mark.parametrize("max_entries", [None, 1, 5, 12, 1000])
    @pytest.mark.parametrize("given", [False, True])
    def test_matches_per_row_grouping(self, given, max_entries):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            widths = rng.integers(0, 9, size=n) * (rng.random(n) < 0.8)  # about one row in five is empty
            indptr = np.concatenate(([0], np.cumsum(widths)))
            rows = rng.integers(0, n, size=int(rng.integers(1, 3 * n))) if given else None  # repeats when given
            got = [(m.tolist(), s.tolist(), k) for m, s, k in nnz_groups(indptr, rows, max_entries)]
            assert got == per_row_groups(indptr, rows, max_entries)
            for members, _, k in got:
                assert k > 0 and members == sorted(members)
                assert max_entries is None or len(members) * k <= max_entries or len(members) == 1
            assert [k for _, _, k in got] == sorted(k for _, _, k in got)

    def test_a_row_wider_than_the_bound_is_a_group_of_one(self):
        indptr = np.array([0, 7, 14, 16])
        assert [(m.tolist(), s.tolist(), k) for m, s, k in nnz_groups(indptr, max_entries=4)] == [
            ([2], [14], 2),
            ([0], [0], 7),
            ([1], [7], 7),
        ]

    def test_a_layout_without_entries_has_no_groups(self):
        indptr = np.zeros(5, dtype=np.int64)
        assert list(nnz_groups(indptr)) == []
        assert list(nnz_groups(indptr, np.array([3, 0, 3]), max_entries=2)) == []
        assert list(nnz_groups(np.zeros(1, dtype=np.int64))) == []


class TestSquaredNorms:
    def test_rows_of_one_piece_are_one_dot(self):
        a = np.random.default_rng(4).standard_normal((3, core_module._DOT_PIECE))
        assert squared_norms(a).tobytes() == np.vecdot(a, a).tobytes()

    def test_longer_rows_add_their_pieces_left_to_right(self, monkeypatch):
        monkeypatch.setattr(core_module, "_DOT_PIECE", 4)
        a = np.random.default_rng(5).standard_normal((6, 11)) * 10.0 ** np.arange(11)
        pieces = [np.vecdot(a[:, lo : lo + 4], a[:, lo : lo + 4]) for lo in (0, 4, 8)]
        assert squared_norms(a).tobytes() == ((pieces[0] + pieces[1]) + pieces[2]).tobytes()


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
