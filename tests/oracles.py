"""Reference implementations the fast kernels replaced.

The per-example loss oracles are the single-example loss values and
subgradient coefficients the batched kernels in ``vvlearn.losses``
replaced.  Each takes a score vector ``s`` of shape (c,) and a label (a
class index, or a +1/-1 sign vector), so tests can compare the batched
kernels against them row by row.

The Rademacher oracles are the per-component supremum loop and the flat
enumeration of all 2^m sign vectors that ``vvlearn.rademacher`` replaced
with component-sorted slices and a meet-in-the-middle sum, plus the exact
sign-sum moment E|sum of m signs| behind the sandwich's Khintchine floor.

``sgd_step`` is the dense O(d * c) subgradient step that the lazily scaled
training loop in ``vvlearn.optimizer`` must reproduce to rounding.
"""

import numpy as np
from scipy.special import expit


def base_value(base, t):
    t = np.asarray(t, dtype=np.float64)
    if base.kind == "hinge":
        return np.maximum(0.0, 1.0 - t)
    return np.logaddexp(0.0, -t)


def base_deriv(base, t):
    t = np.asarray(t, dtype=np.float64)
    if base.kind == "hinge":
        return np.where(t < 1.0, -1.0, 0.0)
    return -expit(-t)


def mc_svm_value(s, y, base):
    margins = np.delete(s[y] - s, y)
    return float(np.max(base_value(base, margins)))


def mc_svm_coef(s, y, base):
    vals = base_value(base, s[y] - s)
    vals[y] = -np.inf  # exclude the true class; argmax picks the first max
    y_star = int(np.argmax(vals))
    g = float(base_deriv(base, s[y] - s[y_star]))
    coef = np.zeros(s.size)
    coef[y] += g
    coef[y_star] -= g
    return coef


def multinomial_logistic_value(s, y):
    diffs = np.array(s, dtype=np.float64)
    diffs -= diffs[y]
    diffs[y] = 0.0
    m = float(np.max(diffs))
    return max(0.0, m + float(np.log(np.sum(np.exp(diffs - m)))))


def multinomial_logistic_coef(s, y):
    e = np.exp(s - np.max(s))
    coef = e / np.sum(e)
    coef[y] -= 1.0
    return coef


def _topk_terms(s, y):
    a = 1.0 + s - s[y]
    a[y] = 0.0
    return a


def topk_svm_value(s, y, k):
    top = np.sort(_topk_terms(s, y))[-k:]
    return float(max(0.0, np.sum(top) / k))


def topk_svm_coef(s, y, k):
    a = _topk_terms(s, y)
    order = np.argsort(-a, kind="stable")  # descending, ties to smaller index
    top = order[:k]
    coef = np.zeros(s.size)
    if np.sum(a[top]) / k <= 0.0:
        return coef
    coef[top] = 1.0 / k
    coef[y] -= len(top) / k
    return coef


def subset_value(s, y, base):
    return float(np.max(base_value(base, y * s)))


def subset_coef(s, y, base):
    t = y * s
    j_star = int(np.argmax(base_value(base, t)))
    coef = np.zeros(s.size)
    coef[j_star] = float(y[j_star]) * float(base_deriv(base, t[j_star]))
    return coef


def _ranking_diffs(s, y):
    pos, neg = np.flatnonzero(y > 0), np.flatnonzero(y < 0)
    return pos, neg, s[pos][:, None] - s[neg][None, :]


def ranking_value(s, y, base):
    _, _, diffs = _ranking_diffs(s, y)
    return float(np.mean(base_value(base, diffs)))


def ranking_coef(s, y, base):
    pos, neg, diffs = _ranking_diffs(s, y)
    g = base_deriv(base, diffs) / (pos.size * neg.size)
    coef = np.zeros(s.size)
    coef[pos] += g.sum(axis=1)
    coef[neg] -= g.sum(axis=0)
    return coef


def row_value(spec, s, y):
    """The loss value of one example with scores s and label y."""
    s = np.asarray(s, dtype=np.float64)
    if spec.kind == "mc_svm":
        return mc_svm_value(s, int(y), spec.base)
    if spec.kind == "multinomial_logistic":
        return multinomial_logistic_value(s, int(y))
    if spec.kind == "topk_svm":
        return topk_svm_value(s, int(y), spec.k)
    if spec.kind == "subset":
        return subset_value(s, y, spec.base)
    return ranking_value(s, y, spec.base)


def row_coef(spec, s, y):
    """The subgradient coefficients of one example with scores s and label y."""
    s = np.asarray(s, dtype=np.float64)
    if spec.kind == "mc_svm":
        return mc_svm_coef(s, int(y), spec.base)
    if spec.kind == "multinomial_logistic":
        return multinomial_logistic_coef(s, int(y))
    if spec.kind == "topk_svm":
        return topk_svm_coef(s, int(y), spec.k)
    if spec.kind == "subset":
        return subset_coef(s, y, spec.base)
    return ranking_coef(s, y, spec.base)


def sup_batch(sample, signs, radius):
    """sup_ball for each row of a (K, m) sign matrix, one component at a time."""
    X = sample.X
    sq = np.zeros(signs.shape[0])
    s_float = signs.astype(np.float64)
    for j in np.unique(sample.js):
        idx = np.flatnonzero(sample.js == j)
        col = s_float[:, idx] @ X[idx]
        sq += np.einsum("kd,kd->k", col, col)
    return radius * np.sqrt(sq)


def enumerate_signs(m, lo, hi):
    """Sign vectors lo..hi-1 of the 2^m, bit i of the code giving sign i."""
    codes = np.arange(lo, hi, dtype=np.uint32)[:, None]
    bits = (codes >> np.arange(m, dtype=np.uint32)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def exact_complexity(sample, radius, chunk=200_000):
    """The mean of sup/m over all 2^m sign vectors, enumerated flat."""
    total = 1 << sample.m
    acc = 0.0
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        acc += float(np.sum(sup_batch(sample, enumerate_signs(sample.m, lo, hi), radius)))
    return acc / (total * sample.m)


def mean_abs_sign_sum(m):
    """E|sum of m independent signs|, by exhaustive enumeration (m <= 20)."""
    if not 1 <= m <= 20:
        raise ValueError(f"m must lie in [1, 20], got {m}")
    codes = np.arange(1 << m, dtype=np.uint32)
    ones = np.bitwise_count(codes).astype(np.int64)
    return float(np.mean(np.abs(m - 2 * ones)))


def khintchine_floor(m):
    """The lower bound sqrt(m/2) on E|sum of m signs|."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return float(np.sqrt(m / 2.0))


def sgd_step(w, data, i, loss, reg, eta):
    """Single subgradient step w - eta * (loss_subgrad + reg_grad) on row i.

    The dense reference step: it costs O(d * c) and serves as the oracle
    for the training loop.  The input array is not modified.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (data.d, data.c):
        raise ValueError(f"weight matrix has shape {w.shape}, data needs {(data.d, data.c)}")
    lo, hi = data.X.indptr[i], data.X.indptr[i + 1]
    idx, vals = data.X.indices[lo:hi], data.X.data[lo:hi]
    grad = reg.grad(w)
    coef = loss.coef((vals @ w[idx])[None, :], data.y[i : i + 1])[0]
    grad[idx, :] += vals[:, None] * coef[None, :]
    return w - eta * grad
