"""Convex surrogate losses for multiclass and multilabel linear prediction.

Every loss here depends on the weight matrix only through the score vector
s = (<w[:, j], x>)_j, and every subgradient has the rank-one form

    grad[:, j] = coef[j] * x,

so subgradients are assembled from a per-column coefficient vector.  Each
loss carries a certified Lipschitz constant L with respect to the max norm
on score vectors:

    |loss(w; z) - loss(w'; z)| <= L * max_j |<w[:, j] - w'[:, j], x>|.

With a 1-Lipschitz margin function (both hinge and logistic qualify) the
constants are 2 for the multiclass losses (their margins subtract two
scores) and 1 for the subset loss (one score at a time).

Tie-breaking is deterministic everywhere: argmax and top-k selections
prefer the smallest index, and at kinks of the margin function or of the
outer max{0, .} the minimal-magnitude subgradient (zero) is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .core import LabeledExample, SparseVector, predict


@dataclass(frozen=True)
class BaseLoss:
    """Scalar margin function t -> loss(t), convex and non-increasing.

    ``hinge`` is max(0, 1 - t); ``logistic`` is log(1 + exp(-t)).  Both
    are 1-Lipschitz.  ``deriv`` returns the minimal-magnitude subgradient,
    so the hinge reports 0 at the kink t = 1.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("hinge", "logistic"):
            raise ValueError(f"unknown base loss {self.kind!r}")

    @property
    def lipschitz(self) -> float:
        return 1.0

    def value(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "hinge":
            return np.maximum(0.0, 1.0 - t)
        return np.logaddexp(0.0, -t)

    def deriv(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "hinge":
            return np.where(t < 1.0, -1.0, 0.0)
        return -expit(-t)


HINGE = BaseLoss("hinge")
LOGISTIC = BaseLoss("logistic")


def _check_multiclass(c: int, z: LabeledExample) -> int:
    if c < 2:
        raise ValueError(f"multiclass losses need at least 2 components, got {c}")
    return z.class_index(c)


def _assemble(x: SparseVector, coef: np.ndarray, d: int) -> np.ndarray:
    """Dense (d, c) gradient with column j equal to coef[j] * x."""
    grad = np.zeros((d, coef.size))
    if x.nnz:
        grad[x.indices, :] = x.values[:, None] * coef[None, :]
    return grad


# ---------------------------------------------------------------------------
# Multiclass SVM: max over wrong classes of the margin loss.


def mc_svm_value(w: np.ndarray, z: LabeledExample, base: BaseLoss) -> float:
    """max_{y' != y} base(<w[:, y] - w[:, y'], x>)."""
    y = _check_multiclass(w.shape[1], z)
    s = predict(w, z.x)
    margins = np.delete(s[y] - s, y)
    return float(np.max(base.value(margins)))


def _mc_svm_coef(s: np.ndarray, y: int, base: BaseLoss) -> np.ndarray:
    vals = base.value(s[y] - s)
    vals[y] = -np.inf  # exclude the true class; argmax picks the first max
    y_star = int(np.argmax(vals))
    g = float(base.deriv(s[y] - s[y_star]))
    coef = np.zeros(s.size)
    coef[y] += g
    coef[y_star] -= g
    return coef


def mc_svm_subgrad(w: np.ndarray, z: LabeledExample, base: BaseLoss) -> np.ndarray:
    """Subgradient with column y getting g*x and the argmax class -g*x."""
    y = _check_multiclass(w.shape[1], z)
    return _assemble(z.x, _mc_svm_coef(predict(w, z.x), y, base), w.shape[0])


# ---------------------------------------------------------------------------
# Multinomial logistic: log-sum-exp of score differences.


def multinomial_logistic_value(w: np.ndarray, z: LabeledExample) -> float:
    """log sum_j exp(<w[:, j] - w[:, y], x>), computed with max subtraction.

    The j = y term contributes exp(0) = 1, so the value is nonnegative;
    it is clamped at 0 to absorb last-bit rounding.
    """
    y = _check_multiclass(w.shape[1], z)
    diffs = predict(w, z.x)
    diffs -= diffs[y]
    diffs[y] = 0.0
    m = float(np.max(diffs))
    return max(0.0, m + float(np.log(np.sum(np.exp(diffs - m)))))


def _softmax(s: np.ndarray) -> np.ndarray:
    e = np.exp(s - np.max(s))
    return e / np.sum(e)


def _multinomial_logistic_coef(s: np.ndarray, y: int) -> np.ndarray:
    coef = _softmax(s)
    coef[y] -= 1.0
    return coef


def multinomial_logistic_subgrad(w: np.ndarray, z: LabeledExample) -> np.ndarray:
    """Gradient with column j getting p_j*x for j != y and (p_y - 1)*x at y.

    p is the softmax of the score vector; the coefficients sum to zero.
    """
    y = _check_multiclass(w.shape[1], z)
    return _assemble(z.x, _multinomial_logistic_coef(predict(w, z.x), y), w.shape[0])


# ---------------------------------------------------------------------------
# Top-k SVM: truncated average of the k largest shifted score gaps.


def _topk_terms(s: np.ndarray, y: int, k: int) -> np.ndarray:
    if not 1 <= k < s.size:
        raise ValueError(f"k must satisfy 1 <= k < {s.size}, got {k}")
    a = 1.0 + s - s[y]
    a[y] = 0.0  # indicator vanishes for the true class
    return a


def topk_svm_value(w: np.ndarray, z: LabeledExample, k: int) -> float:
    """max(0, average of the k largest entries of a), a_j = 1[j != y] + s_j - s_y."""
    y = _check_multiclass(w.shape[1], z)
    a = _topk_terms(predict(w, z.x), y, k)
    top = np.sort(a)[-k:]
    return float(max(0.0, np.sum(top) / k))


def _topk_svm_coef(s: np.ndarray, y: int, k: int) -> np.ndarray:
    a = _topk_terms(s, y, k)
    order = np.argsort(-a, kind="stable")  # descending, ties to smaller index
    top = order[:k]
    coef = np.zeros(s.size)
    if np.sum(a[top]) / k <= 0.0:
        return coef  # flat region of max{0, .}, and zero at the kink itself
    coef[top] = 1.0 / k
    coef[y] -= len(top) / k
    return coef


def topk_svm_subgrad(w: np.ndarray, z: LabeledExample, k: int) -> np.ndarray:
    """Columns of the k selected terms get x/k; column y absorbs the rest.

    Selection takes the k largest a_j, ties resolved toward the smaller
    index.  The net coefficient on column y is -|selected \\ {y}| / k, and
    the subgradient is zero when the truncated average is not positive.
    """
    y = _check_multiclass(w.shape[1], z)
    return _assemble(z.x, _topk_svm_coef(predict(w, z.x), y, k), w.shape[0])


# ---------------------------------------------------------------------------
# Subset loss: worst single component against its target sign.


def subset_value(w: np.ndarray, z: LabeledExample, base: BaseLoss) -> float:
    """max_j base(y_j * <w[:, j], x>) over a sign vector y."""
    y = z.sign_vector(w.shape[1])
    return float(np.max(base.value(y * predict(w, z.x))))


def _subset_coef(s: np.ndarray, y: np.ndarray, base: BaseLoss) -> np.ndarray:
    t = y * s
    j_star = int(np.argmax(base.value(t)))
    coef = np.zeros(s.size)
    coef[j_star] = float(y[j_star]) * float(base.deriv(t[j_star]))
    return coef


def subset_subgrad(w: np.ndarray, z: LabeledExample, base: BaseLoss) -> np.ndarray:
    """Single nonzero column at the argmax component j*."""
    y = z.sign_vector(w.shape[1])
    return _assemble(z.x, _subset_coef(predict(w, z.x), y, base), w.shape[0])


# ---------------------------------------------------------------------------
# Ranking loss: average margin loss over (positive, negative) pairs.


def _ranking_split(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pos = np.flatnonzero(y > 0)
    neg = np.flatnonzero(y < 0)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("ranking loss needs at least one +1 and one -1 label")
    return pos, neg


def ranking_value(w: np.ndarray, z: LabeledExample, base: BaseLoss) -> float:
    """Mean of base(s_p - s_q) over positive components p and negative q."""
    y = z.sign_vector(w.shape[1])
    pos, neg = _ranking_split(y)
    s = predict(w, z.x)
    diffs = s[pos][:, None] - s[neg][None, :]
    return float(np.mean(base.value(diffs)))


def _ranking_coef(s: np.ndarray, y: np.ndarray, base: BaseLoss) -> np.ndarray:
    pos, neg = _ranking_split(y)
    diffs = s[pos][:, None] - s[neg][None, :]
    g = base.deriv(diffs) / (pos.size * neg.size)
    coef = np.zeros(s.size)
    coef[pos] += g.sum(axis=1)
    coef[neg] -= g.sum(axis=0)
    return coef


def ranking_subgrad(w: np.ndarray, z: LabeledExample, base: BaseLoss) -> np.ndarray:
    """Each pair (p, q) adds g*x to column p and -g*x to column q."""
    y = z.sign_vector(w.shape[1])
    return _assemble(z.x, _ranking_coef(predict(w, z.x), y, base), w.shape[0])


# ---------------------------------------------------------------------------
# Dispatch wrapper carrying the certified Lipschitz constant.


_MULTILABEL_KINDS = ("subset", "ranking")


@dataclass(frozen=True)
class LossSpec:
    """A configured loss with its certified max-norm Lipschitz constant.

    ``lipschitz_inf`` is stored at construction rather than recomputed:
    the property suites validate the registered constant, so a wrongly
    registered one fails checks instead of being silently corrected.
    """

    kind: str
    base: BaseLoss | None = None
    k: int | None = None
    lipschitz_inf: float = 0.0

    @staticmethod
    def mc_svm(base: BaseLoss = HINGE) -> "LossSpec":
        return LossSpec("mc_svm", base=base, lipschitz_inf=2.0 * base.lipschitz)

    @staticmethod
    def multinomial_logistic() -> "LossSpec":
        return LossSpec("multinomial_logistic", lipschitz_inf=2.0)

    @staticmethod
    def topk_svm(k: int) -> "LossSpec":
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        return LossSpec("topk_svm", k=k, lipschitz_inf=2.0)

    @staticmethod
    def subset(base: BaseLoss = HINGE) -> "LossSpec":
        return LossSpec("subset", base=base, lipschitz_inf=1.0 * base.lipschitz)

    @staticmethod
    def ranking(base: BaseLoss = HINGE) -> "LossSpec":
        return LossSpec("ranking", base=base, lipschitz_inf=2.0 * base.lipschitz)

    @property
    def is_multilabel(self) -> bool:
        return self.kind in _MULTILABEL_KINDS

    @property
    def name(self) -> str:
        parts = [self.kind]
        if self.base is not None:
            parts.append(self.base.kind)
        if self.k is not None:
            parts.append(f"k={self.k}")
        return "/".join(parts)

    def with_lipschitz(self, value: float) -> "LossSpec":
        """Copy with an overridden constant; exists for check-suite hooks."""
        return replace(self, lipschitz_inf=value)

    def value(self, w: np.ndarray, z: LabeledExample) -> float:
        if self.kind == "mc_svm":
            return mc_svm_value(w, z, self.base)
        if self.kind == "multinomial_logistic":
            return multinomial_logistic_value(w, z)
        if self.kind == "topk_svm":
            return topk_svm_value(w, z, self.k)
        if self.kind == "subset":
            return subset_value(w, z, self.base)
        if self.kind == "ranking":
            return ranking_value(w, z, self.base)
        raise ValueError(f"unknown loss kind {self.kind!r}")

    def score_coef(self, s: np.ndarray, z: LabeledExample) -> np.ndarray:
        """Column coefficients of the subgradient at the score vector s.

        ``s`` is ``predict(w, z.x)``; its length is the number of
        components.  Callers that hold the scores already (the lazily
        scaled SGD loop) skip the prediction this way.
        """
        c = s.size
        if self.kind == "mc_svm":
            return _mc_svm_coef(s, _check_multiclass(c, z), self.base)
        if self.kind == "multinomial_logistic":
            return _multinomial_logistic_coef(s, _check_multiclass(c, z))
        if self.kind == "topk_svm":
            return _topk_svm_coef(s, _check_multiclass(c, z), self.k)
        if self.kind == "subset":
            return _subset_coef(s, z.sign_vector(c), self.base)
        if self.kind == "ranking":
            return _ranking_coef(s, z.sign_vector(c), self.base)
        raise ValueError(f"unknown loss kind {self.kind!r}")

    def coef(self, w: np.ndarray, z: LabeledExample) -> np.ndarray:
        """Column coefficients of the subgradient (see module docstring)."""
        return self.score_coef(predict(w, z.x), z)

    def subgrad(self, w: np.ndarray, z: LabeledExample) -> np.ndarray:
        return _assemble(z.x, self.coef(w, z), w.shape[0])


def standard_loss_specs(k: int = 2) -> list[LossSpec]:
    """The eight (loss, margin) combinations used by the property suites."""
    return [
        LossSpec.mc_svm(HINGE),
        LossSpec.mc_svm(LOGISTIC),
        LossSpec.multinomial_logistic(),
        LossSpec.topk_svm(k),
        LossSpec.subset(HINGE),
        LossSpec.subset(LOGISTIC),
        LossSpec.ranking(HINGE),
        LossSpec.ranking(LOGISTIC),
    ]
