"""Convex surrogate losses for multiclass and multilabel linear prediction.

Every loss here depends on the weight matrix only through the score vector
s = (<w[:, j], x>)_j, and every subgradient has the rank-one form

    grad[:, j] = coef[j] * x,

so each loss kind is one pair of functions of a score matrix S (one row of
scores per example) and the matching labels: the values, shape (n,), and
the per-column coefficients, shape (n, c).  The same pair serves batched
evaluation and the single-row SGD step.  Labels are class ids, shape (n,),
for the multiclass losses and +1/-1 sign rows, shape (n, c), for the
multilabel ones; ``LossSpec.check_labels`` says whether a label array suits
a loss, and the kernels assume it does.

Each loss carries a certified Lipschitz constant L with respect to the max
norm on score vectors:

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
            return (t >= 1.0) - 1.0  # -1 below the kink, +0 from it on
        return -expit(-t)


HINGE = BaseLoss("hinge")
LOGISTIC = BaseLoss("logistic")


# ---------------------------------------------------------------------------
# Multiclass SVM: max over wrong classes of base(s_y - s_j).


def _mc_svm_terms(spec, S, y):
    rows = np.arange(len(y))
    margins = S[rows, y, None] - S
    vals = spec.base.value(margins)
    vals[rows, y] = -np.inf  # exclude the true class; argmax picks the first max
    return rows, margins, vals, vals.argmax(axis=1)


def _mc_svm_value(spec, S, y):
    return _mc_svm_terms(spec, S, y)[2].max(axis=1)


def _mc_svm_coef(spec, S, y):
    """Column y gets g, the argmax class -g, with g = base'(s_y - s_argmax)."""
    rows, margins, _, top = _mc_svm_terms(spec, S, y)
    g = spec.base.deriv(margins[rows, top])
    coef = np.zeros(S.shape)
    coef[rows, y] = g
    coef[rows, top] = -g  # top != y: the true class is excluded
    return coef


# ---------------------------------------------------------------------------
# Multinomial logistic: log-sum-exp of score differences.


def _multinomial_logistic_value(spec, S, y):
    """log sum_j exp(s_j - s_y), computed with max subtraction.

    The j = y term contributes exp(0) = 1, so the value is nonnegative;
    it is clamped at 0 to absorb last-bit rounding.
    """
    rows = np.arange(len(y))
    diffs = S - S[rows, y, None]
    diffs[rows, y] = 0.0
    m = diffs.max(axis=1)
    return np.maximum(0.0, m + np.log(np.exp(diffs - m[:, None]).sum(axis=1)))


def _multinomial_logistic_coef(spec, S, y):
    """p_j for j != y and p_y - 1 at y, p the softmax of the scores."""
    e = np.exp(S - S.max(axis=1, keepdims=True))
    coef = e / e.sum(axis=1, keepdims=True)
    coef[np.arange(len(y)), y] -= 1.0
    return coef


# ---------------------------------------------------------------------------
# Top-k SVM: truncated average of the k largest shifted score gaps.


def _topk_terms(S, y):
    """a_j = 1[j != y] + s_j - s_y."""
    rows = np.arange(len(y))
    a = 1.0 + S - S[rows, y, None]
    a[rows, y] = 0.0  # indicator vanishes for the true class
    return rows, a


def _topk_svm_value(spec, S, y):
    """max(0, average of the k largest a_j)."""
    _, a = _topk_terms(S, y)
    return np.maximum(0.0, np.sort(a, axis=1)[:, -spec.k :].sum(axis=1) / spec.k)


def _topk_svm_coef(spec, S, y):
    """The k selected columns get 1/k and column y absorbs -1.

    Selection takes the k largest a_j, ties resolved toward the smaller
    index; the coefficients are zero where the truncated average is not
    positive.
    """
    k = spec.k
    rows, a = _topk_terms(S, y)
    top = np.argsort(-a, axis=1, kind="stable")[:, :k]  # descending, ties to smaller index
    coef = np.zeros(S.shape)
    coef[rows[:, None], top] = 1.0 / k
    coef[rows, y] -= 1.0
    # flat region of max{0, .}, and zero at the kink itself
    coef[a[rows[:, None], top].sum(axis=1) / k <= 0.0] = 0.0
    return coef


# ---------------------------------------------------------------------------
# Subset loss: worst single component against its target sign.


def _subset_terms(spec, S, y):
    rows = np.arange(len(y))
    t = y * S
    vals = spec.base.value(t)
    return rows, t, vals, vals.argmax(axis=1)


def _subset_value(spec, S, y):
    """max_j base(y_j * s_j)."""
    return _subset_terms(spec, S, y)[2].max(axis=1)


def _subset_coef(spec, S, y):
    """A single nonzero column at the argmax component j*."""
    rows, t, _, top = _subset_terms(spec, S, y)
    coef = np.zeros(S.shape)
    coef[rows, top] = y[rows, top] * spec.base.deriv(t[rows, top])
    return coef


# ---------------------------------------------------------------------------
# Ranking loss: average margin loss over (positive, negative) pairs.


def _sign_patterns(y):
    """(rows, positives, negatives) for each distinct sign row of y.

    Grouping rows by pattern keeps every row's pair terms in one contiguous
    (positives x negatives) block, summed in the same order for a batch as
    for a single row.
    """
    if len(y) == 1:
        yield slice(None), (y[0] > 0).nonzero()[0], (y[0] < 0).nonzero()[0]
        return
    patterns, inverse, counts = np.unique(y, axis=0, return_inverse=True, return_counts=True)
    groups = np.split(np.argsort(inverse.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    for pattern, rows in zip(patterns, groups):
        yield rows, (pattern > 0).nonzero()[0], (pattern < 0).nonzero()[0]


def _pair_diffs(S, rows, pos, neg):
    """s_p - s_q for every (positive p, negative q), shape (rows, |pos|, |neg|).

    C order makes each row's block contiguous, so its sums take the same
    (pairwise) order whatever the number of rows.
    """
    block = S[rows]
    return np.subtract(block[:, pos, None], block[:, None, neg], order="C")


def _ranking_value(spec, S, y):
    """Mean of base(s_p - s_q) over positive components p and negative q."""
    out = np.empty(len(y))
    for rows, pos, neg in _sign_patterns(y):
        vals = spec.base.value(_pair_diffs(S, rows, pos, neg))
        out[rows] = vals.reshape(len(vals), -1).sum(axis=1) / (pos.size * neg.size)
    return out


def _ranking_coef(spec, S, y):
    """Each pair (p, q) adds g to column p and -g to column q."""
    coef = np.zeros(S.shape)
    for rows, pos, neg in _sign_patterns(y):
        g = spec.base.deriv(_pair_diffs(S, rows, pos, neg)) / (pos.size * neg.size)
        block = coef[rows]
        block[:, pos] = g.sum(axis=2)
        block[:, neg] = -g.sum(axis=1)
        coef[rows] = block
    return coef


# ---------------------------------------------------------------------------
# Dispatch wrapper carrying the certified Lipschitz constant.


_KERNELS = {
    "mc_svm": (_mc_svm_value, _mc_svm_coef),
    "multinomial_logistic": (_multinomial_logistic_value, _multinomial_logistic_coef),
    "topk_svm": (_topk_svm_value, _topk_svm_coef),
    "subset": (_subset_value, _subset_coef),
    "ranking": (_ranking_value, _ranking_coef),
}
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

    def __post_init__(self):
        if self.kind not in _KERNELS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0.0 <= self.lipschitz_inf < np.inf:
            raise ValueError(f"lipschitz_inf must be finite and nonnegative, got {self.lipschitz_inf}")

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

    def check_labels(self, y: np.ndarray, c: int) -> None:
        """Raise ValueError unless the labels y over c components suit this loss.

        Multiclass losses need class ids and at least two components (top-k
        at least k + 1); multilabel losses need sign rows, and the ranking
        loss needs a +1 and a -1 in every row.
        """
        if self.is_multilabel != (np.ndim(y) == 2):
            wanted = "sign vectors" if self.is_multilabel else "class indices"
            raise ValueError(f"loss {self.name} needs {wanted} as labels")
        if not self.is_multilabel and c < 2:
            raise ValueError(f"multiclass losses need at least 2 components, got {c}")
        if self.kind == "topk_svm" and not self.k < c:
            raise ValueError(f"top-k with k={self.k} needs at least {self.k + 1} classes, got {c}")
        if self.kind == "ranking":
            single = np.flatnonzero(~(np.any(y > 0, axis=1) & np.any(y < 0, axis=1)))
            if single.size:
                raise ValueError(
                    f"ranking loss needs at least one +1 and one -1 label in every row; "
                    f"{single.size} of {len(y)} rows have one sign only (first: row {single[0]})"
                )

    def value(self, S: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Loss values, shape (n,), at the score rows S (n, c) with labels y."""
        return _KERNELS[self.kind][0](self, S, y)

    def coef(self, S: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Subgradient column coefficients, shape (n, c); see the module docstring."""
        return _KERNELS[self.kind][1](self, S, y)


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
