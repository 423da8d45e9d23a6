"""Convex surrogate losses for multiclass and multilabel linear prediction.

Every loss here depends on the weight matrix only through the score vector
s = (<w[:, j], x>)_j, and every subgradient has the rank-one form

    grad[:, j] = coef[j] * x,

so each loss kind is one pair of functions of a score matrix S (one row of
scores per example) and the matching labels: the values, shape (n,), and
the per-column coefficients, shape (n, c).  The same pair serves batched
evaluation and the SGD step's rows, and a row's output does not depend on
the batch it comes in.  Labels are class ids, shape (n,),
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

Labels can be planned.  SGD plans the pool's labels once (``LossSpec.plan``)
and cuts each chunk of draws into step blocks (``LossSpec.blocks``), and a
``coef`` call on a block's labels equals the call on its raw labels bit for
bit.  Only ranking labels change form (below); other blocks are views of
the raw labels.  The multiclass kernels read the true classes at the flat
positions i * c + y_i of the call's raveled scores (``_positions``): one
``take`` gives the true-class scores and one indexed subtraction the
one-hot term.

The ranking kernels work on a pair plan: the (positive, negative) pairs of
the call's rows in one flat list of runs, each led by a zeroed slot.  A
``PairTable`` lists each distinct sign row's pairs once, laid out in array
passes, and gathers the plans of any rows of its labels the way a CSR
gather does (``core.segments``).  A call's pair terms are two ``take``
calls and a subtraction, and ``np.add.reduceat`` and ``bincount`` sum them
per row and per column, in the order of the grouped kernel in
``tests/oracles.py`` except a row's lone negative column, which adds its
terms in pair order where numpy sums them pairwise.  Rows with many pairs
are scored on their own (|pos|, |neg|) blocks, which numpy sums as the
grouped kernel does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import segments


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
        from scipy.special import expit  # only here: numpy's 1 / (1 + exp(t)) misses expit's last bits

        return -expit(-t)


HINGE = BaseLoss("hinge")
LOGISTIC = BaseLoss("logistic")


def _positions(S, y):
    """Row starts i * c and true-class positions i * c + y_i in the raveled (n, c) scores S of class ids y."""
    starts = np.arange(0, S.size, S.shape[1])
    return starts, starts + y


def _row_max(a):
    """Each row's maximum, the bits of ``a.max(axis=1)``; over a class-major copy it takes a few long passes."""
    return np.ascontiguousarray(a.T).max(axis=0)


# ---------------------------------------------------------------------------
# Multiclass SVM: max over wrong classes of base(s_y - s_j).


def _mc_svm_terms(spec, S, y):
    """The row starts, true-class positions, margins s_y - s_j and their base losses, the true class at -inf."""
    starts, at = _positions(S, y)
    margins = S.take(at)[:, None] - S
    vals = spec.base.value(margins)
    vals.put(at, -np.inf)  # exclude the true class; argmax picks the first max
    return starts, at, margins, vals


def _mc_svm_value(spec, S, y):
    return _row_max(_mc_svm_terms(spec, S, y)[3])


def _mc_svm_coef(spec, S, y, out):
    """Column y gets g, the argmax class -g, with g = base'(s_y - s_argmax)."""
    starts, at, margins, vals = _mc_svm_terms(spec, S, y)
    top = starts + vals.argmax(axis=1)
    g = spec.base.deriv(margins.take(top))
    out.fill(0.0)
    out.put(at, g)
    out.put(top, -g)  # top != y: the true class is excluded
    return out


# ---------------------------------------------------------------------------
# Multinomial logistic: log-sum-exp of score differences.


def _multinomial_logistic_value(spec, S, y):
    """log sum_j exp(s_j - s_y), computed with max subtraction.

    The j = y term contributes exp(0) = 1, so the value is nonnegative;
    it is clamped at 0 to absorb last-bit rounding.
    """
    at = _positions(S, y)[1]
    diffs = S - S.take(at)[:, None]
    diffs.put(at, 0.0)
    m = _row_max(diffs)
    return np.maximum(0.0, m + np.log(np.exp(diffs - m[:, None]).sum(axis=1)))


def _multinomial_logistic_coef(spec, S, y, out):
    """p_j for j != y and p_y - 1 at y, p the softmax of the scores, each step written into out."""
    at = _positions(S, y)[1]
    # the ufunc reductions behind .max and .sum, called without the method dispatch
    np.subtract(S, np.maximum.reduce(S, axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    np.divide(out, np.add.reduce(out, axis=1, keepdims=True), out=out)
    out.reshape(-1)[at] -= 1.0
    return out


# ---------------------------------------------------------------------------
# Top-k SVM: truncated average of the k largest shifted score gaps.


def _topk_terms(S, y):
    """The row starts and true-class positions, and a_j = 1[j != y] + s_j - s_y."""
    starts, at = _positions(S, y)
    a = 1.0 + S - S.take(at)[:, None]
    a.put(at, 0.0)  # indicator vanishes for the true class
    return starts, at, a


def _topk_svm_value(spec, S, y):
    """max(0, average of the k largest a_j)."""
    a = _topk_terms(S, y)[2]
    return np.maximum(0.0, np.sort(a, axis=1)[:, -spec.k :].sum(axis=1) / spec.k)


def _topk_svm_coef(spec, S, y, out):
    """The k selected columns get 1/k and column y absorbs -1.

    Selection takes the k largest a_j, ties resolved toward the smaller
    index; the coefficients are zero where the truncated average is not
    positive.
    """
    k = spec.k
    starts, at, a = _topk_terms(S, y)
    top = starts[:, None] + np.argsort(-a, axis=1, kind="stable")[:, :k]  # descending, ties to smaller index
    out.fill(0.0)
    out.put(top, 1.0 / k)
    out.reshape(-1)[at] -= 1.0
    # flat region of max{0, .}, and zero at the kink itself
    out[a.take(top).sum(axis=1) / k <= 0.0] = 0.0
    return out


# ---------------------------------------------------------------------------
# Subset loss: worst single component against its target sign.


def _subset_value(spec, S, y):
    """max_j base(y_j * s_j)."""
    return _row_max(spec.base.value(y * S))


def _subset_coef(spec, S, y, out):
    """A single nonzero column at the argmax component j*."""
    t = y * S
    rows, top = np.arange(len(y)), spec.base.value(t).argmax(axis=1)
    out.fill(0.0)
    out[rows, top] = y[rows, top] * spec.base.deriv(t[rows, top])
    return out


# ---------------------------------------------------------------------------
# Ranking loss: average margin loss over (positive, negative) pairs.


# Rows with at most this many (positive, negative) pairs are flat: their
# pairs are listed in the plan, and a call scores all its flat rows at
# once.  A row with more is scored on its own (|pos|, |neg|) block, where
# the per-row numpy calls cost less than the pair index arrays.  Which way
# a row goes depends only on its signs, never on the batch.
_FLAT_PAIRS = 256


@dataclass(slots=True, eq=False)
class PairPlan:
    """Sign rows y with the pairs of their flat rows listed, for one ranking call on scores shaped like y.

    p and q index the raveled scores, and pairs is the pair count of each
    slot's row.  The slots form runs, each led by a slot with q = p whose
    term is zeroed before summing, because ``np.add.reduceat`` adds a run's
    first term to the sum of the rest: behind a zero, a run is summed as
    ``np.add.reduce`` sums it alone.  runs lists the leading slots and
    heads their p.  A flat row is one run for its value, and one run per
    positive p, led by p, for its coefficients.  A row with more than
    ``_FLAT_PAIRS`` pairs has no slots; wide marks those rows, and is None
    when there are none.
    """

    y: np.ndarray
    per_positive: bool
    p: np.ndarray
    q: np.ndarray
    pairs: np.ndarray
    runs: np.ndarray
    heads: np.ndarray
    wide: np.ndarray | None


@dataclass(slots=True, eq=False)
class PairTable:
    """The slots of sign rows y, listed once per distinct row, from which plans of any rows of y are gathered.

    Row i of y is distinct row u = index[i], whose slots run from slots[u]
    to slots[u + 1] in p, q, lead and pairs; here p and q are columns.
    wide marks the distinct rows that are not flat, or is None.
    """

    y: np.ndarray
    per_positive: bool
    index: np.ndarray
    slots: np.ndarray
    p: np.ndarray
    q: np.ndarray
    lead: np.ndarray
    pairs: np.ndarray
    wide: np.ndarray | None

    def plans(self, rows: np.ndarray, bounds) -> list[PairPlan]:
        """The plans of y[rows[b0:b1]] for each pair b0, b1 of consecutive bounds, each as if planned alone."""
        c, bounds = self.y.shape[1], np.asarray(bounds)
        distinct = self.index.take(rows)
        offsets, source = segments(self.slots, distinct)
        local = np.arange(len(rows)) - np.repeat(bounds[:-1], np.diff(bounds))
        shift = np.repeat(local * c, np.diff(offsets))
        p, q = self.p.take(source) + shift, self.q.take(source) + shift
        pairs, runs = self.pairs.take(source), np.flatnonzero(self.lead.take(source))
        heads, cuts = p.take(runs), offsets.take(bounds)
        firsts = np.searchsorted(runs, cuts)
        runs -= np.repeat(cuts[:-1], np.diff(firsts))
        y, wide = self.y.take(rows, axis=0), None if self.wide is None else self.wide.take(distinct)
        b, s, k = bounds.tolist(), cuts.tolist(), firsts.tolist()
        return [
            PairPlan(
                y[b[i] : b[i + 1]], self.per_positive, p[s[i] : s[i + 1]], q[s[i] : s[i + 1]],
                pairs[s[i] : s[i + 1]], runs[k[i] : k[i + 1]], heads[k[i] : k[i + 1]],
                None if wide is None else wide[b[i] : b[i + 1]],
            )
            for i in range(len(b) - 1)
        ]  # fmt: skip


def _pairs(y: np.ndarray) -> np.ndarray:
    """The (positive, negative) pair count of each sign row."""
    positives = np.count_nonzero(y > 0, axis=1)
    return positives * (y.shape[1] - positives)


def _pair_table(y, per_positive: bool) -> PairTable:
    """The table of sign rows y, its distinct rows' slots laid out in array passes.

    A coefficient run is one positive p's pairs (p, q), negatives q in
    column order, behind a lead (p, p); a row's value run is its coefficient
    runs behind the first one's lead alone.  A row without pairs has no slots.
    """
    c = y.shape[1]
    signs = np.ascontiguousarray(y, dtype=np.int8).view(np.dtype((np.void, c))).ravel()
    distinct, index = np.unique(signs, return_inverse=True)
    rows = np.frombuffer(distinct.tobytes(), dtype=np.int8).reshape(-1, c)
    nneg = np.count_nonzero(rows < 0, axis=1)
    pairs = np.count_nonzero(rows > 0, axis=1) * nneg
    flat = (pairs > 0) & (pairs <= _FLAT_PAIRS)
    run_row, lead_col = ((rows > 0) & flat[:, None]).nonzero()
    width = nneg.take(run_row) + 1
    starts = np.cumsum(width) - width
    row = np.repeat(run_row, width)
    # each slot's place among all rows' negatives; at a lead, one before its row's first
    at = np.repeat(np.cumsum(nneg).take(run_row) - width - starts, width) + np.arange(len(row))
    p, q = np.repeat(lead_col, width), (rows < 0).nonzero()[1].take(at)
    q[starts] = lead_col
    lead = np.zeros(len(p), dtype=bool)
    lead[starts] = True
    if not per_positive:
        keep = ~lead
        keep[starts[np.diff(run_row, prepend=-1) != 0]] = True
        p, q, lead, row = p[keep], q[keep], lead[keep], row[keep]
    slots = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=len(rows)), out=slots[1:])
    return PairTable(y, per_positive, index, slots, p, q, lead, pairs.take(row), None if flat.all() else ~flat)


def _planned(y, per_positive: bool) -> PairPlan:
    """The plan of raw or planned labels y."""
    if not isinstance(y, PairPlan):
        return _pair_table(y, per_positive).plans(np.arange(len(y)), [0, len(y)])[0]
    if y.per_positive != per_positive:
        raise ValueError("a ranking plan serves either value or coef calls, not both")
    return y


def _pair_terms(fn, S, plan):
    """fn(s_p - s_q) on every slot of the plan, the leads zeroed."""
    scores = S.ravel()
    terms = fn(scores.take(plan.p) - scores.take(plan.q))
    terms[plan.runs] = 0.0
    return terms


def _wide_rows(S, plan):
    """(i, pos, neg, s_p - s_q) of each row without slots, the differences shaped (|pos|, |neg|).

    numpy sums these blocks as the grouped kernel in ``tests/oracles.py`` does.
    """
    for i in [] if plan.wide is None else plan.wide.nonzero()[0].tolist():
        pos, neg = (plan.y[i] > 0).nonzero()[0], (plan.y[i] < 0).nonzero()[0]
        yield i, pos, neg, S[i].take(pos)[:, None] - S[i].take(neg)


def _ranking_value(spec, S, y):
    """Mean of base(s_p - s_q) over positive components p and negative q; a flat row is one run."""
    plan = _planned(y, per_positive=False)
    out = np.empty(len(S))
    sums = np.add.reduceat(_pair_terms(spec.base.value, S, plan), plan.runs)
    out[slice(None) if plan.wide is None else ~plan.wide] = sums / plan.pairs.take(plan.runs)
    for i, pos, neg, diffs in _wide_rows(S, plan):
        out[i] = spec.base.value(diffs).sum() / (pos.size * neg.size)
    return out


def _ranking_coef(spec, S, y, out):
    """Each pair (p, q) adds g to column p and -g to column q, g = base'(s_p - s_q) / (|pos| * |neg|).

    A flat row's negative column adds its terms in pair order
    (``bincount``), and a positive column sums its run.  A lead adds its
    zero to a positive column, and a wide row's columns are all overwritten.
    """
    plan = _planned(y, per_positive=True)
    g = _pair_terms(spec.base.deriv, S, plan) / plan.pairs
    np.negative(np.bincount(plan.q, g, S.size), dtype=np.float64, out=out.reshape(-1))  # bincount of no slots is int
    out.put(plan.heads, np.add.reduceat(g, plan.runs))
    for i, pos, neg, diffs in _wide_rows(S, plan):
        g = spec.base.deriv(diffs) / (pos.size * neg.size)
        out[i, pos] = g.sum(axis=1)
        out[i, neg] = -g.sum(axis=0)
    return out


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

    def plan(self, y: np.ndarray):
        """The labels y prepared for ``blocks``: ranking labels become a ``PairTable``, others stay as they are."""
        return _pair_table(y, per_positive=True) if self.kind == "ranking" else y

    def blocks(self, plan, rows: np.ndarray, bounds) -> list:
        """The labels of rows[b0:b1] of planned labels, for each pair b0, b1 of consecutive bounds.

        A ``coef`` call on a block's labels equals the call on those rows
        of the raw labels bit for bit.
        """
        if isinstance(plan, PairTable):
            return plan.plans(rows, bounds)
        labels = plan.take(rows, axis=0)
        return [labels[b0:b1] for b0, b1 in zip(bounds, bounds[1:])]

    def work(self, y: np.ndarray, c: int) -> np.ndarray:
        """Entries a ``value`` call allocates per row of labels y: c scores, plus a flat ranking row's slots."""
        if self.kind != "ranking":
            return np.full(len(y), c)
        pairs = _pairs(y)
        return c + np.where(pairs <= _FLAT_PAIRS, pairs + 1, 0)

    def value(self, S: np.ndarray, y) -> np.ndarray:
        """Loss values, shape (n,), at the score rows S (n, c) with labels y (raw or planned)."""
        return _KERNELS[self.kind][0](self, S, y)

    def coef(self, S: np.ndarray, y, out: np.ndarray | None = None) -> np.ndarray:
        """Subgradient column coefficients, shape (n, c), with labels y raw or planned; see the module docstring.

        They are written into out, a C-contiguous float64 array shaped like S
        and apart from it, when given, and returned.
        """
        if out is None:
            out = np.empty(S.shape)
        else:
            check_out(out, S.shape)
        return _KERNELS[self.kind][1](self, S, y, out)

    def coef_kernel(self):
        """``coef`` unchecked, kernel(S, y, out) -> out, for a caller that checks its own buffers (``check_out``)."""
        return partial(_KERNELS[self.kind][1], self)


def check_out(out: np.ndarray, shape: tuple) -> None:
    """Raise ValueError unless out is a C-contiguous float64 array of the given shape.

    Its row slices are then C-contiguous float64 too, so one check covers every kernel call into them.
    """
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")


def standard_loss_specs() -> list[LossSpec]:
    """The eight (loss, margin) combinations used by the property suites, top-k at k = 2."""
    return [
        LossSpec.mc_svm(HINGE),
        LossSpec.mc_svm(LOGISTIC),
        LossSpec.multinomial_logistic(),
        LossSpec.topk_svm(2),
        LossSpec.subset(HINGE),
        LossSpec.subset(LOGISTIC),
        LossSpec.ranking(HINGE),
        LossSpec.ranking(LOGISTIC),
    ]
