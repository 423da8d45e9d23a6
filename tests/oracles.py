"""Reference implementations the fast kernels replaced.

The per-example loss oracles are the single-example loss values and
subgradient coefficients the batched kernels in ``vvlearn.losses``
replaced.  Each takes a score vector ``s`` of shape (c,) and a label (a
class index, or a +1/-1 sign vector), so tests can compare the batched
kernels against them row by row.  ``grouped_ranking_value`` and
``grouped_ranking_coef`` are the batched ranking kernels the pair-list
kernel replaced: rows grouped by sign pattern, one (positives x
negatives) block per group.

The Rademacher oracles take an extended sample, a multiclass ``Dataset``
whose class ids are the components.  They are the per-component supremum
loop and the flat enumeration of all 2^m sign vectors that
``vvlearn.rademacher`` replaced with component-sorted slices and a
blocked meet-in-the-middle sum, plus the exact sign-sum moment
E|sum of m signs| behind the sandwich's Khintchine floor.  ``all_signs``
lists the 2^h sign vectors that the exact path enumerates as sign sums
over runs of equal pairs, and ``monte_carlo_complexity`` scores the
Monte-Carlo stream unpacked one sign per pair, where the estimator counts
the ones of each run in its packed bytes.  ``sup_ball``,
the supremum for one sign vector, is the closed form the other tests check
by brute force over ball directions.  ``grid_norms`` lists ||A||^2 over
the exact path's grid of high and low sign patterns, cut at a component
boundary where there is one, and ``full_grid_sum`` sums the whole grid,
where the exact path fills half of it and reads the rest as mirror images;
it keeps the same summation chunks, so the two agree bit for bit.

``sgd_step`` is the dense O(d * c) subgradient step that the lazily scaled
training loop in ``vvlearn.optimizer`` must reproduce to rounding.
``squares`` and ``norm_changes`` are the exact per-block bookkeeping of the
running iterate norm that the loop replaced with changes computed from each
step's scores and coefficients.

``unit_values`` and ``max_row_norm`` are the row normalization without the
power-of-two prescaling and the per-row norm loop that ``vvlearn.dataio``
replaced; on rows whose norm neither overflows nor underflows they give the
same bits.  ``prescaled_unit_values`` is the per-row normalization with the
prescaling, which the blockwise ``normalize_rows`` must match on every row.

``pair_slots`` lists each sign row's (positive, negative) pairs one row at
a time, as the ranking plan lays them out in array passes.

``per_token_parse`` is the sparse text parser that ``parse_sparse_text``
replaced with array passes over batches of lines: it reads one token at a
time and raises each ``ParseError`` where it meets it.  The two give the
same dataset, or the same error, on every input.

``scipy_csr`` turns a dataset's CSR record into the scipy matrix it
stands for, for the tests that slice, stack or densify it.
``write_sparse_text`` writes a dataset back in the sparse text format, for
the tests that round-trip datasets through files.

``take`` copies rows of a dataset into a dataset of their own, as every
split and chain held its rows before chains read row maps into one pool;
``lone_run`` trains one chain on such a copy, the reference that a chain of
``lockstep_runs`` must equal bit for bit.  ``lockstep_runs`` records every
chain of one ``iterates`` call as ``train`` records a lone run.
"""

import math
from array import array
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from vvlearn.dataio import Dataset, ParseError, write_lines
from vvlearn.optimizer import RunRecord, iterates, mean_loss, train
from vvlearn.seeding import generator


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


def _sign_patterns(y):
    """(rows, positives, negatives) for each distinct sign row of y."""
    if len(y) == 1:
        yield slice(None), (y[0] > 0).nonzero()[0], (y[0] < 0).nonzero()[0]
        return
    patterns, inverse, counts = np.unique(y, axis=0, return_inverse=True, return_counts=True)
    groups = np.split(np.argsort(inverse.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    for pattern, rows in zip(patterns, groups):
        yield rows, (pattern > 0).nonzero()[0], (pattern < 0).nonzero()[0]


def _pair_diffs(S, rows, pos, neg):
    """s_p - s_q for every (positive p, negative q), shape (rows, |pos|, |neg|), in C order."""
    block = S[rows]
    return np.subtract(block[:, pos, None], block[:, None, neg], order="C")


def grouped_ranking_value(spec, S, y):
    """The batched ranking values with rows grouped by sign pattern, one (pos x neg) block per group."""
    out = np.empty(len(y))
    for rows, pos, neg in _sign_patterns(y):
        vals = base_value(spec.base, _pair_diffs(S, rows, pos, neg))
        out[rows] = vals.reshape(len(vals), -1).sum(axis=1) / (pos.size * neg.size)
    return out


def grouped_ranking_coef(spec, S, y):
    """The batched ranking coefficients with rows grouped by sign pattern."""
    coef = np.zeros(S.shape)
    for rows, pos, neg in _sign_patterns(y):
        g = base_deriv(spec.base, _pair_diffs(S, rows, pos, neg)) / (pos.size * neg.size)
        block = coef[rows]
        block[:, pos] = g.sum(axis=2)
        block[:, neg] = -g.sum(axis=1)
        coef[rows] = block
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
    """The supremum over the Frobenius ball of radius ``radius`` for each row
    of a (K, m) sign matrix, R * ||A||_F, one component at a time."""
    X = scipy_csr(sample.X).toarray()
    sq = np.zeros(signs.shape[0])
    s_float = signs.astype(np.float64)
    for j in np.unique(sample.y):
        idx = np.flatnonzero(sample.y == j)
        col = s_float[:, idx] @ X[idx]
        sq += np.einsum("kd,kd->k", col, col)
    return radius * np.sqrt(sq)


def sup_ball(sample, signs, radius):
    """The supremum for one sign vector: the single-row case of sup_batch."""
    return float(sup_batch(sample, np.asarray(signs)[None, :], radius)[0])


def all_signs(h):
    """All 2^h sign vectors of length h as rows of +-1 floats, bit i of the
    row index giving sign i: the enumeration the exact path generalized to
    sign sums over runs of equal pairs."""
    return ((np.arange(1 << h)[:, None] >> np.arange(h)) & 1) * 2.0 - 1.0


def monte_carlo_complexity(sample, radius, trials, seed, chunk_entries):
    """(mean, std_error) of sup/m over ``trials`` sign vectors unpacked one
    sign per pair from the estimator's packed stream, drawn in its chunks of
    ``chunk_entries // m`` vectors.  Bit i of a vector is the sign of the
    i-th pair in component order."""
    m, width = len(sample), (len(sample) + 7) // 8
    chunk, rng = max(1, chunk_entries // m), generator(seed)
    order = np.argsort(sample.y, kind="stable")
    sups = []
    for done in range(0, trials, chunk):
        packed = np.frombuffer(rng.bytes(min(chunk, trials - done) * width), dtype=np.uint8).reshape(-1, width)
        signs = np.empty((len(packed), m), dtype=np.int8)
        signs[:, order] = 2 * np.unpackbits(packed, axis=1, count=m).view(np.int8) - 1
        sups.append(sup_batch(sample, signs, radius))
    per_trial = np.concatenate(sups) / m
    _, e = np.frexp(np.max(per_trial))
    return float(np.mean(per_trial)), float(np.ldexp(np.std(np.ldexp(per_trial, -e), ddof=1), e) / np.sqrt(trials))


def enumerate_signs(m, lo, hi):
    """Sign vectors lo..hi-1 of the 2^m, bit i of the code giving sign i."""
    codes = np.arange(lo, hi, dtype=np.uint32)[:, None]
    bits = (codes >> np.arange(m, dtype=np.uint32)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def exact_complexity(sample, radius, chunk=200_000):
    """The mean of sup/m over all 2^m sign vectors, enumerated flat."""
    m = len(sample)
    total = 1 << m
    acc = 0.0
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        acc += float(np.sum(sup_batch(sample, enumerate_signs(m, lo, hi), radius)))
    return acc / (total * m)


def sorted_pairs(sample):
    """A sample's inputs, components and component slots stable-sorted by
    component, as ``estimate_complexity`` hands them to its sums."""
    order = np.argsort(sample.y, kind="stable")
    return scipy_csr(sample.X).toarray()[order], sample.y[order], np.unique(sample.y)


def top_cut(js):
    """The component boundary nearest the middle of pairs sorted by component,
    or None when they share one component."""
    bounds = np.flatnonzero(js[1:] != js[:-1]) + 1
    return int(bounds[np.argmin(np.abs(2 * bounds - len(js)))]) if bounds.size else None


def grid_shape(js):
    """(H, L): the counts of high and low sign vectors at the top cut of ``grid_norms``."""
    cut = top_cut(js)
    low = len(js) // 2 if cut is None else min(cut, len(js) - cut)
    return 1 << (len(js) - low), 1 << low


def grid_norms(X, js):
    """||A||^2 for every sign vector of pairs sorted by component, flattened in
    the exact path's grid order, one sign per pair (no runs).  The pairs are
    cut at ``top_cut``, the side with more pairs high, and an entry adds the
    two sides' square norms; a single component is cut at its middle, and an
    entry squares A_high + A_low."""
    cut = top_cut(js)
    if cut is not None:
        high, low = (slice(cut, None), slice(None, cut)) if 2 * cut <= len(js) else (slice(None, cut), slice(cut, None))
        return (grid_norms(X[high], js[high])[:, None] + grid_norms(X[low], js[low])).ravel()
    h = len(js) // 2
    A = (all_signs(len(js) - h) @ X[h:])[:, None] + all_signs(h) @ X[:h]
    return np.einsum("ijw,ijw->ij", A, A).ravel()


def full_grid_sum(X, js, slots, radius, chunk_entries):
    """The sum of sup over all 2^m sign vectors of a sample without runs: the
    whole grid of ``grid_norms``, with no mirror and no store.  It sums the
    same chunks of grid rows as the exact path (the rows whose A would hold
    ``chunk_entries`` entries at the sample's full width), each on its own,
    and folds the chunk sums left.  X, js and slots come from
    ``sorted_pairs``."""
    H, L = grid_shape(js)
    grid = grid_norms(X, js).reshape(H, L)
    rows = min(H, max(1, chunk_entries // (L * slots.size * X.shape[1])))
    acc = 0.0
    for b in range(0, H, rows):
        acc += float(np.sum(radius * np.sqrt(grid[b : b + rows])))
    return acc


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


def sgd_step(w, data, i, loss, reg, eta, labels=None):
    """Single subgradient step w - eta * (loss_subgrad + reg_grad) on row i.

    The dense reference step: it costs O(d * c) and serves as the oracle
    for the training loop.  The input array is not modified.  labels, if
    given, are row i's labels as ``LossSpec.blocks`` plans them, whose
    coefficients equal the raw row's bit for bit.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (data.d, data.c):
        raise ValueError(f"weight matrix has shape {w.shape}, data needs {(data.d, data.c)}")
    lo, hi = data.X.indptr[i], data.X.indptr[i + 1]
    idx, vals = data.X.indices[lo:hi], data.X.data[lo:hi]
    grad = reg.grad(w)
    coef = loss.coef((vals @ w[idx])[None, :], data.y[i : i + 1] if labels is None else labels)[0]
    grad[idx, :] += vals[:, None] * coef[None, :]
    return w - eta * grad


def squares(v):
    """||v[i]||^2 for every i, v of shape (n, ...)."""
    flat = np.asarray(v, dtype=np.float64).reshape(len(v), -1)
    return np.sum(flat * flat, axis=1)


def norm_changes(grid, new):
    """Each row block's change to the squared norm: grid (n, ...) holds rows of V before a step, new after it."""
    return squares(new) - squares(grid)


def unit_values(values):
    """Unit rescaling of one row by its raw norm, then the one-ulp walk."""
    out = values.astype(np.float64, copy=True)
    norm = float(np.linalg.norm(out))
    if norm == 0.0:
        return out
    if norm != 1.0:
        out /= norm
    j = int(np.argmax(np.abs(out)))
    for _ in range(100_000):
        norm = float(np.linalg.norm(out))
        if norm == 1.0:
            return out
        toward = 0.0 if norm > 1.0 else np.copysign(np.inf, out[j])
        out[j] = np.nextafter(out[j], toward)
    raise ArithmeticError("unit rescaling failed to land on norm 1.0")


def prescaled_unit_values(values):
    """Unit rescaling of one row: power-of-two prescale, divide by the norm, then the one-ulp walk."""
    out = np.ldexp(values, -math.frexp(np.abs(values).max(initial=0.0))[1])
    norm = float(np.linalg.norm(out))
    if norm == 0.0:
        return out
    if norm != 1.0:
        out /= norm
    j = int(np.argmax(np.abs(out)))
    for _ in range(100_000):
        norm = float(np.linalg.norm(out))
        if norm == 1.0:
            return out
        toward = 0.0 if norm > 1.0 else np.copysign(np.inf, out[j])
        out[j] = np.nextafter(out[j], toward)
    raise ArithmeticError("unit rescaling failed to land on norm 1.0")


def max_row_norm(X):
    """Largest Euclidean row norm of a CSR matrix, one ``np.linalg.norm`` per row."""
    data, bounds = X.data, X.indptr.tolist()
    return max((float(np.linalg.norm(data[s:e])) for s, e in zip(bounds, bounds[1:])), default=0.0)


def scipy_csr(X):
    """A CSR record (``Dataset.X``) as a scipy CSR matrix."""
    return sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def write_sparse_text(dataset: Dataset, destination) -> None:
    """Write a Dataset in the sparse text format (inverse of parsing).

    Labels are written through the inverse of ``label_map`` so a parsed
    file writes back with its original ids; floats use the shortest
    representation that round-trips exactly.
    """
    inverse = {dense: raw for raw, dense in dataset.label_map.items()}
    X = dataset.X
    bounds, cols, vals = X.indptr.tolist(), (X.indices + 1).tolist(), X.data.tolist()
    lines = []
    for i, (s, e) in enumerate(zip(bounds, bounds[1:])):
        if dataset.task == "mlc":
            positive = np.flatnonzero(dataset.y[i] > 0).tolist()
            if not positive:
                raise ValueError("cannot serialize a sign vector with no +1 entries")
            head = ",".join(str(inverse.get(j, j) + 1) for j in positive)
        else:
            label = int(dataset.y[i])
            head = str(inverse.get(label, label))
        feats = " ".join(f"{j}:{v!r}" for j, v in zip(cols[s:e], vals[s:e]))
        lines.append(f"{head} {feats}".rstrip())
    write_lines(destination, lines)


def take(data, rows):
    """The rows of data at the given indices, in that order, as a Dataset of their own."""
    return Dataset(scipy_csr(data.X)[rows], data.y[rows], data.c, data.task)


def lone_run(pool, rows, config):
    """``train`` of one chain on its own copy of its rows of the pool."""
    return train(take(pool, rows), config)


def lockstep_runs(pool, rows, configs):
    """(last iterate, records) of each chain of ``iterates``, each record scoring the chain's rows.

    A chain records where a lone ``train`` of it would, and its last
    iterate is the last one yielded for it: chains that end early drop out
    of later yields.
    """
    runs = [[None, []] for _ in configs]
    for t, w, norms in iterates(pool, rows, configs):
        for chain_rows, config, w_r, norm, run in zip(rows, configs, w, norms, runs):
            if t % (config.record_every or config.total_steps) == 0 or t == config.total_steps:
                objective = mean_loss(w_r, pool, config.loss, chain_rows) + config.reg.value(w_r)
                run[1].append(RunRecord(t, objective, norm))
            run[0] = w_r
    return [tuple(run) for run in runs]


def pair_slots(y, per_positive, flat_pairs):
    """(p, q, lead, pairs, wide) of the ranking plan of sign rows y, built row by row.

    A row with 1 to flat_pairs pairs lists its runs: one per positive p for
    coefficients, the whole row for values, each led by a slot (p, p) of
    its first positive and then its pairs (p, q) p-major, p and q indexing
    the raveled (n, c) scores.  pairs repeats the row's pair count per slot;
    wide marks the other rows.
    """
    p, q, lead, pairs, wide = [], [], [], [], []
    c = y.shape[1]
    for i, row in enumerate(y):
        pos, neg = (np.flatnonzero(row > 0) + i * c).tolist(), (np.flatnonzero(row < 0) + i * c).tolist()
        count = len(pos) * len(neg)
        wide.append(not 0 < count <= flat_pairs)
        for run in ([] if wide[-1] else [[j] for j in pos] if per_positive else [pos]):
            p += [run[0]] + [j for j in run for _ in neg]
            q += [run[0]] + neg * len(run)
            lead += [True] + [False] * (len(run) * len(neg))
            pairs += [count] * (1 + len(run) * len(neg))
    return p, q, lead, pairs, np.array(wide)


def _parse_label_field(token: str, task: str, line_no: int) -> list[int]:
    """Raw label ids from the first token; multilabel ids shifted to 0-based."""
    if task == "mcc":
        try:
            return [int(token)]
        except ValueError:
            raise ParseError(f"bad class id {token!r}", line_no) from None
    ids = []
    for part in token.split(","):
        try:
            value = int(part)
        except ValueError:
            raise ParseError(f"bad label id {part!r}", line_no) from None
        if value < 1:
            raise ParseError(f"label ids are 1-based, got {value}", line_no)
        ids.append(value - 1)
    if len(set(ids)) != len(ids):
        raise ParseError(f"duplicate label id in {token!r}", line_no)
    return ids


def _parse_features(tokens: list[str], line_no: int, d: int | None, cols: array, vals: array) -> None:
    """Append one line's 0-based feature indices and values to cols and vals."""
    seen: set[int] = set()
    for token in tokens:
        head, sep, tail = token.partition(":")
        if not sep or not head or not tail:
            raise ParseError(f"bad feature token {token!r}", line_no)
        try:
            idx = int(head)
            val = float(tail)
            cols.append(idx - 1)  # OverflowError past int64; a bad line ends the parse anyway
        except (ValueError, OverflowError):
            raise ParseError(f"bad feature token {token!r}", line_no) from None
        if idx < 1:
            raise ParseError(f"feature indices are 1-based, got {idx}", line_no)
        if not math.isfinite(val):
            raise ParseError(f"non-finite feature value in {token!r}", line_no)
        if idx in seen:
            raise ParseError(f"duplicate feature index {idx}", line_no)
        seen.add(idx)
        vals.append(val)
    if d is not None and seen and max(seen) > d:
        raise ParseError(f"feature index {max(seen)} exceeds declared d={d}", line_no)


def per_token_parse(
    source, task: str, d: int | None = None, label_map: dict[int, int] | None = None
) -> Dataset:
    """``vvlearn.dataio.parse_sparse_text`` one token at a time, as it was before its array passes.

    ``source`` is a path or a file-like object.  ``d`` overrides the
    inferred dimension (max feature index); a feature index past it is a
    parse error.  ``label_map`` (file id, 0-based for multilabel, to
    component) replaces the inference the module docstring describes and
    sets c to its size; a label outside it is a parse error.
    """
    if task not in ("mcc", "mlc"):
        raise ValueError(f"task must be 'mcc' or 'mlc', got {task!r}")
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source) as handle:
            lines = handle.read().splitlines()

    labels: list[list[int]] = []
    counts: list[int] = []
    cols, vals = array("q"), array("d")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split()
        labels.append(_parse_label_field(fields[0], task, line_no))
        _parse_features(fields[1:], line_no, d, cols, vals)
        counts.append(len(fields) - 1)
    if not labels:
        raise ParseError("no examples found")

    n = len(labels)
    cols, vals = np.frombuffer(cols, dtype=np.int64), np.frombuffer(vals, dtype=np.float64)
    row = np.repeat(np.arange(n), counts)
    if np.any((row[1:] == row[:-1]) & (cols[1:] < cols[:-1])):
        order = np.lexsort((cols, row))  # sort each row by feature index
        cols, vals = cols[order], vals[order]
    dim = d if d is not None else (int(cols.max()) + 1 if cols.size else 0)
    seen = list(dict.fromkeys(chain.from_iterable(labels)))
    if label_map is None and (task == "mlc" or set(seen) == set(range(len(seen)))):
        label_map = {i: i for i in range(max(seen) + 1)}
    elif label_map is None:
        label_map = {i: rank for rank, i in enumerate(seen)}
    unknown = [i for i in seen if i not in label_map]
    if unknown:
        shown = unknown[0] + (task == "mlc")  # multilabel ids are 1-based on disk
        raise ParseError(f"label id {shown} is not one of the {len(label_map)} known classes")
    if task == "mcc":
        y = np.array([label_map[ids[0]] for ids in labels], dtype=np.int64)
    else:
        y = np.full((n, len(label_map)), -1, dtype=np.int8)
        hits = [label_map[i] for ids in labels for i in ids]
        y[np.repeat(np.arange(n), [len(ids) for ids in labels]), hits] = 1
    indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    X = sp.csr_matrix((vals, cols, indptr), shape=(n, dim))
    return Dataset(X, y, len(label_map), task, label_map)
