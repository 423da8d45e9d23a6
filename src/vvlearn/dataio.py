"""Dataset container, sparse text format, splits, and synthetic data.

The text format is one example per line:

    <labels> <index>:<value> <index>:<value> ...

Feature indices are 1-based on disk and 0-based in memory.  Multiclass
lines carry a single integer class id; multilabel lines carry a
comma-separated list of 1-based component ids that map to a +1/-1 sign
vector.  Lines starting with '#' and blank lines are skipped.  Without a
given label map, multiclass class ids are remapped to a dense [0, c) by
first appearance unless they already are dense, and multilabel component
ids are positional and never remapped; the mapping is retained on the
dataset.  A given map (a saved model's classes) is used as it is.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .seeding import generator


# Entries per block that ``normalize_rows`` rescales at once, bounding its
# temporary arrays.
_NORMALIZE_CHUNK_ENTRIES = 1 << 14


class ParseError(ValueError):
    """A malformed data file; carries the 1-based line number if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(eq=False)
class Dataset:
    """Input rows as a CSR matrix, their labels, and the task kind.

    ``X`` is an (n, d) scipy CSR matrix (anything ``scipy.sparse.csr_matrix``
    accepts, dense arrays included) with sorted, unique column indices in
    every row and finite values.  ``task`` is "mcc" (multiclass: ``y`` holds
    integer class ids in [0, c), shape (n,)) or "mlc" (multilabel: ``y``
    holds signs in {-1, +1}, shape (n, c)).  The constructor rejects
    anything else.  ``label_map`` records how file label ids were remapped
    to dense indices; it is bookkeeping, not part of equality.
    """

    X: sp.csr_matrix
    y: np.ndarray
    c: int
    task: str
    label_map: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in ("mcc", "mlc"):
            raise ValueError(f"task must be 'mcc' or 'mlc', got {self.task!r}")
        if self.c < 0:
            raise ValueError(f"component count must be nonnegative, got {self.c}")
        X = sp.csr_matrix(self.X, dtype=np.float64)
        # A fresh matrix, so scipy recomputes its canonical-format flag.
        X = sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
        n, d = X.shape
        if X.nnz and (X.indices.min() < 0 or X.indices.max() >= d):
            raise ValueError(f"column indices must lie in [0, {d})")
        if not X.has_canonical_format:
            raise ValueError("column indices must be strictly increasing within each row")
        if not np.all(np.isfinite(X.data)):
            raise ValueError("values must be finite")
        y = np.asarray(self.y)
        if self.task == "mcc":
            if y.shape != (n,) or (n and not np.issubdtype(y.dtype, np.integer)):
                raise ValueError(f"class ids must be {n} integers, got {y.dtype} of shape {y.shape}")
            y = y.astype(np.int64)
            if n and (y.min() < 0 or y.max() >= self.c):
                raise ValueError(f"class ids must lie in [0, {self.c})")
        else:
            if y.shape != (n, self.c):
                raise ValueError(f"sign matrix must have shape {(n, self.c)}, got {y.shape}")
            if not np.all(np.abs(y) == 1):
                raise ValueError("sign vector entries must be -1 or +1")
            y = y.astype(np.int8)
        self.X, self.y = X, y

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @cached_property
    def row_sq_norms(self) -> np.ndarray:
        """Each row's squared norm, with the per-row dot ``normalize_rows`` makes 1.0."""
        # vecdot on equal-nnz row blocks runs np.linalg.norm's per-row dot
        starts, lengths = self.X.indptr[:-1], np.diff(self.X.indptr)
        out = np.zeros(len(self))
        for k in np.unique(lengths[lengths > 0]):
            rows = lengths == k
            block = self.X.data[starts[rows][:, None] + np.arange(k)]
            out[rows] = np.vecdot(block, block)
        return out

    @property
    def kappa(self) -> float:
        """Largest row norm."""
        return math.sqrt(float(self.row_sq_norms.max(initial=0.0)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        a, b = self.X, other.X
        return (
            a.shape == b.shape
            and self.c == other.c
            and self.task == other.task
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
            and np.array_equal(self.y, other.y)
        )


def write_lines(destination, lines) -> None:
    """Write the lines, each ended by a newline, to a path or a file-like object."""
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as handle:
            handle.write(text)


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


def parse_sparse_text(
    source, task: str, d: int | None = None, label_map: dict[int, int] | None = None
) -> Dataset:
    """Parse the sparse text format into a Dataset.

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


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Rescale each row of an (m, k) array so its recomputed Euclidean norm is exactly 1.0.

    Each row is first scaled by the power of two that brings its largest
    entry into [0.5, 1), which is exact and keeps the norm clear of
    overflow and underflow, then divided by its norm.  Norms are per-row
    dots (``np.vecdot``), the same bits as ``np.linalg.norm`` of the row.
    Plain division can leave the norm a few ulps off 1.0; on those rows the
    largest entry is then stepped one ulp at a time, all such rows at once,
    until each norm lands on 1.0 exactly.  Near 1.0 the achievable norms
    are denser than the rounding window, so the walk ends after a handful
    of steps (observed worst case is two digits).  Rows that already have
    unit norm, and zero rows, come back unchanged, which makes the
    rescaling idempotent.
    """
    largest = np.maximum(rows.max(axis=1, initial=0.0), -rows.min(axis=1, initial=0.0))
    out = np.ldexp(rows, -np.frexp(largest)[1][:, None])
    norms = np.sqrt(np.vecdot(out, out))
    walk = (norms != 0.0) & (norms != 1.0)
    np.divide(out, norms[:, None], out=out, where=walk[:, None])
    walk = walk.nonzero()[0]
    top = np.argmax(np.abs(out[walk]), axis=1)  # the entry each row's walk steps
    for _ in range(100_000):
        norms = np.sqrt(np.vecdot(out[walk], out[walk]))
        off = norms != 1.0
        if not off.any():
            return out
        walk, top, norms = walk[off], top[off], norms[off]
        ends = out[walk, top]
        out[walk, top] = np.nextafter(ends, np.where(norms > 1.0, 0.0, np.copysign(np.inf, ends)))
    raise ArithmeticError("unit rescaling failed to land on norm 1.0")


def normalize_rows(dataset: Dataset) -> Dataset:
    """Scale every nonzero input to unit Euclidean norm; zero rows stay.

    Rows are rescaled in blocks of equal nnz, as ``Dataset.row_sq_norms``
    reads them, of at most _NORMALIZE_CHUNK_ENTRIES entries each.
    """
    X = dataset.X
    data = X.data.copy()
    starts, lengths = X.indptr[:-1], np.diff(X.indptr)
    for k in np.unique(lengths[lengths > 0]):
        firsts, size = starts[lengths == k], max(1, _NORMALIZE_CHUNK_ENTRIES // k)
        for lo in range(0, len(firsts), size):
            entries = firsts[lo : lo + size, None] + np.arange(k)
            data[entries] = _unit_rows(data[entries])
    unit = sp.csr_matrix((data, X.indices, X.indptr), shape=X.shape)
    return Dataset(unit, dataset.y, dataset.c, dataset.task, dict(dataset.label_map))


def split(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of an n-row dataset: a deterministic shuffle, cut after floor(fraction * n).

    Fractions that leave either side empty are rejected.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    head = int(fraction * n)
    if head == 0 or head == n:
        raise ValueError(f"fraction {fraction} leaves an empty side for n={n}")
    perm = generator(seed).permutation(n)
    return perm[:head], perm[head:]


def subsample(n: int, size: int, seed: int) -> np.ndarray:
    """A uniform subset of the given size of n rows, drawn without replacement."""
    if not 1 <= size <= n:
        raise ValueError(f"subsample size must lie in [1, {n}], got {size}")
    return generator(seed).permutation(n)[:size]


def synth_gen(
    n: int, d: int, c: int, task: str = "mcc", noise: float = 0.0, seed: int = 0
) -> Dataset:
    """Synthetic linearly-structured data from a hidden weight matrix.

    Draws a hidden matrix with unit-norm columns and unit-norm Gaussian
    inputs (so kappa is exactly 1).  Multiclass labels are the argmax
    score; multilabel sign vectors are the score signs, nudged at the
    most extreme component so that both signs occur.  Each label is then
    flipped with probability ``noise`` (multiclass: to a random other
    class), and degenerate sign vectors are nudged again.  Every input
    stores all d entries.
    """
    if n < 1 or d < 1 or c < 2:
        raise ValueError(f"need n >= 1, d >= 1, c >= 2, got {(n, d, c)}")
    if task not in ("mcc", "mlc"):
        raise ValueError(f"task must be 'mcc' or 'mlc', got {task!r}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    rng = generator(seed)
    hidden = rng.standard_normal((d, c))
    hidden /= np.linalg.norm(hidden, axis=0, keepdims=True)
    inputs = _unit_rows(rng.standard_normal((n, d)))
    scores = inputs @ hidden

    if task == "mcc":
        labels = np.argmax(scores, axis=1)
        flip = rng.random(n) < noise
        other = rng.integers(0, c - 1, size=n)
        flipped = other + (other >= labels)
        y = np.where(flip, flipped, labels)
    else:
        signs = np.where(scores >= 0.0, 1, -1).astype(np.int8)
        _force_both_signs(signs, scores)
        flip = rng.random((n, c)) < noise
        y = np.where(flip, -signs, signs).astype(np.int8)
        _force_both_signs(y, scores)
    X = sp.csr_matrix((inputs.ravel(), np.tile(np.arange(d), n), np.arange(0, n * d + 1, d)), shape=(n, d))
    return Dataset(X, y, c, task, {i: i for i in range(c)})


def _force_both_signs(signs: np.ndarray, scores: np.ndarray) -> None:
    """Flip the most extreme component of single-sign rows, in place."""
    all_pos = np.all(signs > 0, axis=1)
    all_neg = np.all(signs < 0, axis=1)
    for i in np.flatnonzero(all_pos):
        signs[i, np.argmin(scores[i])] = -1
    for i in np.flatnonzero(all_neg):
        signs[i, np.argmax(scores[i])] = 1
