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

The parser streams its source: it reads a block at a time, decodes the
whole lines read so far and parses them as one batch in array passes (one
tokenization, Python's ``int`` and ``float`` mapped over the tokens, and one
numpy mask per rule), so it never holds the file's text.  Only a batch that
breaks a rule is read again, one line at a time, up to the line that raises
the error with its 1-based number.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .core import nnz_groups, squared_norms
from .seeding import generator


# Entries per block of equal-nnz rows that ``row_sq_norms`` and
# ``normalize_rows`` take from ``core.nnz_groups``, bounding their temporaries.
_NORMALIZE_CHUNK_ENTRIES = 1 << 14
# Bytes (characters for a text source) that ``parse_sparse_text`` reads at
# once; it decodes and parses the whole lines read so far, bounding its text
# and token lists.
_PARSE_BATCH_CHARS = 1 << 15


class ParseError(ValueError):
    """A malformed data file; carries the 1-based line number if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# An (n, d) sparse matrix in plain numpy arrays: row i holds the values
# data[indptr[i] : indptr[i + 1]] at the columns indices[indptr[i] : indptr[i + 1]].
CSR = namedtuple("CSR", ["data", "indices", "indptr", "shape"])


@dataclass(eq=False)
class Dataset:
    """Input rows as a CSR record, their labels, and the task kind.

    ``X`` is an (n, d) ``CSR`` record, made from anything with CSR
    attributes, a scipy sparse matrix of any layout or a dense 2-D array, with
    strictly increasing column indices in every row and finite values; its
    index arrays are int32 while every index fits, as scipy's are.
    ``task`` is "mcc" (multiclass: ``y`` holds integer class ids in [0, c),
    shape (n,)) or "mlc" (multilabel: ``y`` holds signs in {-1, +1}, shape
    (n, c)).  The constructor rejects anything else.  ``label_map`` records
    how file label ids were remapped to dense indices; it is bookkeeping,
    not part of equality.
    """

    X: CSR
    y: np.ndarray
    c: int
    task: str
    label_map: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in ("mcc", "mlc"):
            raise ValueError(f"task must be 'mcc' or 'mlc', got {self.task!r}")
        if self.c < 0:
            raise ValueError(f"component count must be nonnegative, got {self.c}")
        X = self.X.tocsr() if getattr(self.X, "format", "csr") != "csr" else self.X  # scipy's other layouts
        if not hasattr(X, "indptr"):  # a dense 2-D array keeps its nonzero entries
            dense = np.asarray(X, dtype=np.float64)
            if dense.ndim != 2:
                raise ValueError(f"inputs must be a CSR matrix or a two-dimensional array, got shape {dense.shape}")
            rows, cols = np.nonzero(dense)  # row by row, columns increasing
            X = CSR(dense[rows, cols], cols, np.searchsorted(rows, np.arange(len(dense) + 1)), dense.shape)
        (n, d), data, indices, indptr = map(int, X.shape), np.asarray(X.data, np.float64), X.indices, X.indptr
        nnz, widths = len(data), np.diff(indptr)
        if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != nnz or len(indices) != nnz or np.any(widths < 0):
            raise ValueError(f"row pointer must rise from 0 to the {nnz} entries in {n} steps")
        if nnz and (indices.min() < 0 or indices.max() >= d):
            raise ValueError(f"column indices must lie in [0, {d})")
        row = np.repeat(np.arange(n), widths)
        if np.any((row[1:] == row[:-1]) & (indices[1:] <= indices[:-1])):
            raise ValueError("column indices must be strictly increasing within each row")
        if not np.all(np.isfinite(data)):
            raise ValueError("values must be finite")
        index = np.int32 if max(n, d, nnz) < 2**31 else np.int64
        X = CSR(data, np.asarray(indices, index), np.asarray(indptr, index), (n, d))
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
        """Each row's squared norm, with the per-row dot ``normalize_rows`` makes 1.0: kappa and SGD's ||x||^2."""
        # per-row dots on equal-nnz row blocks, as np.linalg.norm takes them
        out = np.zeros(len(self))
        for rows, starts, k in nnz_groups(self.X.indptr, max_entries=_NORMALIZE_CHUNK_ENTRIES):
            out[rows] = squared_norms(self.X.data[starts[:, None] + np.arange(k)])
        return out

    @property
    def kappa(self) -> float:
        """Largest row norm."""
        return math.sqrt(float(self.row_sq_norms.max(initial=0.0)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        same = all(map(np.array_equal, (*self.X, self.y), (*other.X, other.y)))
        return same and self.c == other.c and self.task == other.task


def write_lines(destination, lines) -> None:
    """Write the lines, each ended by a newline, to a path or a file-like object."""
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as handle:
            handle.write(text)


def _check_line(line: str, line_no: int, task: str, d: int | None) -> None:
    """Raise the ParseError of the first rule the line breaks, in reading order; read only in a batch that broke one."""
    head, *tokens = line.split()
    ids = []
    for part in [head] if task == "mcc" else head.split(","):
        try:
            ids.append(int(part))
            if task == "mlc" and ids[-1] >= 2**63:  # component ids are int64
                raise ValueError
        except ValueError:
            raise ParseError(f"bad {'class' if task == 'mcc' else 'label'} id {part!r}", line_no) from None
        if task == "mlc" and ids[-1] < 1:
            raise ParseError(f"label ids are 1-based, got {ids[-1]}", line_no)
    if len(set(ids)) != len(ids):
        raise ParseError(f"duplicate label id in {head!r}", line_no)
    seen: set[int] = set()
    for token in tokens:
        index, sep, value = token.partition(":")
        try:
            idx, val = int(index), float(value)  # both reject an empty side and a second ':'
        except ValueError:
            idx = 2**63
        if not sep or not -(2**63) < idx < 2**63:  # idx - 1 and idx are int64
            raise ParseError(f"bad feature token {token!r}", line_no)
        if idx < 1:
            raise ParseError(f"feature indices are 1-based, got {idx}", line_no)
        if not math.isfinite(val):
            raise ParseError(f"non-finite feature value in {token!r}", line_no)
        if idx in seen:
            raise ParseError(f"duplicate feature index {idx}", line_no)
        seen.add(idx)
    if d is not None and seen and max(seen) > d:
        raise ParseError(f"feature index {max(seen)} exceeds declared d={d}", line_no)


def _whole_lines(read, newline):
    """Runs of whole lines from read(_PARSE_BATCH_CHARS) until it returns nothing.

    Each block is cut after its last newline and the rest is carried into
    the next run, so a line longer than a block spans several reads.
    """
    carry = []
    while block := read(_PARSE_BATCH_CHARS):
        cut = block.rfind(newline) + 1
        if cut:
            yield block[:0].join([*carry, block[:cut]])
            carry = []
        carry.append(block[cut:])
    if tail := block.join(carry):  # block is empty here
        yield tail


def _runs(source):
    """(number of the first line, lines) of runs of whole lines of a path or a file-like object.

    A path is read as bytes and each run decoded on its own with the
    encoding ``open`` picks; a cut after a newline byte never falls inside
    a CRLF or a UTF-8 sequence.  Undecodable bytes are a ParseError naming
    their line, raised once the whole lines before them have been yielded.
    """
    number = 1
    if hasattr(source, "read"):
        for run in _whole_lines(source.read, "\n"):
            lines = run.splitlines()
            yield number, lines
            number += len(lines)
        return
    with open(source) as handle:
        encoding = handle.encoding
        for run in _whole_lines(handle.buffer.read, b"\n"):
            try:
                lines = run.decode(encoding).splitlines()
            except UnicodeDecodeError as err:
                *lines, _ = (run[: err.start].decode(encoding) + ".").splitlines()
                yield number, lines
                line = number + len(lines)
                raise ParseError(f"cannot decode {run[err.start : err.end]!r} as {encoding}", line) from None
            yield number, lines
            number += len(lines)


def _sorted_within(rows: np.ndarray, keys: np.ndarray):
    """The order that sorts keys within each run of equal rows (None if they already increase), and whether a row repeats a key."""
    same = rows[1:] == rows[:-1]
    if not np.any(same & (keys[1:] <= keys[:-1])):
        return None, False
    order = np.lexsort((keys, rows))
    keys = keys.take(order)
    return order, bool(np.any(same & (keys[1:] == keys[:-1])))


def _parse_batch(lines: list[str], task: str, d: int | None):
    """Row widths, sorted 0-based columns and values, and raw label ids of the example lines.

    Returns None for a batch that breaks a rule, each rule checked by one
    mask over the batch; multilabel ids come with their count on each line.
    """
    fields = list(map(str.split, lines))
    m = len(fields)
    widths = np.fromiter(map(len, fields), np.intp, m) - 1
    heads = list(map(itemgetter(0), fields))
    tokens = list(chain.from_iterable(map(itemgetter(slice(1, None)), fields)))
    ntok, body = len(tokens), " ".join(tokens)
    # Every token reads index ':' value exactly when the pieces are ntok such triples.
    parts = body.replace(":", " : ").split()
    if body.count(":") != ntok or len(parts) != 3 * ntok or parts[1::3].count(":") != ntok:
        return None
    try:
        idx = np.fromiter(map(int, parts[0::3]), np.int64, ntok)
        vals = np.fromiter(map(float, parts[2::3]), np.float64, ntok)
        if task == "mcc":
            ids, counts = list(map(int, heads)), None
        else:
            counts = np.fromiter(map(str.count, heads, repeat(",")), np.intp, m) + 1
            ids = np.fromiter(map(int, ",".join(heads).split(",")), np.int64, int(counts.sum()))
    except (ValueError, OverflowError):  # past int64, or not a number Python reads
        return None
    cols = idx - 1
    order, twice = _sorted_within(np.repeat(np.arange(m), widths), cols)
    broken = twice or np.any(idx < 1) or not np.isfinite(vals).all() or (d is not None and np.any(cols >= d))
    if task == "mlc":
        broken = broken or np.any(ids < 1) or _sorted_within(np.repeat(np.arange(m), counts), ids)[1]
    if broken:
        return None
    if order is not None:
        cols, vals = cols.take(order), vals.take(order)
    return widths, cols, vals, ids, counts


def parse_sparse_text(
    source, task: str, d: int | None = None, label_map: dict[int, int] | None = None
) -> Dataset:
    """Parse the sparse text format into a Dataset.

    ``source`` is a path or a file-like object.  ``d`` overrides the
    inferred dimension (max feature index); a feature index past it is a
    parse error.  ``label_map`` (file id, 0-based for multilabel, to
    component) replaces the inference the module docstring describes and
    sets c to its size; a label outside it is a parse error.  The source is
    read, decoded and parsed in runs of whole lines of about
    ``_PARSE_BATCH_CHARS`` bytes (characters for a text source), so errors
    come in file order: the first bad line raises, an undecodable one too.
    """
    if task not in ("mcc", "mlc"):
        raise ValueError(f"task must be 'mcc' or 'mlc', got {task!r}")
    widths, cols, vals, ids, counts = [], [], [], [], []
    with closing(_runs(source)) as runs:
        for number, lines in runs:
            examples = [line for line in lines if line and not line.isspace() and line[0] != "#"]
            if not examples:
                continue
            parsed = _parse_batch(examples, task, d)
            if parsed is None:  # some line breaks a rule; reading them in order raises its error
                for line_no, line in enumerate(lines, start=number):
                    if line and not line.isspace() and line[0] != "#":
                        _check_line(line, line_no, task, d)
            w, c, v, i, k = parsed
            widths.append(w)
            cols.append(c)
            vals.append(v)
            ids += i if task == "mcc" else (i - 1).tolist()
            counts.append(k)
    if not widths:
        raise ParseError("no examples found")
    widths, cols, vals = np.concatenate(widths), np.concatenate(cols), np.concatenate(vals)
    n = len(widths)
    dim = d if d is not None else (int(cols.max()) + 1 if len(cols) else 0)
    seen = list(dict.fromkeys(ids))
    if label_map is None and (task == "mlc" or set(seen) == set(range(len(seen)))):
        label_map = {i: i for i in range(max(seen) + 1)}
    elif label_map is None:
        label_map = {i: rank for rank, i in enumerate(seen)}
    unknown = [i for i in seen if i not in label_map]
    if unknown:
        shown = unknown[0] + (task == "mlc")  # multilabel ids are 1-based on disk
        raise ParseError(f"label id {shown} is not one of the {len(label_map)} known classes")
    hits = np.fromiter(map(label_map.__getitem__, ids), np.int64, len(ids))
    if task == "mcc":
        y = hits
    else:
        y = np.full((n, len(label_map)), -1, dtype=np.int8)
        y[np.repeat(np.arange(n), np.concatenate(counts)), hits] = 1
    indptr = np.concatenate(([0], np.cumsum(widths)))
    return Dataset(CSR(vals, cols, indptr, (n, dim)), y, len(label_map), task, label_map)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Rescale each row of an (m, k) array so its recomputed Euclidean norm is exactly 1.0.

    Each row is first scaled by the power of two that brings its largest
    entry into [0.5, 1), which is exact and keeps the norm clear of
    overflow and underflow, then divided by its norm.  Norms are per-row
    dots (``core.squared_norms``), the same bits as ``np.linalg.norm`` of a
    row of up to 8,192 entries.
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
    norms = np.sqrt(squared_norms(out))
    walk = (norms != 0.0) & (norms != 1.0)
    np.divide(out, norms[:, None], out=out, where=walk[:, None])
    walk = walk.nonzero()[0]
    top = np.argmax(np.abs(out[walk]), axis=1)  # the entry each row's walk steps
    for _ in range(100_000):
        norms = np.sqrt(squared_norms(out[walk]))
        off = norms != 1.0
        if not off.any():
            return out
        walk, top, norms = walk[off], top[off], norms[off]
        ends = out[walk, top]
        out[walk, top] = np.nextafter(ends, np.where(norms > 1.0, 0.0, np.copysign(np.inf, ends)))
    raise ArithmeticError("unit rescaling failed to land on norm 1.0")


def normalize_rows(dataset: Dataset) -> Dataset:
    """Scale every nonzero input to unit Euclidean norm; zero rows stay.

    Rows are rescaled in the equal-nnz blocks ``Dataset.row_sq_norms`` reads.
    """
    X = dataset.X
    data = X.data.copy()
    for _, starts, k in nnz_groups(X.indptr, max_entries=_NORMALIZE_CHUNK_ENTRIES):
        entries = starts[:, None] + np.arange(k)
        data[entries] = _unit_rows(data[entries])
    return Dataset(X._replace(data=data), dataset.y, dataset.c, dataset.task, dict(dataset.label_map))


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
    X = CSR(inputs.ravel(), np.tile(np.arange(d), n), np.arange(0, n * d + 1, d), (n, d))
    return Dataset(X, y, c, task, {i: i for i in range(c)})


def _force_both_signs(signs: np.ndarray, scores: np.ndarray) -> None:
    """Flip the most extreme component of single-sign rows, in place."""
    all_pos = np.all(signs > 0, axis=1)
    all_neg = np.all(signs < 0, axis=1)
    for i in np.flatnonzero(all_pos):
        signs[i, np.argmin(scores[i])] = -1
    for i in np.flatnonzero(all_neg):
        signs[i, np.argmax(scores[i])] = 1
