"""Prediction, the grouping of CSR rows by nnz, and matrix norms.

A predictor is a dense weight matrix ``w`` of shape ``(d, c)`` holding one
column per output component: component j scores an input x as the inner
product <w[:, j], x>.  Inputs are the rows of a CSR record of plain numpy
arrays (see ``dataio.Dataset``).  Weight matrices are plain float64 numpy
arrays throughout; rows are feature-contiguous so the per-example update
in stochastic training touches contiguous memory.
"""

from __future__ import annotations

import numpy as np

# Entries per BLAS dot in ``squared_norms``; OpenBLAS threads a longer dot.
_DOT_PIECE = 1 << 13
# Values of w (512 KB) that ``predict`` copies for one piece of a group of
# rows, so the copy stays in cache at any c.
_GATHER_VALUES = 1 << 16


def predict(w: np.ndarray, X, rows: np.ndarray | None = None) -> np.ndarray:
    """Scores X[rows] @ w, shape (len(rows), c), for a CSR record X (all rows when rows is None).

    Each score sums value * w[col] over its row's entries in entry order from
    +0.0, as scipy's sparse product does, bit for bit.  ``einsum`` keeps that
    order while its inner loop runs over two or more scores, so a lone column
    is scored beside a zero one.  Rows are scored by equal nnz k in pieces of
    ``core.nnz_groups``: m rows whose gathered copy of w, (k, m, c), holds at
    most ``_GATHER_VALUES`` values (or one row), so the call's working set
    does not grow with the rows scored.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weight matrix must be two-dimensional, got shape {w.shape}")
    if X.shape[1] != w.shape[0]:
        raise ValueError(f"input has dimension {X.shape[1]} but weight matrix expects {w.shape[0]}")
    if w.shape[1] == 1:
        return predict(np.hstack([w, np.zeros_like(w)]), X, rows)[:, :1]
    out = np.zeros((X.shape[0] if rows is None else len(rows), w.shape[1]))
    for members, starts, k in nnz_groups(X.indptr, rows, _GATHER_VALUES // w.shape[1]):
        entries = starts + np.arange(k)[:, None]  # entry j of every member in row j
        values = X.data.take(entries)
        if k == w.shape[0]:  # full-width rows hold columns 0 to d - 1 in order
            out[members] = np.einsum("kn,kc->cn", values, w).T
        else:
            out[members] = np.einsum("kn,knc->nc", values, w.take(X.indices.take(entries), axis=0))
    return out


def nnz_groups(indptr: np.ndarray, rows: np.ndarray | None = None, max_entries: int | None = None):
    """Rows of a CSR layout grouped by nnz: yields (members, starts, k) for k ascending.

    indptr is the layout's row pointer.  members holds the ascending
    positions in rows (every row when rows is None) whose row has k > 0
    entries, and starts where each one's entries begin; rows without entries
    belong to no group.  With max_entries, a group comes in pieces of at
    most that many entries, or of one row.
    """
    starts = indptr[:-1] if rows is None else indptr.take(rows)
    widths = (indptr[1:] if rows is None else indptr.take(np.add(rows, 1))) - starts
    for k in np.unique(widths[widths > 0]).tolist():
        members = np.flatnonzero(widths == k)
        size = len(members) if max_entries is None else max(1, max_entries // k)
        for lo in range(0, len(members), size):
            piece = members[lo : lo + size]
            yield piece, starts.take(piece), k


def segments(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the entries of the given rows of a CSR layout sit once gathered row after row.

    indptr is the layout's row pointer.  Returns (offsets, source): row k
    of rows has its entries at offsets[k] to offsets[k + 1] of the gathered
    arrays, taken from positions source[offsets[k] : offsets[k + 1]].
    """
    starts = indptr.take(rows)
    widths = indptr.take(rows + 1) - starts
    offsets = np.zeros(len(widths) + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    # entry j of row k sits at offsets[k] + j once gathered and at starts[k] + j before
    source = np.repeat(starts - offsets[:-1], widths)
    source += np.arange(offsets[-1])
    return offsets, source


def squared_norms(a: np.ndarray) -> np.ndarray:
    """||a[i]||^2 for each row of an (m, k) array: the per-row dots of ``np.linalg.norm`` over
    pieces of ``_DOT_PIECE`` entries, added left to right, so no BLAS thread count moves a bit."""
    out = np.vecdot(a[:, :_DOT_PIECE], a[:, :_DOT_PIECE])
    for lo in range(_DOT_PIECE, a.shape[1], _DOT_PIECE):
        out += np.vecdot(a[:, lo : lo + _DOT_PIECE], a[:, lo : lo + _DOT_PIECE])
    return out


def _each(norms):
    return float(norms) if np.ndim(norms) == 0 else norms  # a float for one matrix, an array for a stack


def frobenius_norm(w: np.ndarray):
    """Frobenius norm of a (d, c) matrix, or of each of a (..., d, c) stack: the root of a pairwise sum of squares.

    Not ``np.linalg.norm``: its BLAS dot splits long sums across threads,
    so its last bits would depend on the BLAS thread count.
    """
    w = np.asarray(w, dtype=np.float64)
    return _each(np.sqrt(np.sum(w * w, axis=(-2, -1))))


def l2p_norm(w: np.ndarray, p: float):
    """Group (2, p)-norm of a (d, c) matrix or of each of a (..., d, c) stack: the p-norm of the column 2-norms.

    Computes (sum_j ||w[:, j]||_2^p)^(1/p).  Only p in (1, 2] is
    accepted; at p = 2 this coincides with the Frobenius norm.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    sums = np.sum(np.linalg.norm(np.asarray(w, dtype=np.float64), axis=-2) ** p, axis=-1)
    # one scalar power per matrix: numpy's vectorized power can differ in the last bit
    return _each(np.array([total ** (1.0 / p) for total in sums.ravel()]).reshape(sums.shape))
