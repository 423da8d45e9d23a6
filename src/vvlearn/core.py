"""Prediction and matrix norms.

A predictor is a dense weight matrix ``w`` of shape ``(d, c)`` holding one
column per output component: component j scores an input x as the inner
product <w[:, j], x>.  Inputs are the rows of a scipy CSR matrix (see
``dataio.Dataset``) or dense vectors.  Weight matrices are plain float64
numpy arrays throughout; rows are feature-contiguous so the per-example
update in stochastic training touches contiguous memory.
"""

from __future__ import annotations

import numpy as np


def predict(w: np.ndarray, x) -> np.ndarray:
    """Scores x @ w: shape (n, c) for an (n, d) input matrix, (c,) for a vector.

    ``x`` may be a scipy sparse matrix or a dense array.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"weight matrix must be two-dimensional, got shape {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ValueError(
            f"input has dimension {x.shape[-1]} but weight matrix expects {w.shape[0]}"
        )
    return np.asarray(x @ w)


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


def frobenius_norm(w: np.ndarray) -> float:
    """Frobenius norm: the root of numpy's pairwise sum of squares.

    Not ``np.linalg.norm``: its BLAS dot splits long sums across threads,
    so its last bits would depend on the BLAS thread count.
    """
    w = np.asarray(w, dtype=np.float64)
    return float(np.sqrt(np.sum(w * w)))


def l2p_norm(w: np.ndarray, p: float) -> float:
    """Group (2, p)-norm: the p-norm of the vector of column 2-norms.

    Computes (sum_j ||w[:, j]||_2^p)^(1/p).  Only p in (1, 2] is
    accepted; at p = 2 this coincides with the Frobenius norm.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    col_norms = np.linalg.norm(np.asarray(w, dtype=np.float64), axis=0)
    return float(np.sum(col_norms**p) ** (1.0 / p))

