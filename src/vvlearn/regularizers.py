"""Strongly convex regularizers on weight matrices.

Both regularizers are squared-norm penalties r(w) = (sigma/2) * N(w)^2.
``frobenius`` uses the Frobenius norm and is sigma-strongly convex with
respect to it.  ``l2p`` uses the group (2, p)-norm for p in (1, 2] and is
sigma*(p - 1)-strongly convex with respect to that norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import frobenius_norm, l2p_norm


@dataclass(frozen=True)
class RegularizerSpec:
    kind: str
    sigma: float
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("frobenius", "l2p"):
            raise ValueError(f"unknown regularizer {self.kind!r}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.sigma == np.inf:
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if self.kind == "l2p":
            if self.p is None or not 1.0 < self.p <= 2.0:
                raise ValueError(f"l2p needs p in (1, 2], got {self.p}")

    @staticmethod
    def frobenius(sigma: float) -> "RegularizerSpec":
        return RegularizerSpec("frobenius", sigma)

    @staticmethod
    def l2p(sigma: float, p: float) -> "RegularizerSpec":
        return RegularizerSpec("l2p", sigma, p=p)

    @property
    def name(self) -> str:
        if self.kind == "l2p":
            return f"l2p(p={self.p})"
        return self.kind

    @property
    def strong_convexity(self) -> float:
        """Modulus with respect to the regularizer's own norm."""
        if self.kind == "frobenius":
            return self.sigma
        return self.sigma * (self.p - 1.0)

    def norm(self, w: np.ndarray) -> float:
        """The norm this regularizer penalizes (and is strongly convex in)."""
        if self.kind == "frobenius":
            return frobenius_norm(w)
        return l2p_norm(w, self.p)

    def value(self, w: np.ndarray) -> float:
        return 0.5 * self.sigma * self.norm(w) ** 2

    def column_scale(self, w: np.ndarray) -> np.ndarray:
        """Factors s, shape (c,), with grad(w) = w * s column by column.

        Frobenius: s_j = sigma.  Group (2, p):

            s_j = sigma * ||w||_{2,p}^{2-p} * ||w_j||_2^{p-2},

        with s_j = 0 for zero columns, so grad(0) = 0.
        """
        if self.kind == "frobenius":
            return np.full(np.shape(w)[1], self.sigma)
        col_norms = np.linalg.norm(w, axis=0)
        total = float(np.sum(col_norms**self.p) ** (1.0 / self.p))
        scale = np.zeros_like(col_norms)
        nz = col_norms > 0.0
        scale[nz] = self.sigma * total ** (2.0 - self.p) * col_norms[nz] ** (self.p - 2.0)
        return scale

    def grad(self, w: np.ndarray) -> np.ndarray:
        """Gradient of (sigma/2) * N(w)^2: each column w_j times column_scale(w)[j]."""
        w = np.asarray(w, dtype=np.float64)
        return w * self.column_scale(w)[None, :]
