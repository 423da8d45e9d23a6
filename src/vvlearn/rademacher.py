"""Rademacher complexity of norm-bounded linear predictor classes.

The function class is viewed through extended samples: pairs (x, j) of an
input and a component index, with the class member w scoring a pair as
<w[:, j], x>.  Over the Frobenius ball of radius R the supremum of the
signed sum has a closed form,

    sup_{||w||_F <= R} sum_i s_i <w[:, j_i], x_i> = R * ||A||_F,

where A accumulates s_i * x_i into column j_i.  Complexity estimates
average sup/m over random sign vectors, or over all 2^m of them exactly
when m is small.  One kernel, ``_accumulate``, forms A for a matrix of
sign vectors from the pairs stable-sorted by component, so each column of
A is one contiguous slice of the signs times contiguous input rows.  The
exact average meets in the middle over the sign patterns of two halves of
the pairs; Monte-Carlo signs are unpacked from packed random bytes.
``sandwich_check`` compares estimates against the analytic band

    sqrt(1/(2*m)) * R * kappa  <=  worst-case estimate  <=  sqrt(2*cap/(m*sigma)) * kappa,

whose lower half comes from a sample of m identical pairs plus the
Khintchine inequality E|sum of m signs| >= sqrt(m/2), and whose upper
half holds for every sample with input norms at most kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import write_lines
from .seeding import derive_seed, generator

_EXACT_LIMIT = 20
_CHUNK_ENTRIES = 4_000_000


@dataclass
class ExtendedSample:
    """A sequence of (input, component) pairs over c components.

    ``X`` holds the inputs as dense rows, shape (m, d); ``js`` the
    component index of each pair.
    """

    X: np.ndarray
    js: np.ndarray
    c: int

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        js = np.asarray(self.js)
        if js.dtype.kind not in "iu":
            raise ValueError(f"component indices must be integers, got dtype {js.dtype}")
        self.js = js.astype(np.int64)
        if not np.all(np.isfinite(self.X)):
            raise ValueError("inputs must be finite")
        if self.X.ndim != 2:
            raise ValueError(f"inputs must form an (m, d) array, got shape {self.X.shape}")
        if self.X.shape[0] != self.js.size:
            raise ValueError(
                f"{self.X.shape[0]} inputs but {self.js.size} component indices"
            )
        if self.X.shape[0] == 0:
            raise ValueError("extended sample must be nonempty")
        if self.c < 1:
            raise ValueError(f"component count must be positive, got {self.c}")
        if np.any(self.js < 0) or np.any(self.js >= self.c):
            raise ValueError(f"component indices must lie in [0, {self.c})")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def identical_pair_sample(m: int, d: int, c: int, kappa: float = 1.0) -> ExtendedSample:
    """The worst-case sample: m copies of (kappa * e_0, component 0)."""
    X = np.zeros((m, d))
    X[:, 0] = kappa
    return ExtendedSample(X, np.zeros(m, dtype=np.int64), c)


def _by_component(sample: ExtendedSample):
    """Stable pair order by component, sorted inputs and ids, and the ids in use."""
    order = np.argsort(sample.js, kind="stable")
    js = sample.js[order]
    return order, sample.X[order], js, np.unique(js)


def _accumulate(signs: np.ndarray, X: np.ndarray, js: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """A for each row of a (K, m) sign matrix, flattened to (K, slots.size * d).

    ``X`` and ``js`` are sorted by component; block t sums the pairs of
    component slots[t], one column slice of ``signs`` widened to float64 alone.
    """
    d = X.shape[1]
    A = np.zeros((signs.shape[0], slots.size * d))
    lo, hi = np.searchsorted(js, slots, side="left"), np.searchsorted(js, slots, side="right")
    for t in np.flatnonzero(hi > lo):
        block = np.asarray(signs[:, lo[t] : hi[t]], dtype=np.float64)
        A[:, t * d : (t + 1) * d] = block @ X[lo[t] : hi[t]]
    return A


def _sup(A: np.ndarray, radius: float) -> np.ndarray:
    return radius * np.sqrt(np.einsum("...w,...w->...", A, A))


def sup_ball(sample: ExtendedSample, signs: np.ndarray, radius: float) -> float:
    """Closed-form supremum of the signed sum over the Frobenius ball.

    Accumulates signs[i] * x_i into column j_i and returns radius times
    the Frobenius norm of the accumulated matrix.
    """
    signs = np.asarray(signs, dtype=np.float64)
    if signs.shape != (sample.m,):
        raise ValueError(f"expected {sample.m} signs, got shape {signs.shape}")
    if not 0.0 <= radius < np.inf:
        raise ValueError(f"radius must be nonnegative and finite, got {radius}")
    order, X, js, slots = _by_component(sample)
    return float(_sup(_accumulate(signs[None, order], X, js, slots), radius)[0])


@dataclass
class RademacherEstimate:
    """Estimated complexity: mean of sup/m with its standard error."""

    mean: float
    std_error: float
    trials: int
    exact: bool


def _all_signs(h: int) -> np.ndarray:
    """All 2^h sign vectors of length h as rows of +-1 floats."""
    return ((np.arange(1 << h)[:, None] >> np.arange(h)) & 1) * 2.0 - 1.0


def _exact_sum(X: np.ndarray, js: np.ndarray, slots: np.ndarray, radius: float) -> float:
    """Sum of sup over all 2^m sign vectors: over every pair of sign
    patterns of the two halves of the pairs.  A_high + A_low is formed
    directly, since expanding its square norm leaves a rounding residue
    near A = 0 that can be negative."""
    h = X.shape[0] // 2
    low = _accumulate(_all_signs(h), X[:h], js[:h], slots)
    high = _accumulate(_all_signs(X.shape[0] - h), X[h:], js[h:], slots)
    rows = max(1, _CHUNK_ENTRIES // max(1, low.size))
    acc = 0.0
    for b in range(0, high.shape[0], rows):
        block = high[b : b + rows, None, :] + low[None, :, :]
        acc += float(np.sum(_sup(block, radius)))
    return acc


def estimate_complexity(
    sample: ExtendedSample, radius: float, trials: int, seed: int
) -> RademacherEstimate:
    """Monte-Carlo estimate of the empirical Rademacher complexity.

    With ``trials`` = 0 and m <= 20 the expectation is computed exactly
    over all 2^m sign vectors (std_error 0).  Otherwise ``trials`` sign
    vectors are drawn as packed random bytes from a PCG64 stream seeded
    with ``seed``; the stream is consumed in fixed-size chunks, so the
    estimate depends only on the seed.
    """
    if not 0.0 <= radius < np.inf:
        raise ValueError(f"radius must be nonnegative and finite, got {radius}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    m = sample.m
    if trials == 0 and m > _EXACT_LIMIT:
        raise ValueError(f"exact enumeration needs m <= {_EXACT_LIMIT}, got {m}")
    _, X, js, slots = _by_component(sample)
    if trials == 0:
        total = 1 << m
        return RademacherEstimate(_exact_sum(X, js, slots, radius) / (total * m), 0.0, total, True)
    chunk = max(1, _CHUNK_ENTRIES // m)
    width = (m + 7) // 8
    rng = generator(seed)
    sups = np.empty(trials)
    for done in range(0, trials, chunk):
        k = min(chunk, trials - done)
        packed = np.frombuffer(rng.bytes(k * width), dtype=np.uint8).reshape(k, width)
        signs = 2 * np.unpackbits(packed, axis=1, count=m).view(np.int8) - 1
        sups[done : done + k] = _sup(_accumulate(signs, X, js, slots), radius)
    per_trial = sups / m
    std_error = float(np.std(per_trial, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return RademacherEstimate(float(np.mean(per_trial)), std_error, trials, False)


@dataclass
class SandwichRow:
    """One sample's estimate next to the analytic band.

    The lower bound binds only the worst-case sample; ``lower_ok`` is None
    for the random rows and their verdict uses the upper bound alone.
    """

    label: str
    nc: int
    trials: int
    estimate: float
    std_error: float
    lower_ok: bool | None
    upper_ok: bool

    @property
    def passed(self) -> bool:
        return self.upper_ok and (self.lower_ok is None or self.lower_ok)


@dataclass
class SandwichReport:
    n: int
    c: int
    lower_bound: float
    upper_bound: float
    rows: list[SandwichRow]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def sandwich_check(
    n: int,
    c: int,
    d: int,
    cap: float,
    sigma: float,
    seed: int,
    trials: int = 0,
    random_samples: int = 2,
    kappa: float = 1.0,
    lower_scale: float = 1.0,
) -> SandwichReport:
    """Estimate complexities at m = n*c and compare with the analytic band.

    ``cap`` bounds the regularizer value, so the class is the Frobenius
    ball of radius R = sqrt(2*cap/sigma); R and both bounds must be
    finite.  The worst-case sample of identical pairs must land between
    lower and upper; random samples (inputs scaled to norm kappa) must
    stay below upper.  Comparisons allow a 3-standard-error band.  ``lower_scale`` rescales the lower
    bound and exists only so failure paths can be exercised.
    """
    if n < 1 or c < 1 or d < 1:
        raise ValueError(f"n, c, d must be positive, got {(n, c, d)}")
    if not all(0.0 < v < np.inf for v in (cap, sigma, kappa)):
        raise ValueError(f"cap, sigma and kappa must be positive and finite, got {(cap, sigma, kappa)}")
    if trials < 0 or random_samples < 0:
        raise ValueError(f"trials, random_samples must be nonnegative, got {(trials, random_samples)}")
    m = n * c
    radius = float(np.sqrt(2.0 * cap / sigma))
    lower = float(np.sqrt(1.0 / (2.0 * m)) * radius * kappa) * lower_scale
    upper = float(np.sqrt(2.0 * cap / (m * sigma)) * kappa)
    if not np.all(np.isfinite((radius, lower, upper))):
        raise ValueError(
            f"radius sqrt(2*cap/sigma) = {radius:g} and bounds [{lower:g}, {upper:g}] must be finite"
        )

    rows = []

    def add_row(label: str, sample: ExtendedSample, est_seed: int, check_lower: bool):
        est = estimate_complexity(sample, radius, trials, est_seed)
        band = 3.0 * est.std_error
        rows.append(
            SandwichRow(
                label=label,
                nc=m,
                trials=est.trials,
                estimate=est.mean,
                std_error=est.std_error,
                lower_ok=(lower <= est.mean + band) if check_lower else None,
                upper_ok=est.mean <= upper + band,
            )
        )

    add_row("worst_case", identical_pair_sample(m, d, c, kappa), derive_seed(seed, 1), True)
    for r in range(random_samples):
        rng = generator(derive_seed(seed, 2, r))
        X = rng.standard_normal((m, d))
        X *= kappa / np.linalg.norm(X, axis=1, keepdims=True)
        js = rng.integers(0, c, size=m)
        add_row(f"random_{r}", ExtendedSample(X, js, c), derive_seed(seed, 3, r), False)
    return SandwichReport(n=n, c=c, lower_bound=lower, upper_bound=upper, rows=rows)


def write_report_csv(report: SandwichReport, destination) -> None:
    """Write one CSV row per sample: estimate, band, and verdict."""
    lines = ["nc,trials,estimate,std_error,lower_bound,upper_bound,pass"]
    for row in report.rows:
        lines.append(
            f"{row.nc},{row.trials},{row.estimate:.17g},{row.std_error:.17g},"
            f"{report.lower_bound:.17g},{report.upper_bound:.17g},"
            f"{'true' if row.passed else 'false'}"
        )
    write_lines(destination, lines)
