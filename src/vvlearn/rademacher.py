"""Rademacher complexity of norm-bounded linear predictor classes.

The function class is viewed through extended samples: pairs (x, j) of an
input and a component index, with the class member w scoring a pair as
<w[:, j], x>.  Over the Frobenius ball of radius R the supremum of the
signed sum has a closed form,

    sup_{||w||_F <= R} sum_i s_i <w[:, j_i], x_i> = R * ||A||_F,

where A accumulates s_i * x_i into column j_i.  Complexity estimates
average sup/m over random sign vectors, or over all 2^m of them exactly
when m is small.  ``sandwich_check`` compares estimates against the
analytic band

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
        self.js = np.asarray(self.js, dtype=np.int64)
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


def _sup_batch(sample: ExtendedSample, signs: np.ndarray, radius: float) -> np.ndarray:
    """sup_ball for each row of a (K, m) sign matrix."""
    X = sample.X
    sq = np.zeros(signs.shape[0])
    s_float = signs.astype(np.float64)
    for j in np.unique(sample.js):
        idx = np.flatnonzero(sample.js == j)
        col = s_float[:, idx] @ X[idx]
        sq += np.einsum("kd,kd->k", col, col)
    return radius * np.sqrt(sq)


def sup_ball(sample: ExtendedSample, signs: np.ndarray, radius: float) -> float:
    """Closed-form supremum of the signed sum over the Frobenius ball.

    Accumulates signs[i] * x_i into column j_i and returns radius times
    the Frobenius norm of the accumulated matrix.
    """
    signs = np.asarray(signs, dtype=np.float64)
    if signs.shape != (sample.m,):
        raise ValueError(f"expected {sample.m} signs, got shape {signs.shape}")
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    return float(_sup_batch(sample, signs[None, :], radius)[0])


@dataclass
class RademacherEstimate:
    """Estimated complexity: mean of sup/m with its standard error."""

    mean: float
    std_error: float
    trials: int
    exact: bool


def _enumerate_signs(m: int, lo: int, hi: int) -> np.ndarray:
    codes = np.arange(lo, hi, dtype=np.uint32)[:, None]
    bits = (codes >> np.arange(m, dtype=np.uint32)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def estimate_complexity(
    sample: ExtendedSample, radius: float, trials: int, seed: int
) -> RademacherEstimate:
    """Monte-Carlo estimate of the empirical Rademacher complexity.

    With ``trials`` = 0 and m <= 20 the expectation is computed exactly by
    enumerating all 2^m sign vectors (std_error 0).  Otherwise ``trials``
    sign vectors are drawn from a PCG64 stream seeded with ``seed``; the
    stream is consumed in fixed-size chunks, so the estimate depends only
    on the seed.
    """
    m = sample.m
    chunk = max(1, _CHUNK_ENTRIES // m)
    if trials == 0:
        if m > _EXACT_LIMIT:
            raise ValueError(f"exact enumeration needs m <= {_EXACT_LIMIT}, got {m}")
        total = 1 << m
        acc = 0.0
        for lo in range(0, total, chunk):
            hi = min(lo + chunk, total)
            acc += float(np.sum(_sup_batch(sample, _enumerate_signs(m, lo, hi), radius)))
        return RademacherEstimate(acc / (total * m), 0.0, total, True)
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    rng = generator(seed)
    sups = np.empty(trials)
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        signs = 2 * rng.integers(0, 2, size=(k, m), dtype=np.int8) - 1
        sups[done : done + k] = _sup_batch(sample, signs, radius)
        done += k
    per_trial = sups / m
    mean = float(np.mean(per_trial))
    if trials > 1:
        std_error = float(np.std(per_trial, ddof=1) / np.sqrt(trials))
    else:
        std_error = 0.0
    return RademacherEstimate(mean, std_error, trials, False)


def mean_abs_sign_sum(m: int) -> float:
    """E|sum of m independent signs|, by exhaustive enumeration (m <= 20)."""
    if not 1 <= m <= _EXACT_LIMIT:
        raise ValueError(f"m must lie in [1, {_EXACT_LIMIT}], got {m}")
    codes = np.arange(1 << m, dtype=np.uint32)
    ones = np.bitwise_count(codes).astype(np.int64)
    return float(np.mean(np.abs(m - 2 * ones)))


def khintchine_floor(m: int) -> float:
    """The lower bound sqrt(m/2) on E|sum of m signs|."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return float(np.sqrt(m / 2.0))


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
    ball of radius R = sqrt(2*cap/sigma).  The worst-case sample of
    identical pairs must land between lower and upper; random samples
    (inputs scaled to norm kappa) must stay below upper.  Comparisons
    allow a 3-standard-error band.  ``lower_scale`` rescales the lower
    bound and exists only so failure paths can be exercised.
    """
    if n < 1 or c < 1 or d < 1:
        raise ValueError(f"n, c, d must be positive, got {(n, c, d)}")
    if cap <= 0.0 or sigma <= 0.0 or kappa <= 0.0:
        raise ValueError("cap, sigma and kappa must be positive")
    m = n * c
    if trials == 0 and m > _EXACT_LIMIT:
        raise ValueError(
            f"exact mode (trials = 0) needs n*c <= {_EXACT_LIMIT}, got {m}"
        )
    radius = float(np.sqrt(2.0 * cap / sigma))
    lower = float(np.sqrt(1.0 / (2.0 * m)) * radius * kappa) * lower_scale
    upper = float(np.sqrt(2.0 * cap / (m * sigma)) * kappa)

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
