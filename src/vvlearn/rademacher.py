"""Rademacher complexity of norm-bounded linear predictor classes.

The function class is viewed through extended samples: pairs (x, j) of an
input and a component index, with the class member w scoring a pair as
<w[:, j], x>.  An extended sample is a multiclass ``Dataset`` whose class
ids are the components, ``Dataset(X, js, c, "mcc")``.  Over the Frobenius
ball of radius R the supremum of the signed sum has a closed form,

    sup_{||w||_F <= R} sum_i s_i <w[:, j_i], x_i> = R * ||A||_F,

where A accumulates s_i * x_i into column j_i.  Complexity estimates
average sup/m over random sign vectors, or over all 2^m of them exactly
when m is small.  One kernel, ``_accumulate``, forms A for a matrix of
sign vectors from the pairs stable-sorted by component, so each column of
A is one contiguous slice of the signs times contiguous input rows.  The
exact average meets in the middle over the sign patterns of two halves of
the pairs; Monte-Carlo signs are unpacked from packed random bytes.
``sandwich_check`` compares estimates on unit-norm inputs against the
analytic band

    sqrt(1/(2*m)) * R  <=  worst-case estimate  <=  sqrt(2*cap/(m*sigma)),

whose lower half comes from a sample of m identical pairs plus the
Khintchine inequality E|sum of m signs| >= sqrt(m/2), and whose upper
half holds for every sample with input norms at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, write_lines
from .seeding import derive_seed, generator

_EXACT_LIMIT = 20
_CHUNK_ENTRIES = 4_000_000


def identical_pair_sample(m: int, d: int, c: int) -> Dataset:
    """The worst-case sample: m copies of (e_0, component 0)."""
    X = np.zeros((m, d))
    X[:, 0] = 1.0
    return Dataset(X, np.zeros(m, dtype=np.int64), c, "mcc")


def _by_component(sample: Dataset):
    """Stable pair order by component, sorted dense inputs and ids, and the ids in use."""
    if sample.task != "mcc" or len(sample) == 0:
        raise ValueError("an extended sample must be a nonempty 'mcc' Dataset")
    order = np.argsort(sample.y, kind="stable")
    js = sample.y[order]
    return order, sample.X[order].toarray(), js, np.unique(js)


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
    sups = radius * np.sqrt(np.einsum("...w,...w->...", A, A))
    if not np.all(np.isfinite(sups)):
        raise ValueError("a supremum overflowed; the inputs or the radius are too large")
    return sups


def sup_ball(sample: Dataset, signs: np.ndarray, radius: float) -> float:
    """Closed-form supremum of the signed sum over the Frobenius ball.

    Accumulates signs[i] * x_i into column j_i and returns radius times
    the Frobenius norm of the accumulated matrix.
    """
    signs = np.asarray(signs, dtype=np.float64)
    if signs.shape != (len(sample),):
        raise ValueError(f"expected {len(sample)} signs, got shape {signs.shape}")
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
    sample: Dataset, radius: float, trials: int, seed: int
) -> RademacherEstimate:
    """Monte-Carlo estimate of the empirical Rademacher complexity.

    With ``trials`` = 0 and m <= 20 the expectation is computed exactly
    over all 2^m sign vectors (std_error 0).  Otherwise ``trials`` sign
    vectors are drawn as packed random bytes from a PCG64 stream seeded
    with ``seed``; the stream is consumed in fixed-size chunks, so the
    estimate depends only on the seed.  An empty sample and a supremum
    that overflows raise ValueError.
    """
    if not 0.0 <= radius < np.inf:
        raise ValueError(f"radius must be nonnegative and finite, got {radius}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    m = len(sample)
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
    std_error = 0.0
    if trials > 1:
        # Squaring suprema near the top of the float range overflows, so the
        # spread is taken at a power-of-two scale, which is exact.
        _, e = np.frexp(np.max(per_trial))
        std_error = float(np.ldexp(np.std(np.ldexp(per_trial, -e), ddof=1), e) / np.sqrt(trials))
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
    lower_scale: float = 1.0,
) -> SandwichReport:
    """Estimate complexities at m = n*c and compare with the analytic band.

    ``cap`` bounds the regularizer value, so the class is the Frobenius
    ball of radius R = sqrt(2*cap/sigma); R and both bounds must be
    positive and finite.  The worst-case sample of identical pairs must
    land between lower and upper; random samples (inputs scaled to unit
    norm) must stay below upper.  Comparisons allow a 3-standard-error
    band.  ``lower_scale`` rescales the lower bound and exists only so
    failure paths can be exercised.
    """
    if n < 1 or c < 1 or d < 1:
        raise ValueError(f"n, c, d must be positive, got {(n, c, d)}")
    if not all(0.0 < v < np.inf for v in (cap, sigma)):
        raise ValueError(f"cap and sigma must be positive and finite, got {(cap, sigma)}")
    if trials < 0 or random_samples < 0:
        raise ValueError(f"trials, random_samples must be nonnegative, got {(trials, random_samples)}")
    m = n * c
    # Doubling after the division is exact, and cannot overflow 2*cap first.
    radius = float(np.sqrt(2.0 * (cap / sigma)))
    lower = float(np.sqrt(1.0 / (2.0 * m)) * radius) * lower_scale
    upper = float(np.sqrt(2.0 * (cap / (m * sigma))))
    if not all(0.0 < v < np.inf for v in (radius, lower, upper)):
        raise ValueError(
            f"radius sqrt(2*cap/sigma) = {radius:g} and bounds [{lower:g}, {upper:g}] "
            "must be finite and positive"
        )

    rows = []

    def add_row(label: str, sample: Dataset, est_seed: int, check_lower: bool):
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

    add_row("worst_case", identical_pair_sample(m, d, c), derive_seed(seed, 1), True)
    for r in range(random_samples):
        rng = generator(derive_seed(seed, 2, r))
        X = rng.standard_normal((m, d))
        X *= 1.0 / np.linalg.norm(X, axis=1, keepdims=True)
        js = rng.integers(0, c, size=m)
        add_row(f"random_{r}", Dataset(X, js, c, "mcc"), derive_seed(seed, 3, r), False)
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
