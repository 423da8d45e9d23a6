"""Rademacher complexity of norm-bounded linear predictor classes.

The function class is viewed through extended samples: pairs (x, j) of an
input and a component index, with the class member w scoring a pair as
<w[:, j], x>.  An extended sample is a multiclass ``Dataset`` whose class
ids are the components, ``Dataset(X, js, c, "mcc")``.  Over the Frobenius
ball of radius R the supremum of the signed sum has a closed form,

    sup_{||w||_F <= R} sum_i s_i <w[:, j_i], x_i> = R * ||A||_F,

where A accumulates s_i * x_i into column j_i.  Complexity estimates
average sup/m over random sign vectors, or over all 2^m of them exactly
when m is small.  A run of n consecutive equal pairs (one component, equal
inputs) adds k * x for the sum k of its signs, so A is formed from run sign
sums, the pairs stable-sorted by component.  The exact average meets in the
middle at the component boundary nearest the middle of the pairs; ||A||^2
sums over components, so a (high, low) pair of sign-sum vectors costs one
add of the sides' square norms, each side the same grid over its pairs.
One component is cut at its middle, and an entry squares the d-wide sum of
the halves' A over their runs' sign sums (``_all_counts``).  Flipping every
sign keeps a supremum, so only the lower half of the high rows is stored
(at most 2^19 suprema, 4.2 MB); weighted suprema take the radius once, at
the end, so integer ones sum exactly.  Monte-Carlo signs are packed random
bytes, ``Generator.bytes``' stream read from the raw draws
(``_random_bytes``), whose ones ``np.bitwise_count`` counts per run
(unpacked if no run repeats a pair); ``_accumulate`` forms their A.
Blocks hold ``_BLOCK_ENTRIES`` entries or ``_SIGN_BLOCK_ENTRIES`` signs (0.5 MB);
chunks of ``_CHUNK_ENTRIES`` fix the sums and draws, so exact bits do not
depend on the block size, while Monte-Carlo values may move in their last
digit (BLAS rounding depends on the row count).
``sandwich_check`` compares estimates on unit-norm inputs against the
analytic band

    sqrt(1/(2*m)) * R  <=  worst-case estimate  <=  sqrt(2*cap/(m*sigma)),

whose lower half comes from a sample of m identical pairs plus the
Khintchine inequality E|sum of m signs| >= sqrt(m/2), and whose upper
half holds for every sample with input norms at most 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, write_lines
from .seeding import derive_seed, generator

_EXACT_LIMIT = 20
_CHUNK_ENTRIES = 4_000_000
_BLOCK_ENTRIES = 1 << 16
_SIGN_BLOCK_ENTRIES = 1 << 19
_BINOMIALS = np.array([[math.comb(n, k) for k in range(11)] for n in range(11)], dtype=float)  # a half of m <= 20 pairs


def identical_pair_sample(m: int, d: int, c: int) -> Dataset:
    """The worst-case sample: m copies of (e_0, component 0)."""
    X = np.zeros((m, d))
    X[:, 0] = 1.0
    return Dataset(X, np.zeros(m, dtype=np.int64), c, "mcc")


def _spans(js: np.ndarray, slots: np.ndarray, d: int) -> list[tuple[slice, slice]]:
    """(columns of A, pairs) for each component slot with pairs, from ``js`` sorted by component."""
    lo, hi = np.searchsorted(js, slots, side="left"), np.searchsorted(js, slots, side="right")
    return [(slice(t * d, (t + 1) * d), slice(lo[t], hi[t])) for t in np.flatnonzero(hi > lo).tolist()]


def _accumulate(signs: np.ndarray, X: np.ndarray, spans: list[tuple[slice, slice]], width: int) -> np.ndarray:
    """A for each row of a (K, m) sign matrix, flattened to (K, width).

    ``X`` is sorted by component; each of the ``_spans`` sums the pairs of
    one component, one column slice of ``signs`` widened to float64 alone.
    """
    A = np.zeros((signs.shape[0], width))
    for columns, pairs in spans:
        A[:, columns] = np.asarray(signs[:, pairs], dtype=np.float64) @ X[pairs]
    return A


def _sup(sq: np.ndarray, radius: float) -> np.ndarray:
    """radius * sqrt of squared norms, in place."""
    sq = np.multiply(np.sqrt(sq, out=sq), radius, out=sq)
    if not np.isfinite(sq.max()):
        raise ValueError("a supremum overflowed; the inputs or the radius are too large")
    return sq


@dataclass
class RademacherEstimate:
    """Estimated complexity: mean of sup/m with its standard error."""

    mean: float
    std_error: float
    trials: int
    exact: bool


def _runs(X: np.ndarray, js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first pair, size) of each run of consecutive equal pairs: one component and equal input rows."""
    starts = np.flatnonzero(np.r_[True, (js[1:] != js[:-1]) | np.any(X[1:] != X[:-1], axis=1)][: len(js)])
    return starts, np.diff(np.r_[starts, len(js)])


def _all_counts(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every vector of sign sums over runs of ``sizes`` pairs, in mixed radix with run 0 fastest,
    and how many sign vectors give each.  With every size 1 these are all 2^h sign vectors."""
    radix = sizes + 1
    ones = np.arange(np.prod(radix))[:, None] // (np.cumprod(radix) // radix) % radix
    return ones * 2.0 - sizes, _BINOMIALS[sizes, ones].prod(axis=1)


def _fill(high: np.ndarray, low: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Square norms of A for high rows 0..len(out)-1 by every low row: one add
    of sides' square norms, or in blocks the square of A_high + A_low, formed
    directly since expanding it leaves a residue near A = 0 that can be < 0."""
    if high.ndim == 1:
        return np.add(high[: len(out), None], low, out=out)
    group = max(1, _BLOCK_ENTRIES // low.size)
    A = np.empty((min(group, len(out)), *low.shape))
    for g in range(0, len(out), group):
        part = A[: min(group, len(out) - g)]
        np.add(high[g : g + len(part), None, :], low, out=part)
        np.einsum("...w,...w->...", part, part, out=out[g : g + len(part)])
    return out


def _factors(X: np.ndarray, js: np.ndarray, half: bool) -> tuple:
    """(high, its counts, H, low, its counts) of the grid of the pairs' sign-sum
    vectors: at a component boundary each side's square norms (``_norms``),
    else each half's A over its runs.  With ``half``, high holds the rows < H/2."""
    bounds = np.flatnonzero(js[1:] != js[:-1]) + 1
    if not bounds.size:
        out = []
        for part in (slice(len(js) // 2, None), slice(None, len(js) // 2)):
            starts, sizes = _runs(X[part], js[part])
            counts, weights = _all_counts(sizes)
            out += [counts @ X[part][starts], weights]
        return out[0], out[1], len(out[1]), out[2], out[3]
    cut = int(bounds[np.argmin(np.abs(2 * bounds - len(js)))])
    high, low = (slice(cut, None), slice(None, cut)) if 2 * cut <= len(js) else (slice(None, cut), slice(cut, None))
    return (*_norms(X[high], js[high], half), *_norms(X[low], js[low], False)[:2])


def _norms(X: np.ndarray, js: np.ndarray, half: bool) -> tuple:
    """(square norms, counts, their number) over the flattened grid of ``_factors``."""
    high, wh, H, low, wl = _factors(X, js, half)
    rows, L = (H + 1) // 2 if half else H, len(wl)
    weights = (wh[:rows, None] * wl).ravel() if max(wh.max(), wl.max()) > 1.0 else np.broadcast_to(1.0, rows * L)
    return _fill(high, low, np.empty((rows, L))).ravel(), weights, H * L


def _exact_sum(X: np.ndarray, js: np.ndarray, slots: np.ndarray, radius: float) -> float:
    """Sum of sup over all 2^m sign vectors, over the (high, low) grid of
    ``_factors``.  Every factor is a palindrome, as a half's A negates exactly
    for rows i and H-1-i of ``_all_counts``, so sup(i, j) ==
    sup(H-1-i, L-1-j) bit for bit (a test pins this): rows i < H/2 fill a
    store, and summation chunks of rows read the others from it reversed."""
    high, wh, H, low, wl = _factors(X, js, True)
    L, half = len(wl), (H + 1) // 2
    weighted = max(wl.max(), wh.max()) > 1.0
    store = _sup(_fill(high, low, np.empty((half, L))), 1.0 if weighted else radius)
    if weighted:
        store *= wh[:half, None] * wl
    del high, low  # a side holds up to 2^18 square norms
    rows = min(H, max(1, _CHUNK_ENTRIES // (L * slots.size * X.shape[1])))
    sq, acc = np.empty((rows, L)), 0.0
    for b in range(0, H, rows):
        n = min(rows, H - b)
        top = min(n, max(0, half - b))  # the chunk's rows in the store, which sums them in place
        block = store[b : b + n] if top == n else sq[:n]
        if top < n:
            block[:top] = store[b : b + top]
            block[top:] = store[H - b - n : H - b - top][::-1, ::-1]
        acc += float(np.sum(block))
    if weighted and not np.isfinite(acc := acc * radius):
        raise ValueError("the summed suprema overflowed; the inputs or the radius are too large")
    return acc


def _random_bytes(rng: np.random.Generator):
    """A function that returns ``rng.bytes(length)``'s bytes call after call, read from the raw PCG64 draws.

    numpy fills the bytes with 32-bit words, one even for no bytes, each
    raw 64-bit draw giving its low half first and keeping its high half
    for the next word; the raw draws skip its bounded-integer path.  The
    rng draws nothing else meanwhile.
    """
    raw, pending = rng.bit_generator.random_raw, b""

    def draw(length: int) -> bytes:
        nonlocal pending
        words = (max(length, 1) + 3) // 4
        buf = pending + raw((words - len(pending) // 4 + 1) // 2).astype("<u8", copy=False).tobytes()
        pending = buf[4 * words :]
        return buf[:length]

    return draw


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
    if sample.task != "mcc" or m == 0:
        raise ValueError("an extended sample must be a nonempty 'mcc' Dataset")
    order = np.argsort(sample.y, kind="stable")  # pairs stable-sorted by component
    X, js, slots = np.zeros((m, sample.d)), sample.y[order], np.unique(sample.y)
    X[np.repeat(np.argsort(order), np.diff(sample.X.indptr)), sample.X.indices] = sample.X.data  # in sorted order
    if trials == 0:
        total = 1 << m
        return RademacherEstimate(_exact_sum(X, js, slots, radius) / (total * m), 0.0, total, True)
    chunk, width = max(1, _CHUNK_ENTRIES // m), (m + 7) // 8
    draw, sups = _random_bytes(generator(seed)), np.empty(trials)
    starts, sizes = _runs(X, js)
    block, X, spans = max(1, _SIGN_BLOCK_ENTRIES // m), X[starts], _spans(js[starts], slots, sample.d)
    byte = np.minimum(np.r_[starts, m] // 8, width - 1)  # ones before a run bound: whole bytes, then lead bits
    lead = (0xFF00 >> (np.r_[starts, m] - 8 * byte)).astype(np.uint8)
    for done in range(0, trials, chunk):
        packed = np.frombuffer(draw(min(chunk, trials - done) * width), dtype=np.uint8).reshape(-1, width)
        for b in range(0, len(packed), block):
            part = packed[b : b + block]
            if len(starts) < m:  # reduceat's last segment runs to the end, and a repeated index reads one byte
                ones = np.add.reduceat(np.bitwise_count(part), byte, axis=1, dtype=np.int64)[:, :-1] * (np.diff(byte) > 0)
                signs = 2 * (ones + np.diff(np.bitwise_count(part[:, byte] & lead).astype(np.int64), axis=1)) - sizes
            else:
                signs = 2 * np.unpackbits(part, axis=1, count=m).view(np.int8) - 1
            A = _accumulate(signs, X, spans, slots.size * sample.d)
            _sup(np.einsum("kw,kw->k", A, A, out=sups[done + b : done + b + len(A)]), radius)
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
