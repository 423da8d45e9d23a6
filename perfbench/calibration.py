"""Machine-speed calibration for the end-to-end timings.

The reference machine's speed drifts by up to 2x. The drift comes in phases
that last from seconds to minutes. CPU time stays equal to wall time, so the
drift is in execution speed, not in scheduling. The median over one 30 s run
cannot average out a phase longer than the run. Across ten runs, raw
medians spread by 0.18-0.40 of their median.

The phases also slow different kinds of code by different amounts. So the
harness times a fixed reference task right before and right after each timed
interval, and the task resembles the workload's own inner loop. A single
task time is itself noisy, so each of those two times is the mean over
repeats filling a tenth of an iteration. Each raw time t is reported as

    REFERENCE_S[task] * t / (mean of the two task times around it)

that is, as seconds on a machine where the task takes REFERENCE_S. The
harness reports the median of these calibrated times.

The tasks run no vvlearn code, so a change to the program cannot move
them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


def mean_time(task, seconds: float) -> float:
    """Mean time of `task`, run at least once and until `seconds` have passed."""
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        times.append(task())
    return sum(times) / len(times)


def sgd_steps() -> float:
    """Sparse gathers around a dense (2000, 10) update and norm, as in train."""
    rng = np.random.Generator(np.random.PCG64(0))
    w = np.zeros((2000, 10))
    idx = np.sort(rng.choice(2000, size=20, replace=False))
    v = rng.standard_normal(20)
    start = perf_counter()
    for t in range(1, 2000):
        s = v @ w[idx, :]
        g = 0.01 * w
        g[idx, :] += v[:, None] * np.tanh(s)[None, :]
        w = w - (1.0 / t) * g
        float(np.linalg.norm(w))
    return perf_counter() - start


def sign_products() -> float:
    """Sign matrices times column-gathered inputs, as in the Rademacher estimator."""
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.standard_normal((1600, 6))
    js = rng.integers(0, 4, size=1600)
    start = perf_counter()
    signs = (2 * rng.integers(0, 2, size=(2500, 1600), dtype=np.int8) - 1).astype(np.float64)
    sq = np.zeros(2500)
    for j in range(4):
        idx = np.flatnonzero(js == j)
        col = signs[:, idx] @ x[idx]
        sq += np.einsum("kd,kd->k", col, col)
    codes = np.arange(0, 1 << 16, dtype=np.uint32)[:, None]
    bits = (codes >> np.arange(20, dtype=np.uint32)[None, :]) & 1
    (2 * bits - 1).astype(np.int8)
    return perf_counter() - start


def python_loop() -> float:
    """Per-example Python loop over tiny score vectors, as in objective evaluation."""
    rng = np.random.Generator(np.random.PCG64(0))
    w = rng.standard_normal((20, 5))
    xs = rng.standard_normal((200, 20))
    ys = rng.integers(0, 5, size=200)
    start = perf_counter()
    for _ in range(25):
        values = []
        for i in range(200):
            s = xs[i] @ w
            d = s - s[int(ys[i])]
            m = np.max(d)
            values.append(float(m + np.log(np.sum(np.exp(d - m)))))
        float(np.sum(np.array(values)) / len(values))
    return perf_counter() - start


# Task -> seconds on the 2-core reference machine in a fast phase. These only
# fix the scale of calibrated seconds, and must never change once results exist.
REFERENCE_S = {sgd_steps: 0.09, sign_products: 0.095, python_loop: 0.05}
