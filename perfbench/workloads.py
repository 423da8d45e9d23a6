"""The benchmark's workloads: inputs made from a seed, CLI calls, output checks.

Each workload is a fixed list of ``vvlearn`` command lines (one iteration).
The harness repeats the iteration for the measuring window.  Every call is
one *op*: it fails on a nonzero exit code, an exception, a failed output
check, or output bytes that differ from the first successful call with the
same seed.  The checks recompute what they can from the inputs instead of
comparing against stored reference values, because planned optimizations
may change the last bits of results and the Monte-Carlo sign stream.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import calibration

# train-sparse-mlc: a sparse multilabel file with d much larger than nnz.
TRAIN_N, TRAIN_D, TRAIN_NNZ, TRAIN_C = 5000, 2000, 20, 10
TRAIN_SIGMA = 0.01
TRAIN_STEPS = 20_000
RANKING_HINGE_LIPSCHITZ = 2.0

# curve-passes: the paper's error-versus-passes experiment.
CURVE_N, CURVE_D, CURVE_C, CURVE_NOISE = 2000, 20, 5, 0.05
CURVE_GRID = (1, 2, 3, 4, 5)
CURVE_TRAIN_FRACTION = 0.8  # the CLI default
# The pass-5 mean sits about 0.008 below the pass-1 mean, but the spread of
# that difference over repetitions is about 0.006 per repetition.  With two
# repetitions some seeds put pass 5 above pass 1 (seed 410093332 by 0.0045),
# so the check averages ten, as acceptance criterion 6 does.  The step sizes
# do not depend on the run length, so passes 1-5 are the same as in a longer
# run; stopping at pass 5 keeps an iteration short.
CURVE_REPS = 10
# Acceptance criterion 6 allows the same 1e-3 absolute slack on its plateau.
PLATEAU_SLACK = 1e-3

# rademacher-sandwich: one exhaustive run and one Monte-Carlo run.
EXACT_N, EXACT_C = 10, 2
MC_N, MC_C, MC_TRIALS = 400, 4, 10_000
RADEMACHER_D = 6
SAMPLES_PER_RUN = 3  # the worst-case sample plus the CLI's 2 random samples


@dataclass
class Op:
    """One CLI call, the files it writes, and the check of those files."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[[list[bytes]], list[str]]


@dataclass
class Workload:
    name: str
    work_name: str
    work_per_iteration: int
    ops: list[Op]
    reference: Callable[[], float]  # calibration task resembling the inner loop


def write_sparse_multilabel(path: Path, seed: int) -> None:
    """Write TRAIN_N rows of TRAIN_NNZ features over TRAIN_D dimensions.

    Labels come from a hidden linear model: the top one to three scoring
    components are positive, so every row has both signs, as the ranking
    loss requires.  Row 0 uses the last feature and the last component so
    that the parsed dimensions are exactly (TRAIN_D, TRAIN_C).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    hidden = rng.standard_normal((TRAIN_D, TRAIN_C))
    lines = []
    for i in range(TRAIN_N):
        idx = np.sort(rng.choice(TRAIN_D, size=TRAIN_NNZ, replace=False))
        if i == 0 and idx[-1] != TRAIN_D - 1:
            idx[-1] = TRAIN_D - 1
        vals = rng.standard_normal(TRAIN_NNZ)
        scores = vals @ hidden[idx]
        k = int(rng.integers(1, 4))
        positive = np.sort(np.argsort(-scores, kind="stable")[:k])
        if i == 0 and TRAIN_C - 1 not in positive:
            positive = np.append(positive[: k - 1], TRAIN_C - 1)
        head = ",".join(str(int(j) + 1) for j in positive)
        feats = " ".join(f"{int(j) + 1}:{float(v)!r}" for j, v in zip(idx, vals))
        lines.append(f"{head} {feats}")
    path.write_text("\n".join(lines) + "\n")


def _load_model(data: bytes) -> np.ndarray:
    """Parse the model container: one ASCII header, column-major float64."""
    header, _, payload = data.partition(b"\n")
    fields = header.decode("ascii").split()
    d, c = int(fields[3]), int(fields[4])
    w = np.frombuffer(payload, dtype="<f8")
    if w.size != d * c:
        raise ValueError(f"payload holds {w.size} values, header says {d}x{c}")
    return w.reshape((d, c), order="F")


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("ascii"))))


def train_sparse_mlc(work: Path, seed: int) -> Workload:
    data = work / "train.txt"
    model, log = work / "model.bin", work / "train_log.csv"

    def check(outputs: list[bytes]) -> list[str]:
        import vvlearn.dataio as dataio
        import vvlearn.losses as losses
        import vvlearn.optimizer as optimizer
        import vvlearn.regularizers as regularizers

        w = _load_model(outputs[0])
        problems = []
        if w.shape != (TRAIN_D, TRAIN_C):
            problems.append(f"model shape {w.shape}, expected {(TRAIN_D, TRAIN_C)}")
        if not np.all(np.isfinite(w)):
            return problems + ["model has non-finite weights"]
        # Inputs are normalized to unit norm, so kappa = 1.
        bound = RANKING_HINGE_LIPSCHITZ * 1.0 / TRAIN_SIGMA
        norm = float(np.sqrt(np.sum(w * w)))
        if norm > bound * (1 + 1e-12):
            problems.append(f"||W||_F = {norm!r} exceeds L*kappa/sigma = {bound!r}")
        logged = float(_csv_rows(outputs[1])[-1]["empirical_objective"])
        dataset = dataio.normalize_rows(dataio.parse_sparse_text(str(data), "mlc"))
        recomputed = optimizer.evaluate_objective(
            w,
            dataset,
            losses.LossSpec.ranking(losses.HINGE),
            regularizers.RegularizerSpec.frobenius(TRAIN_SIGMA),
        )
        if abs(logged - recomputed) > 1e-12 * abs(recomputed):
            problems.append(f"logged objective {logged!r} != recomputed {recomputed!r}")
        return problems

    argv = [
        "train", "--data", str(data), "--task", "mlc", "--loss", "ranking",
        "--base", "hinge", "--sigma", repr(TRAIN_SIGMA),
        "--steps", str(TRAIN_STEPS), "--record-every", str(TRAIN_STEPS),
        "--seed", str(seed), "--model-out", str(model), "--log-out", str(log),
    ]  # fmt: skip
    write_sparse_multilabel(data, seed)
    return Workload(
        name="train-sparse-mlc",
        work_name="sgd_steps",
        work_per_iteration=TRAIN_STEPS,
        ops=[Op(argv, [model, log], check)],
        reference=calibration.sgd_steps,
    )


def curve_passes(work: Path, seed: int) -> Workload:
    out = work / "curve.csv"

    def check(outputs: list[bytes]) -> list[str]:
        test = {int(r["grid"]): float(r["mean"]) for r in _csv_rows(outputs[0]) if r["metric"] == "test"}
        problems = []
        if sorted(test) != list(CURVE_GRID):
            problems.append(f"test rows at {sorted(test)}, expected {list(CURVE_GRID)}")
        if not all(math.isfinite(v) for v in test.values()):
            problems.append("non-finite test mean")
        if 1 in test and 5 in test and not test[5] <= test[1] + PLATEAU_SLACK:
            problems.append(f"pass-5 mean {test[5]!r} above pass-1 mean {test[1]!r} + {PLATEAU_SLACK}")
        return problems

    synth = f"n={CURVE_N},d={CURVE_D},c={CURVE_C},noise={CURVE_NOISE},seed={seed}"
    argv = [
        "curve", "--kind", "passes", "--synth", synth,
        "--grid", ",".join(map(str, CURVE_GRID)), "--reps", str(CURVE_REPS),
        "--seed", str(seed), "--out", str(out),
    ]  # fmt: skip
    n_train = int(CURVE_TRAIN_FRACTION * CURVE_N)
    return Workload(
        name="curve-passes",
        work_name="sgd_steps",
        work_per_iteration=CURVE_REPS * CURVE_GRID[-1] * n_train,
        ops=[Op(argv, [out], check)],
        reference=calibration.python_loop,
    )


def exact_worst_case(m: int, radius: float = math.sqrt(2.0), kappa: float = 1.0) -> float:
    """R * kappa * E|sum of m signs| / m, with the expectation in exact integers."""
    total = sum(math.comb(m, k) * abs(m - 2 * k) for k in range(m + 1))
    return radius * kappa * (total / 2**m) / m


def _sandwich_check(exact_m: int | None) -> Callable[[list[bytes]], list[str]]:
    def check(outputs: list[bytes]) -> list[str]:
        rows = _csv_rows(outputs[0])
        problems = [f"row {i} failed the sandwich" for i, r in enumerate(rows) if r["pass"] != "true"]
        if len(rows) != SAMPLES_PER_RUN:
            problems.append(f"{len(rows)} rows, expected {SAMPLES_PER_RUN}")
        if exact_m is not None and rows:
            got, want = float(rows[0]["estimate"]), exact_worst_case(exact_m)
            if abs(got - want) > 1e-12 * want:
                problems.append(f"exhaustive worst case {got!r} != R*kappa*E|sum s|/m = {want!r}")
        return problems

    return check


def rademacher_sandwich(work: Path, seed: int) -> Workload:
    exact_out, mc_out = work / "rademacher_exact.csv", work / "rademacher_mc.csv"
    common = ["rademacher", "--d", str(RADEMACHER_D), "--seed", str(seed)]
    exact = common + ["--n", str(EXACT_N), "--c", str(EXACT_C), "--trials", "0", "--out", str(exact_out)]
    mc = common + ["--n", str(MC_N), "--c", str(MC_C), "--trials", str(MC_TRIALS), "--out", str(mc_out)]
    return Workload(
        name="rademacher-sandwich",
        work_name="sign_vectors",
        work_per_iteration=SAMPLES_PER_RUN * (2 ** (EXACT_N * EXACT_C) + MC_TRIALS),
        ops=[
            Op(exact, [exact_out], _sandwich_check(EXACT_N * EXACT_C)),
            Op(mc, [mc_out], _sandwich_check(None)),
        ],
        reference=calibration.sign_products,
    )


WORKLOADS = {
    "train-sparse-mlc": train_sparse_mlc,
    "curve-passes": curve_passes,
    "rademacher-sandwich": rademacher_sandwich,
}

# Appended to the first call of the first iteration by --inject-failure; the
# CLI then reports a failed sandwich with exit code 3.
INJECTED_FAILURE = {"rademacher-sandwich": ["--inflate-lower", "10"]}
