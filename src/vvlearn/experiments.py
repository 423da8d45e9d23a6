"""Learning-curve experiments: error versus passes, sample size, and gap.

Each curve repeats training over independent repetitions.  ``run_curve``
returns the objective of every repetition at every grid point as arrays of
shape (len(grid), repetitions), one per metric, and ``emit_csv`` reduces
them to a mean and standard deviation per grid point.  All randomness
(splits, subsamples, SGD index draws) is derived from the spec's base seed
with fixed tags, so a spec maps to one exact curve whatever order the
repetitions run in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, split, subsample, write_lines
from .losses import LossSpec
from .optimizer import StepSchedule, TrainConfig, train
from .regularizers import RegularizerSpec
from .seeding import derive_seed

_SPLIT_TAG = 11
_SUBSAMPLE_TAG = 12
_TRAIN_TAG = 13

CURVE_KINDS = ("passes", "samplesize", "gap")


@dataclass(frozen=True)
class CurveSpec:
    """What to sweep, how often to repeat, and the training configuration.

    For the "passes" kind the grid lists pass counts; for "samplesize"
    and "gap" it lists training-set sizes and ``passes_per_point`` fixes
    the training length at each size.
    """

    kind: str
    grid: tuple[int, ...]
    repetitions: int
    loss: LossSpec
    reg: RegularizerSpec
    schedule: StepSchedule
    seed: int
    train_fraction: float = 0.8
    passes_per_point: int = 5

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"kind must be one of {CURVE_KINDS}, got {self.kind!r}")
        grid = tuple(int(g) for g in self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise ValueError("grid must be nonempty")
        if grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"grid must be strictly increasing and positive: {grid}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if self.passes_per_point < 1:
            raise ValueError(f"passes_per_point must be positive, got {self.passes_per_point}")


def run_passes_curve(pool: Dataset, spec: CurveSpec) -> np.ndarray:
    """Test objectives after each grid pass count, shape (len(grid), repetitions).

    Each repetition resplits the pool, trains once for max(grid) passes,
    and reads the held-out objective at the recorded pass boundaries.
    """
    if spec.kind != "passes":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'passes'")

    def one_repetition(rep: int) -> list[float]:
        train_set, test_set = split(
            pool, spec.train_fraction, derive_seed(spec.seed, _SPLIT_TAG, rep)
        )
        n = len(train_set)
        config = TrainConfig(
            loss=spec.loss,
            reg=spec.reg,
            schedule=spec.schedule,
            total_steps=spec.grid[-1] * n,
            seed=derive_seed(spec.seed, _TRAIN_TAG, rep),
            record_every=n,
            eval_holdout=test_set,
        )
        _, records = train(train_set, config)
        by_step = {record.step: record for record in records}
        return [by_step[g * n].holdout_objective for g in spec.grid]

    return np.asarray([one_repetition(r) for r in range(spec.repetitions)]).T


def _samplesize_runs(pool: Dataset, spec: CurveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Train/test objectives, shape (len(grid), repetitions) each.

    A single split reserves the test set once; each (size, repetition)
    pair draws a fresh training subsample of that size and trains for
    ``passes_per_point`` passes over it.
    """
    train_pool, test_set = split(pool, spec.train_fraction, derive_seed(spec.seed, _SPLIT_TAG))
    if spec.grid[-1] > len(train_pool):
        raise ValueError(
            f"grid value {spec.grid[-1]} exceeds the available pool of {len(train_pool)}"
        )

    def one_run(gi: int, size: int, rep: int) -> tuple[float, float]:
        subset = subsample(train_pool, size, derive_seed(spec.seed, _SUBSAMPLE_TAG, gi, rep))
        config = TrainConfig(
            loss=spec.loss,
            reg=spec.reg,
            schedule=spec.schedule,
            total_steps=spec.passes_per_point * size,
            seed=derive_seed(spec.seed, _TRAIN_TAG, gi, rep),
            eval_holdout=test_set,
        )
        _, records = train(subset, config)
        final = records[-1]
        return final.empirical_objective, final.holdout_objective

    runs = np.asarray(
        [[one_run(gi, size, rep) for rep in range(spec.repetitions)] for gi, size in enumerate(spec.grid)]
    )  # (len(grid), repetitions, 2)
    return runs[:, :, 0], runs[:, :, 1]


def run_curve(pool: Dataset, spec: CurveSpec) -> dict[str, np.ndarray]:
    """Per-repetition objectives by metric, each of shape (len(grid), repetitions).

    "passes" gives "test"; "samplesize" gives "train" and "test"; "gap"
    adds "gap", each repetition's test minus its train objective.
    """
    if spec.kind == "passes":
        return {"test": run_passes_curve(pool, spec)}
    train_vals, test_vals = _samplesize_runs(pool, spec)
    metrics = {"train": train_vals, "test": test_vals}
    if spec.kind == "gap":
        metrics["gap"] = test_vals - train_vals
    return metrics


def default_samplesize_grid(available: int, start: int = 100) -> tuple[int, ...]:
    """Geometric grid start, 2*start, 4*start, ... capped by the pool."""
    if available < start:
        raise ValueError(f"pool of {available} is smaller than the grid start {start}")
    grid = []
    value = start
    while value <= available:
        grid.append(value)
        value *= 2
    return tuple(grid)


def emit_csv(spec: CurveSpec, metrics: dict[str, np.ndarray], destination) -> None:
    """Write one CSV row per (grid value, metric): mean and std over repetitions.

    Header is ``grid,metric,mean,std,repetitions``; metrics appear in the
    fixed order train, test, gap, skipping absent ones, and floats carry
    17 significant digits, so equal curves produce identical bytes.
    """
    lines = ["grid,metric,mean,std,repetitions"]
    for gi, g in enumerate(spec.grid):
        for metric in ("train", "test", "gap"):
            if metric in metrics:
                row = metrics[metric][gi]
                lines.append(f"{g},{metric},{np.mean(row):.17g},{np.std(row):.17g},{spec.repetitions}")
    write_lines(destination, lines)
