"""Learning-curve experiments: error versus passes, sample size, and gap.

Each curve repeats training over independent repetitions and aggregates
objective values into means and standard deviations per grid point.  All
randomness (splits, subsamples, SGD index draws) is derived from the
spec's base seed with fixed tags, so a spec maps to one exact curve
whatever order the repetitions run in.
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

CURVE_KINDS = ("passes", "sample_size", "gap")


@dataclass(frozen=True)
class CurveSpec:
    """What to sweep, how often to repeat, and the training configuration.

    For the "passes" kind the grid lists pass counts; for "sample_size"
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


@dataclass
class CurvePoint:
    """Aggregates at one grid value; absent metrics stay None."""

    grid_value: int
    repetitions: int
    train_mean: float | None = None
    train_std: float | None = None
    test_mean: float | None = None
    test_std: float | None = None
    gap_mean: float | None = None
    gap_std: float | None = None


def _stats(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values))


def _points(spec: CurveSpec, test, train=None, with_gap: bool = False) -> list[CurvePoint]:
    """Aggregates per grid value from (len(grid), repetitions) objective arrays.

    The gap of each repetition is its test minus its train objective.
    """
    points = []
    for gi, g in enumerate(spec.grid):
        point = CurvePoint(grid_value=g, repetitions=spec.repetitions)
        point.test_mean, point.test_std = _stats(test[gi])
        if train is not None:
            point.train_mean, point.train_std = _stats(train[gi])
        if with_gap:
            point.gap_mean, point.gap_std = _stats(test[gi] - train[gi])
        points.append(point)
    return points


def run_passes_curve(pool: Dataset, spec: CurveSpec) -> list[CurvePoint]:
    """Test objective after each grid pass count, per repetition.

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

    test = np.asarray([one_repetition(r) for r in range(spec.repetitions)])  # (repetitions, len(grid))
    return _points(spec, test.T)


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


def run_samplesize_curve(pool: Dataset, spec: CurveSpec) -> list[CurvePoint]:
    """Final train and test objectives against training-set size."""
    if spec.kind != "sample_size":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'sample_size'")
    train_vals, test_vals = _samplesize_runs(pool, spec)
    return _points(spec, test_vals, train_vals)


def run_gap_curve(pool: Dataset, spec: CurveSpec) -> list[CurvePoint]:
    """Sample-size runs plus the per-repetition generalization gap.

    The gap at each repetition is exactly test minus train for that same
    run; means and deviations aggregate those per-repetition gaps.
    """
    if spec.kind != "gap":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'gap'")
    train_vals, test_vals = _samplesize_runs(pool, spec)
    return _points(spec, test_vals, train_vals, with_gap=True)


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


def emit_csv(points: list[CurvePoint], destination) -> None:
    """Write curve points as CSV rows, one per (grid value, metric).

    Header is ``grid,metric,mean,std,repetitions``; metrics appear in the
    fixed order train, test, gap, skipping absent ones, and floats carry
    17 significant digits, so equal points produce identical bytes.
    """
    lines = ["grid,metric,mean,std,repetitions"]
    for point in points:
        for metric, mean, std in (
            ("train", point.train_mean, point.train_std),
            ("test", point.test_mean, point.test_std),
            ("gap", point.gap_mean, point.gap_std),
        ):
            if mean is None:
                continue
            lines.append(
                f"{point.grid_value},{metric},{mean:.17g},{std:.17g},{point.repetitions}"
            )
    write_lines(destination, lines)
