"""Learning-curve experiments: error versus passes, sample size, and gap.

Each curve repeats training over independent repetitions, and the
repetitions of a curve (passes) or of a grid point (sample size, gap) run
in lockstep, walking the iterates of ``iterates``.  The passes curve scores
only each repetition's test rows at its grid passes; the others score each
repetition's subsample and the shared test rows at the final step.  The
pool is held once: splits and subsamples are arrays of its row indices, and
every repetition trains and evaluates on its rows of the pool.
``run_curve`` returns the objective of every repetition at every grid point
as arrays of shape (len(grid), repetitions), one per metric, and
``emit_csv`` reduces them to a mean and standard deviation per grid point.
All randomness (splits, subsamples, SGD index draws) is derived from the
spec's base seed with fixed tags, and each lockstep chain equals a lone
``train`` of its repetition bit for bit, so a spec maps to one exact curve
whether the repetitions run together or one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, split, subsample, write_lines
from .losses import LossSpec
from .optimizer import StepSchedule, TrainConfig, iterates, mean_loss
from .regularizers import RegularizerSpec
from .seeding import derive_seed

_SPLIT_TAG = 11
_SUBSAMPLE_TAG = 12
_TRAIN_TAG = 13

CURVE_KINDS = ("passes", "samplesize", "gap")
# The smallest sample size of the default sample-size grid.
GRID_START = 100


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

    Each repetition resplits the pool and trains once for max(grid)
    passes; the repetitions train in lockstep.  At each grid pass boundary
    only the test rows are scored: the curve reads no training objective.
    """
    if spec.kind != "passes":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'passes'")

    reps, loss, reg = range(spec.repetitions), spec.loss, spec.reg
    splits = [split(len(pool), spec.train_fraction, derive_seed(spec.seed, _SPLIT_TAG, rep)) for rep in reps]
    n = len(splits[0][0])
    configs = [
        TrainConfig(
            loss=loss,
            reg=reg,
            schedule=spec.schedule,
            total_steps=spec.grid[-1] * n,
            seed=derive_seed(spec.seed, _TRAIN_TAG, rep),
            record_every=n,
        )
        for rep in reps
    ]
    # Records fall at every pass boundary: step g * n ends pass g.
    points = {g * n: gi for gi, g in enumerate(spec.grid)}
    test = np.empty((len(spec.grid), spec.repetitions))
    for t, w, _ in iterates(pool, [train_rows for train_rows, _ in splits], configs):
        if t in points:
            test[points[t]] = [mean_loss(w_r, pool, loss, rows) + reg.value(w_r) for w_r, (_, rows) in zip(w, splits)]
    return test


def _samplesize_runs(pool: Dataset, spec: CurveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Train/test objectives, shape (len(grid), repetitions) each.

    A single split reserves the test set once; each (size, repetition)
    pair draws a fresh training subsample of that size and trains for
    ``passes_per_point`` passes over it, the repetitions of one size in
    lockstep.
    """
    train_rows, test_rows = split(len(pool), spec.train_fraction, derive_seed(spec.seed, _SPLIT_TAG))
    if spec.grid[-1] > len(train_rows):
        raise ValueError(
            f"grid value {spec.grid[-1]} exceeds the available pool of {len(train_rows)}"
        )

    reps, loss, reg = range(spec.repetitions), spec.loss, spec.reg
    train_vals, test_vals = [], []
    for gi, size in enumerate(spec.grid):
        subsets = [
            train_rows.take(subsample(len(train_rows), size, derive_seed(spec.seed, _SUBSAMPLE_TAG, gi, rep)))
            for rep in reps
        ]
        configs = [
            TrainConfig(
                loss=loss,
                reg=reg,
                schedule=spec.schedule,
                total_steps=spec.passes_per_point * size,
                seed=derive_seed(spec.seed, _TRAIN_TAG, gi, rep),
            )
            for rep in reps
        ]
        [(_, w, _)] = iterates(pool, subsets, configs)  # one record, at the final step
        train_vals.append([mean_loss(w_r, pool, loss, rows) + reg.value(w_r) for w_r, rows in zip(w, subsets)])
        test_vals.append([mean_loss(w_r, pool, loss, test_rows) + reg.value(w_r) for w_r in w])
    return np.asarray(train_vals), np.asarray(test_vals)


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


def default_samplesize_grid(available: int) -> tuple[int, ...]:
    """Geometric grid GRID_START, 2*GRID_START, 4*GRID_START, ... capped by the pool."""
    if available < GRID_START:
        raise ValueError(f"pool of {available} is smaller than the grid start {GRID_START}")
    return tuple(GRID_START << i for i in range((available // GRID_START).bit_length()))


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
