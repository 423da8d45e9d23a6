"""Learning-curve experiments: error versus passes, sample size, and gap.

Each curve repeats training over independent repetitions.  ``run_curve``
builds a curve as a list of chains, each a training run with the steps
at which it is scored and the pool rows each metric scores, and trains
them all in one lockstep ``iterates`` call.  A passes curve has one chain
per repetition, on its own split, scoring its test rows at the grid
passes.  A sample-size or gap curve has one chain per (grid point,
repetition), longest first, on a subsample of one split's training side,
scoring the subsample and the shared test rows at its last step.  The
pool is held once: splits and subsamples are arrays of its row indices.
``run_curve`` returns the objective of every repetition at every grid point
as arrays of shape (len(grid), repetitions), one per metric, and
``emit_csv`` reduces them to a mean and standard deviation per grid point.
All randomness (splits, subsamples, SGD index draws) is derived from the
spec's base seed with fixed tags, and each lockstep chain equals a lone
``train`` of its repetition bit for bit, so a spec maps to one exact curve
whether the chains run together or one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def training_pool_size(n: int, spec: CurveSpec) -> int:
    """The rows a curve's split of an n-row pool trains on, floor(train_fraction * n).

    Raises ValueError when a side of the split would be empty, or when a
    sample-size grid asks for more rows than the training side holds.
    """
    available = int(spec.train_fraction * n)
    if not 0 < available < n:
        raise ValueError(f"train fraction {spec.train_fraction} leaves an empty side for n={n}")
    if spec.kind != "passes" and spec.grid[-1] > available:
        raise ValueError(f"grid value {spec.grid[-1]} exceeds the available training pool of {available}")
    return available


def _chains(pool: Dataset, spec: CurveSpec) -> list[tuple]:
    """The curve's chains, longest first: (rows, config, points, scored) each.

    points maps each step at which the chain is scored to its (grid index,
    repetition), and scored maps each metric to the pool rows it scores.
    A passes chain resplits the pool per repetition, trains for max(grid)
    passes and scores its test rows at each grid pass.  A sample-size chain
    trains ``passes_per_point`` passes on a fresh subsample, per (size,
    repetition), of one split's training side and scores the subsample and
    the test rows at its last step.
    """
    reps, chains = range(spec.repetitions), []
    make = partial(TrainConfig, spec.loss, spec.reg, spec.schedule)
    if spec.kind == "passes":
        for rep in reps:
            train_rows, test_rows = split(len(pool), spec.train_fraction, derive_seed(spec.seed, _SPLIT_TAG, rep))
            n = len(train_rows)  # step g * n ends pass g
            config = make(total_steps=spec.grid[-1] * n, seed=derive_seed(spec.seed, _TRAIN_TAG, rep), record_every=n)
            points = {g * n: (gi, rep) for gi, g in enumerate(spec.grid)}
            chains.append((train_rows, config, points, {"test": test_rows}))
        return chains
    train_rows, test_rows = split(len(pool), spec.train_fraction, derive_seed(spec.seed, _SPLIT_TAG))
    for gi, size in reversed(list(enumerate(spec.grid))):
        for rep in reps:
            subset = train_rows.take(subsample(len(train_rows), size, derive_seed(spec.seed, _SUBSAMPLE_TAG, gi, rep)))
            config = make(total_steps=spec.passes_per_point * size, seed=derive_seed(spec.seed, _TRAIN_TAG, gi, rep))
            chains.append((subset, config, {config.total_steps: (gi, rep)}, {"train": subset, "test": test_rows}))
    return chains


def run_curve(pool: Dataset, spec: CurveSpec) -> dict[str, np.ndarray]:
    """Per-repetition objectives by metric, each of shape (len(grid), repetitions).

    "passes" gives "test"; "samplesize" gives "train" and "test"; "gap"
    adds "gap", each repetition's test minus its train objective.  Every
    chain of the curve trains in one ``iterates`` call.
    """
    training_pool_size(len(pool), spec)
    rows, configs, points, scored = zip(*_chains(pool, spec))
    metrics = {metric: np.empty((len(spec.grid), spec.repetitions)) for metric in scored[0]}
    for t, w, _ in iterates(pool, list(rows), list(configs)):
        for w_r, at, chain_scored in zip(w, points, scored):
            if t in at:
                for metric, metric_rows in chain_scored.items():
                    metrics[metric][at[t]] = mean_loss(w_r, pool, spec.loss, metric_rows) + spec.reg.value(w_r)
    if spec.kind == "gap":
        metrics["gap"] = metrics["test"] - metrics["train"]
    return metrics


def run_passes_curve(pool: Dataset, spec: CurveSpec) -> np.ndarray:
    """Test objectives after each grid pass count, shape (len(grid), repetitions): ``run_curve``'s "test"."""
    if spec.kind != "passes":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'passes'")
    return run_curve(pool, spec)["test"]


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
