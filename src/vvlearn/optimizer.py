"""Stochastic subgradient descent for regularized empirical risk.

The objective is the empirical mean of a convex loss plus a strongly
convex regularizer.  Training starts at w = 0, samples one example index
uniformly (with replacement) per step, and returns the last iterate; a
"pass" is n steps, not an epoch shuffle.

For the Frobenius regularizer with step sizes satisfying eta_t * sigma <= 1
the iterates provably stay inside the ball ||w_t||_F <= L * kappa / sigma,
where L is the loss's certified max-norm Lipschitz constant and kappa the
largest input norm.  That bound is enforced as a runtime certificate on
every training run, not just under test.

One loop trains both regularizers on the iterate stored lazily scaled,
W = a * V (Pegasos, Shalev-Shwartz et al. 2011; Bottou, "Stochastic
Gradient Descent Tricks", 2012).  The loss update touches only the nnz
rows of V, with coefficients from ``LossSpec.coef`` on a 1 x c score row.
The regularizer's step is ``_shrink``: the Frobenius shrink (1 - eta*sigma)
multiplies a, so a step costs O(nnz * c), and a is folded into V when |a|
drops below a floor (at step 1 of the theorem schedule the shrink is
zero); the group (2, p) gradient rescales each column, so V's columns are
rescaled in place at O(d * c) and a stays 1.  A running ||V||_F^2, updated
by the change in the touched rows, gives the iterate norm in O(1): the
certificate checks it on every step, and a non-finite norm stops any run
with a CertificateError.  Recording steps materialize W, check the exact
norm, and check the l-infinity duality ||coef||_1 <= L of the step's loss
coefficients, which bounds the loss subgradient by kappa * L for either
regularizer.  Trajectories agree with the dense ``sgd_step`` oracle to
rounding (about 1e-15), not bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import frobenius_norm, predict
from .dataio import Dataset
from .losses import LossSpec
from .regularizers import RegularizerSpec

_INDEX_CHUNK = 1 << 20
# Rows per evaluation chunk are this many entries over c * c, bounding the
# score and pair-term arrays a chunk allocates.
_EVAL_CHUNK_ENTRIES = 1 << 16
_CERT_TOL = 1e-9
# Below this |a| the lazily scaled iterate W = a * V is folded back into V.
_SCALE_FLOOR = 1e-9


class CertificateError(RuntimeError):
    """An optimizer invariant failed during a run."""


@dataclass(frozen=True)
class StepSchedule:
    """Step-size schedule eta_t for 1-based step counter t.

    ``theorem`` is eta_t = 1 / (t * sigma), the schedule the regret
    analysis assumes.  ``experiment`` is eta_t = 1 / (lam * t + 1), the
    gentler schedule used for learning-curve runs.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in ("theorem", "experiment"):
            raise ValueError(f"unknown schedule {self.kind!r}")
        if not self.param > 0.0:
            raise ValueError(f"schedule parameter must be positive, got {self.param}")

    @staticmethod
    def theorem(sigma: float) -> "StepSchedule":
        return StepSchedule("theorem", sigma)

    @staticmethod
    def experiment(lam: float) -> "StepSchedule":
        return StepSchedule("experiment", lam)

    def eta(self, t: int) -> float:
        if t < 1:
            raise ValueError(f"step counter is 1-based, got {t}")
        if self.kind == "theorem":
            return 1.0 / (t * self.param)
        return 1.0 / (self.param * t + 1.0)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on, seed included.

    ``record_every`` of None records only the final step.  ``eval_holdout``
    adds the objective on held-out data to every record.
    """

    loss: LossSpec
    reg: RegularizerSpec
    schedule: StepSchedule
    total_steps: int
    seed: int
    record_every: int | None = None
    eval_holdout: object = None

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be positive, got {self.total_steps}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError(f"record_every must be positive, got {self.record_every}")


@dataclass
class RunRecord:
    """Snapshot of a run at one step.

    ``elapsed`` is wall-clock seconds since the run started; it is
    excluded from equality so record streams compare deterministically.
    """

    step: int
    empirical_objective: float
    holdout_objective: float | None
    iterate_frobenius_norm: float
    elapsed: float = field(default=0.0, compare=False)


def _check_data(data: Dataset, loss: LossSpec, shape=None) -> None:
    if len(data) == 0:
        raise ValueError("data must be nonempty")
    loss.check_labels(data.y, data.c)
    if shape is not None and shape != (data.d, data.c):
        raise ValueError(f"data has dimensions {(data.d, data.c)}, the weight matrix {shape}")


def sgd_step(
    w: np.ndarray,
    data: Dataset,
    i: int,
    loss: LossSpec,
    reg: RegularizerSpec,
    eta: float,
) -> np.ndarray:
    """Single subgradient step w - eta * (loss_subgrad + reg_grad) on row i.

    The dense reference step: it costs O(d * c) and serves as the oracle
    for the training loops.  The input array is not modified.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (data.d, data.c):
        raise ValueError(f"weight matrix has shape {w.shape}, data needs {(data.d, data.c)}")
    lo, hi = data.X.indptr[i], data.X.indptr[i + 1]
    idx, vals = data.X.indices[lo:hi], data.X.data[lo:hi]
    grad = reg.grad(w)
    coef = loss.coef((vals @ w[idx])[None, :], data.y[i : i + 1])[0]
    grad[idx, :] += vals[:, None] * coef[None, :]
    return w - eta * grad


def evaluate_objective(
    w: np.ndarray,
    data: Dataset,
    loss: LossSpec,
    reg: RegularizerSpec,
) -> float:
    """Mean loss over the data plus the regularizer."""
    return evaluate_mean_loss(w, data, loss) + reg.value(w)


def evaluate_mean_loss(w: np.ndarray, data: Dataset, loss: LossSpec) -> float:
    """Mean loss over the data without the regularization term.

    Scores come from one sparse product per chunk of rows; the chunks only
    bound memory and do not change any value.
    """
    _check_data(data, loss, np.shape(w))
    n = len(data)
    values = np.empty(n)
    step = max(1, _EVAL_CHUNK_ENTRIES // (data.c * data.c))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        values[lo:hi] = loss.value(predict(w, data.X[lo:hi]), data.y[lo:hi])
    return float(np.sum(values) / n)


def _draws(config: TrainConfig, n: int):
    """(t, example index, recording) for t = 1..total_steps.

    Indices are uniform from a PCG64 seeded with ``config.seed``; recording
    is true every ``record_every`` steps and at the final step.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    total = config.total_steps
    record_every = config.record_every or total
    t = 0
    while t < total:
        block = min(total - t, _INDEX_CHUNK)
        for i in rng.integers(0, n, size=block).tolist():
            t += 1
            yield t, i, t % record_every == 0 or t == total


def _check_iterate(norm: float, bound: float, t: int, loss: LossSpec, reg: RegularizerSpec):
    if not math.isfinite(norm):
        raise CertificateError(f"iterate norm became {norm} at step {t} (loss {loss.name}, {reg.name})")
    if norm > bound:
        raise CertificateError(
            f"iterate norm {norm:.6g} exceeded the certified bound "
            f"{bound:.6g} at step {t} (loss {loss.name}, sigma {reg.sigma})"
        )


def _shrink(reg: RegularizerSpec, a: float, v: np.ndarray, eta: float):
    """The regularizer's step on W = a * V: the new a, and ||V||_F^2 if V changed."""
    if reg.kind == "frobenius":
        a *= 1.0 - eta * reg.sigma
        if abs(a) >= _SCALE_FLOOR:
            return a, None
        # Exact or near-zero shrink (eta_1 * sigma = 1 under the theorem
        # schedule): fold a into V before dividing by it.
        v *= a
    else:
        v *= 1.0 - eta * reg.column_scale(v)
    return 1.0, float(np.vdot(v, v))


def _steps(data: Dataset, config: TrainConfig):
    """SGD on W = a * V; yields (t, W, ||W||_F) on recording steps."""
    loss, reg, schedule = config.loss, config.reg, config.schedule
    # Valid for the Frobenius regularizer whenever eta_1 * sigma <= 1 (both
    # schedules qualify at their usual parameters), since then
    # ||w_{t+1}|| <= max(||w_t||, L*kappa/sigma).  Otherwise only
    # finiteness is checked.
    if reg.kind == "frobenius" and schedule.eta(1) * reg.sigma <= 1.0 + 1e-12:
        norm_bound = loss.lipschitz_inf * data.kappa / reg.sigma + _CERT_TOL
    else:
        norm_bound = math.inf
    bounds, indices, values, labels = data.X.indptr.tolist(), data.X.indices, data.X.data, data.y
    a, v, v_sq = 1.0, np.zeros((data.d, data.c)), 0.0
    for t, i, recording in _draws(config, len(data)):
        eta = schedule.eta(t)
        idx, vals = indices[bounds[i] : bounds[i + 1]], values[bounds[i] : bounds[i + 1]]
        rows = v[idx]
        coef = loss.coef((a * (vals @ rows))[None, :], labels[i : i + 1])[0]
        if recording:
            # An L-Lipschitz loss in the max norm has subgradients of l1 norm <= L.
            dual = float(np.sum(np.abs(coef)))
            if not dual <= loss.lipschitz_inf + _CERT_TOL:
                raise CertificateError(
                    f"loss coefficients at step {t} have l1 norm {dual:.6g}, above the "
                    f"certified max-norm Lipschitz constant {loss.lipschitz_inf:.6g} (loss {loss.name})"
                )
        a, shrunk_sq = _shrink(reg, a, v, eta)
        if shrunk_sq is not None:
            rows, v_sq = v[idx], shrunk_sq
        new_rows = rows - (eta / a) * (vals[:, None] * coef[None, :])
        v[idx] = new_rows
        v_sq += float(np.vdot(new_rows, new_rows)) - float(np.vdot(rows, rows))
        # abs: rounding can leave a near-zero running sum just below zero.
        _check_iterate(abs(a) * math.sqrt(abs(v_sq)), norm_bound, t, loss, reg)
        if recording:
            w = a * v
            v_sq = float(np.vdot(v, v))
            iterate_norm = frobenius_norm(w)
            _check_iterate(iterate_norm, norm_bound, t, loss, reg)
            yield t, w, iterate_norm


def train(data: Dataset, config: TrainConfig) -> tuple[np.ndarray, list[RunRecord]]:
    """Run SGD from w = 0 and return the last iterate with its records.

    Indices are drawn i.i.d. uniform from a seeded PCG64 generator, so a
    fixed config reproduces the run bit for bit.  Records are emitted
    every ``record_every`` steps and at the final step.  The labels are
    checked against the loss, and the holdout against the data's
    dimensions, before the first step.
    """
    loss, reg, holdout_data = config.loss, config.reg, config.eval_holdout
    _check_data(data, loss)
    if holdout_data is not None:
        _check_data(holdout_data, loss, (data.d, data.c))

    records: list[RunRecord] = []
    started = time.perf_counter()
    for t, w, iterate_norm in _steps(data, config):
        holdout = None
        if holdout_data is not None:
            holdout = evaluate_objective(w, holdout_data, loss, reg)
        records.append(
            RunRecord(
                step=t,
                empirical_objective=evaluate_objective(w, data, loss, reg),
                holdout_objective=holdout,
                iterate_frobenius_norm=iterate_norm,
                elapsed=time.perf_counter() - started,
            )
        )
    return w, records
