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

Frobenius runs store the iterate lazily scaled, W = a * V (Pegasos,
Shalev-Shwartz et al. 2011; Bottou, "Stochastic Gradient Descent Tricks",
2012).  The shrink (1 - eta*sigma) multiplies the scalar a, and the loss
update touches only the nnz rows of V, so a step costs O(nnz * c) instead
of O(d * c).  A running ||V||_F^2, updated by the change in those rows,
gives the iterate norm |a| * ||V||_F in O(1), and the certificate checks it
on every step.  When |a| drops below a floor (at step 1 of the theorem
schedule the shrink is zero) a is folded into V.  Recording steps
materialize W, resync ||V||_F^2, and check the certificate and the
single-step contract against the exact frobenius_norm(W).  Trajectories
agree with the dense ``sgd_step`` oracle to rounding (about 1e-15), not bit
for bit.  ``l2p`` runs take plain dense steps.  On both paths a non-finite
iterate norm stops the run with a CertificateError.  Both loops read row i
of the CSR input and get its loss coefficients from ``LossSpec.coef`` on a
1 x c score row, the kernel that batched evaluation runs on all rows.
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


def _check_data(data: Dataset, loss: LossSpec) -> None:
    if len(data) == 0:
        raise ValueError("data must be nonempty")
    loss.check_labels(data.y, data.c)


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
    _check_data(data, loss)
    if np.shape(w) != (data.d, data.c):
        raise ValueError(f"weight matrix has shape {np.shape(w)}, data needs {(data.d, data.c)}")
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


def _scaled_frobenius_steps(data, kappa, config):
    """Frobenius SGD on W = a * V; yields (t, W, ||W||_F) on recording steps.

    The shrink (1 - eta*sigma) multiplies the scalar a and the loss update
    touches only the nnz rows of V, so a step costs O(nnz * c).  A running
    ||V||_F^2, updated by the change in those rows, puts the iterate
    certificate at O(1) per step.
    """
    loss, reg, schedule = config.loss, config.reg, config.schedule
    sigma = reg.sigma
    # Valid whenever eta_1 * sigma <= 1 (both schedules qualify at their
    # usual parameters), since then ||w_{t+1}|| <= max(||w_t||, L*kappa/sigma).
    # Otherwise only finiteness is checked.
    if schedule.eta(1) * sigma <= 1.0 + 1e-12:
        norm_bound = loss.lipschitz_inf * kappa / sigma + _CERT_TOL
    else:
        norm_bound = math.inf
    bounds, indices, values, labels = data.X.indptr.tolist(), data.X.indices, data.X.data, data.y
    a, v, v_sq = 1.0, np.zeros((data.d, data.c)), 0.0
    for t, i, recording in _draws(config, len(data)):
        eta = schedule.eta(t)
        idx, vals = indices[bounds[i] : bounds[i + 1]], values[bounds[i] : bounds[i + 1]]
        rows = v[idx]
        coef = loss.coef((a * (vals @ rows))[None, :], labels[i : i + 1])[0]
        outer = vals[:, None] * coef[None, :]
        if recording:
            # Single-step contract from the subgradient norm bounds.
            w = a * v
            grad = reg.grad(w)
            grad[idx, :] += outer
            step_norm = eta * frobenius_norm(grad)
            allowed = eta * (loss.lipschitz_inf * kappa + sigma * frobenius_norm(w))
            if step_norm > allowed + _CERT_TOL:
                raise CertificateError(
                    f"step {t} moved {step_norm:.6g}, above the bound {allowed:.6g}"
                )
        a *= 1.0 - eta * sigma
        if abs(a) < _SCALE_FLOOR:
            # Exact or near-zero shrink (eta_1 * sigma = 1 under the theorem
            # schedule): fold a into V before dividing by it.
            v *= a
            a = 1.0
            rows = v[idx]
            v_sq = float(np.vdot(v, v))
        new_rows = rows - (eta / a) * outer
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


def _dense_steps(data, kappa, config):
    """Plain SGD on a dense W; yields (t, W, ||W||_F) on recording steps."""
    loss, reg, schedule = config.loss, config.reg, config.schedule
    w = np.zeros((data.d, data.c))
    for t, i, recording in _draws(config, len(data)):
        w = sgd_step(w, data, i, loss, reg, schedule.eta(t))
        iterate_norm = frobenius_norm(w)
        _check_iterate(iterate_norm, math.inf, t, loss, reg)
        if recording:
            yield t, w, iterate_norm


def train(data: Dataset, config: TrainConfig) -> tuple[np.ndarray, list[RunRecord]]:
    """Run SGD from w = 0 and return the last iterate with its records.

    Indices are drawn i.i.d. uniform from a seeded PCG64 generator, so a
    fixed config reproduces the run bit for bit.  Records are emitted
    every ``record_every`` steps and at the final step.  The labels are
    checked against the loss before the first step.
    """
    loss, reg = config.loss, config.reg
    _check_data(data, loss)
    steps = _scaled_frobenius_steps if reg.kind == "frobenius" else _dense_steps

    records: list[RunRecord] = []
    started = time.perf_counter()
    for t, w, iterate_norm in steps(data, data.kappa, config):
        holdout = None
        if config.eval_holdout is not None:
            holdout = evaluate_objective(w, config.eval_holdout, loss, reg)
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
