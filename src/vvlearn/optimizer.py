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

One loop, ``_steps``, advances R independent chains in lockstep; ``train``
is its R = 1 case and ``train_many`` runs the R repetitions of a learning
curve.  The chains share the loss, regularizer, schedule, length and record
cadence; each keeps its own data, PCG64 stream and certificates, and chain
r of a lockstep run equals a lone ``train`` of that chain bit for bit.

Every chain stores its iterate lazily scaled, W_r = a * V_r (Pegasos,
Shalev-Shwartz et al. 2011; Bottou, "Stochastic Gradient Descent Tricks",
2012), with V of shape (R, d, c) and one scale a for all chains: they
start at a = 1 under one schedule, so a stays equal across them.  The
regularizer's step is ``_shrink``: the Frobenius shrink (1 - eta*sigma)
multiplies a, so a step costs O(nnz * c) per chain, and a is folded into
every V_r when |a| drops below a floor (at step 1 of the theorem schedule
the shrink is zero); the group (2, p) gradient rescales each chain's
columns, so V_r's columns are rescaled in place at O(d * c) and a stays 1.

Indices are drawn one chunk of steps at a time, each chain from its own
generator; numpy's bounded-integer stream does not depend on how the draws
are split, so the chunk size changes no value.  A chunk's feature indices
(offset by r * d into V viewed as (R * d, c)), values and labels are
gathered once, laid out step by step, so a step reads one slice of each.
The chunk holds a bounded number of entries, not of steps.

A step gathers the touched rows of all chains at once and scores them
with one stacked (R, 1, k) @ (R, k, c) product, which equals each chain's
own vals @ rows bit for bit; the coefficients come from one
``LossSpec.coef`` call on the (R, c) score matrix.  On a step where the
chains' drawn rows differ in nnz (possible only for R > 1 on sparse data)
the scores are computed chain by chain, since zero-padding to a common
length would change their rounding; the update is elementwise and stays
batched either way.

A running ||V_r||_F^2 per chain, a list of R floats updated by the change
in the touched rows, gives every iterate norm in O(1): the certificate checks
them on every step, first against the smallest chain bound and chain by
chain only when that fails, and a non-finite norm stops any run with a
CertificateError naming the step (and the chain when R > 1).  Recording
steps materialize W, check each exact norm, and check the l-infinity
duality ||coef_r||_1 <= L of the step's loss coefficients, which bounds
the loss subgradient by kappa * L for either regularizer.  Trajectories
agree with the dense ``sgd_step`` oracle in ``tests/oracles.py`` to
rounding (about 1e-15), not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import frobenius_norm, predict
from .dataio import Dataset
from .losses import LossSpec
from .regularizers import RegularizerSpec

# Steps per draw chunk are this many entries over R times the widest row,
# bounding the gathered index and value buffers of a chunk.
_DRAW_CHUNK_ENTRIES = 1 << 13
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
    gentler schedule used for learning-curve runs.  The parameter must be
    positive and finite, and so must eta_1.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in ("theorem", "experiment"):
            raise ValueError(f"unknown schedule {self.kind!r}")
        if not self.param > 0.0:
            raise ValueError(f"schedule parameter must be positive, got {self.param}")
        if self.param == math.inf or not math.isfinite(self.eta(1)):
            raise ValueError(f"schedule parameter {self.param} must be finite and give a finite eta_1")

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
    """Snapshot of a run at one step."""

    step: int
    empirical_objective: float
    holdout_objective: float | None
    iterate_frobenius_norm: float


def _check_data(data: Dataset, loss: LossSpec, shape=None) -> None:
    if len(data) == 0:
        raise ValueError("data must be nonempty")
    loss.check_labels(data.y, data.c)
    if shape is not None and shape != (data.d, data.c):
        raise ValueError(f"data has dimensions {(data.d, data.c)}, the weight matrix {shape}")


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
        rows = data.X if hi - lo == n else data.X[lo:hi]  # slicing copies the rows
        values[lo:hi] = loss.value(predict(w, rows), data.y[lo:hi])
    return float(np.sum(values) / n)


def _gather(datasets: list[Dataset], draws: list[np.ndarray]):
    """The rows each chain draws at each step of a chunk, laid out step by step.

    Returns (offsets, features, values, uniform).  The entries of chain r
    at step s are features[offsets[s*R + r] : offsets[s*R + r + 1]] (its
    feature indices offset by r * d) and the same slice of values;
    uniform[s] says whether the chains' rows at step s have equal nnz.
    """
    R, k, d = len(datasets), len(draws[0]), datasets[0].d
    starts = np.stack([data.X.indptr.take(i) for data, i in zip(datasets, draws)])
    counts = np.stack([data.X.indptr.take(i + 1) for data, i in zip(datasets, draws)]) - starts
    # Gather chain by chain, in (chain, step) order: entry j of the row
    # chain r draws at step s sits at first[r, s] + j of the gathered
    # arrays and at starts[r, s] + j of chain r's CSR arrays.
    nnz = counts.ravel()
    first = np.cumsum(nnz) - nnz
    positions = np.arange(int(first[-1] + nnz[-1]))
    source = np.repeat(starts.ravel() - first, nnz)
    source += positions
    features, values = np.empty(len(positions), dtype=np.intp), np.empty(len(positions))
    cuts = [*first[::k].tolist(), len(positions)]
    for r, (data, lo, hi) in enumerate(zip(datasets, cuts, cuts[1:])):
        np.add(data.X.indices.take(source[lo:hi]), r * d, out=features[lo:hi], dtype=np.intp)
        data.X.data.take(source[lo:hi], out=values[lo:hi])
    # Reorder to (step, chain) order, so that a step's entries are one slice.
    nnz = counts.T.ravel()
    offsets = np.zeros(len(nnz) + 1, dtype=np.int64)
    np.cumsum(nnz, out=offsets[1:])
    order = np.repeat(first.reshape(R, k).T.ravel() - offsets[:-1], nnz)
    order += positions
    uniform = np.all(counts == counts[:1], axis=0)
    return offsets.tolist(), features.take(order), values.take(order), uniform.tolist()


def _chunks(datasets: list[Dataset], configs: list[TrainConfig]):
    """The draws of every chain, one chunk of steps at a time.

    Yields (t0, offsets, features, values, labels, uniform) per chunk, for
    its steps t0 + 1, t0 + 2, ...: labels[s] holds the chains' labels at
    the chunk's step s and the rest comes from ``_gather``.  Indices are
    uniform from a PCG64 per chain, seeded with its config's seed.
    """
    R = len(datasets)
    rngs = [np.random.Generator(np.random.PCG64(config.seed)) for config in configs]
    widest = max(int(np.max(np.diff(data.X.indptr))) for data in datasets)
    size = max(1, _DRAW_CHUNK_ENTRIES // (R * max(1, widest)))
    total = configs[0].total_steps
    for t0 in range(0, total, size):
        draws = [rng.integers(0, len(data), size=min(size, total - t0)) for rng, data in zip(rngs, datasets)]
        labels = np.stack([data.y.take(i, axis=0) for data, i in zip(datasets, draws)], axis=1)
        offsets, features, values, uniform = _gather(datasets, draws)
        yield t0, offsets, features, values, labels, uniform


def _chain(r: int | None) -> str:
    return "" if r is None else f" in chain {r}"


def _check_iterate(norm: float, bound: float, t: int, loss: LossSpec, reg: RegularizerSpec, r=None):
    """The certificate on one chain's iterate norm; r names the chain when R > 1."""
    if not math.isfinite(norm):
        raise CertificateError(
            f"iterate norm became {norm} at step {t}{_chain(r)} (loss {loss.name}, {reg.name})"
        )
    if norm > bound:
        raise CertificateError(
            f"iterate norm {norm:.6g} exceeded the certified bound "
            f"{bound:.6g} at step {t}{_chain(r)} (loss {loss.name}, sigma {reg.sigma})"
        )


def _check_running(
    a: float, v_sq: list[float], bounds: list[float], t: int, loss: LossSpec, reg: RegularizerSpec
):
    """The per-step certificate on every chain's running norm |a| * sqrt(|v_sq[r]|).

    The largest norm is compared with the smallest bound first; only when
    that fails is each chain checked, so the error names the failing chain.
    """
    # abs: rounding can leave a near-zero running sum just below zero.
    top = abs(a) * math.sqrt(max(map(abs, v_sq)))
    # max passes over a NaN that is not first; their sum carries it.
    if top <= min(bounds) and top < math.inf and math.isfinite(sum(v_sq)):
        return
    for r, (sq, bound) in enumerate(zip(v_sq, bounds)):
        _check_iterate(abs(a) * math.sqrt(abs(sq)), bound, t, loss, reg, r if len(bounds) > 1 else None)


def _square(x: np.ndarray) -> float:
    return float(np.vdot(x, x))


def _squares(v: np.ndarray) -> list[float]:
    """_square of every chain of v, shape (R, ...); vecdot's rows equal vdot bit for bit."""
    if len(v) == 1:  # one vdot dispatches faster than the vecdot gufunc
        return [_square(v)]
    flat = v.reshape(len(v), -1)
    return np.vecdot(flat, flat).tolist()


def _shrink(reg: RegularizerSpec, a: float, v: np.ndarray, eta: float):
    """The regularizer's step on W_r = a * V_r for all chains, v of shape (R, d, c).

    Returns the new a, and the chains' ||V_r||_F^2 if V changed.
    """
    if reg.kind == "frobenius":
        a *= 1.0 - eta * reg.sigma
        if abs(a) >= _SCALE_FLOOR:
            return a, None
        # Exact or near-zero shrink (eta_1 * sigma = 1 under the theorem
        # schedule): fold a into V before dividing by it.
        v *= a
    else:
        for chain in v:
            chain *= 1.0 - eta * reg.column_scale(chain)
    return 1.0, _squares(v)


def _steps(datasets: list[Dataset], configs: list[TrainConfig]):
    """SGD on W_r = a * V_r for every chain; yields (t, W, norms) on recording steps.

    W has shape (R, d, c) and norms lists each chain's ||W_r||_F.
    """
    config = configs[0]
    loss, reg, schedule, total = config.loss, config.reg, config.schedule, config.total_steps
    record_every = config.record_every or total
    R, d, c = len(datasets), datasets[0].d, datasets[0].c
    # Valid for the Frobenius regularizer whenever eta_1 * sigma <= 1 (both
    # schedules qualify at their usual parameters), since then
    # ||w_{t+1}|| <= max(||w_t||, L*kappa/sigma).  Otherwise only
    # finiteness is checked.
    if reg.kind == "frobenius" and schedule.eta(1) * reg.sigma <= 1.0 + 1e-12:
        bounds = [loss.lipschitz_inf * data.kappa / reg.sigma + _CERT_TOL for data in datasets]
    else:
        bounds = [math.inf] * R
    chain_ids = list(range(R)) if R > 1 else [None]
    a, v, v_sq = 1.0, np.zeros((R, d, c)), [0.0] * R
    flat = v.reshape(R * d, c)
    for t0, offsets, features, values, labels, uniform in _chunks(datasets, configs):
        for s, same_nnz in enumerate(uniform):
            t = t0 + s + 1
            eta = schedule.eta(t)
            lo, hi = offsets[s * R], offsets[s * R + R]
            if same_nnz:
                idx, vals = features[lo:hi].reshape(R, -1), values[lo:hi].reshape(R, 1, -1)
                rows = flat.take(idx, axis=0)  # (R, k, c)
                scores = (vals @ rows)[:, 0]
            else:
                idx, vals = features[lo:hi], values[lo:hi]
                rows = flat.take(idx, axis=0)  # (entries, c)
                cuts = [o - lo for o in offsets[s * R : s * R + R + 1]]
                scores = np.stack([vals[p:q] @ rows[p:q] for p, q in zip(cuts, cuts[1:])])
            coef = loss.coef(a * scores, labels[s])
            recording = t % record_every == 0 or t == total
            if recording:
                # An L-Lipschitz loss in the max norm has subgradients of l1 norm <= L.
                for r, dual in zip(chain_ids, np.sum(np.abs(coef), axis=1).tolist()):
                    if not dual <= loss.lipschitz_inf + _CERT_TOL:
                        raise CertificateError(
                            f"loss coefficients at step {t}{_chain(r)} have l1 norm {dual:.6g}, above the "
                            f"certified max-norm Lipschitz constant {loss.lipschitz_inf:.6g} (loss {loss.name})"
                        )
            a, shrunk_sq = _shrink(reg, a, v, eta)
            if shrunk_sq is not None:
                rows, v_sq = flat.take(idx, axis=0), shrunk_sq
            if same_nnz:
                new_rows = rows - (eta / a) * (vals.mT * coef[:, None, :])
                changes = zip(_squares(new_rows), _squares(rows))
            else:
                new_rows = rows - (eta / a) * (vals[:, None] * np.repeat(coef, np.diff(cuts), axis=0))
                changes = [(_square(new_rows[p:q]), _square(rows[p:q])) for p, q in zip(cuts, cuts[1:])]
            flat[idx] = new_rows
            v_sq = [sq + (new - old) for sq, (new, old) in zip(v_sq, changes)]
            _check_running(a, v_sq, bounds, t, loss, reg)
            if recording:
                w = a * v
                v_sq = _squares(v)
                norms = [frobenius_norm(w_r) for w_r in w]
                for r, norm, bound in zip(chain_ids, norms, bounds):
                    _check_iterate(norm, bound, t, loss, reg, r)
                yield t, w, norms


def train_many(
    datasets: list[Dataset], configs: list[TrainConfig]
) -> list[tuple[np.ndarray, list[RunRecord]]]:
    """Run one SGD chain per (dataset, config) pair in lockstep.

    Returns each chain's last iterate and records, bit for bit what
    ``train`` returns for that pair alone.  The configs must agree on
    loss, regularizer, schedule, ``total_steps`` and ``record_every``,
    and the datasets on d and c; each config keeps its own seed and
    holdout.  All data is checked before the first step.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    if len(datasets) != len(configs):
        raise ValueError(
            f"need one config per dataset, got {len(datasets)} datasets and {len(configs)} configs"
        )
    first = configs[0]
    loss, reg = first.loss, first.reg
    shared = (loss, reg, first.schedule, first.total_steps, first.record_every)
    for r, config in enumerate(configs):
        if (config.loss, config.reg, config.schedule, config.total_steps, config.record_every) != shared:
            raise ValueError(
                f"config {r} differs from config 0 in loss, regularizer, schedule, total_steps or record_every"
            )
    shape = (datasets[0].d, datasets[0].c)
    for r, (data, config) in enumerate(zip(datasets, configs)):
        _check_data(data, loss)
        if (data.d, data.c) != shape:
            raise ValueError(f"dataset {r} has dimensions {(data.d, data.c)}, dataset 0 {shape}")
        if config.eval_holdout is not None:
            _check_data(config.eval_holdout, loss, shape)

    records: list[list[RunRecord]] = [[] for _ in configs]
    for t, w, norms in _steps(datasets, configs):
        for data, config, w_r, norm, chain in zip(datasets, configs, w, norms, records):
            holdout = None
            if config.eval_holdout is not None:
                holdout = evaluate_objective(w_r, config.eval_holdout, loss, reg)
            chain.append(
                RunRecord(
                    step=t,
                    empirical_objective=evaluate_objective(w_r, data, loss, reg),
                    holdout_objective=holdout,
                    iterate_frobenius_norm=norm,
                )
            )
    return list(zip(w, records))


def train(data: Dataset, config: TrainConfig) -> tuple[np.ndarray, list[RunRecord]]:
    """Run SGD from w = 0 and return the last iterate with its records.

    Indices are drawn i.i.d. uniform from a seeded PCG64 generator, so a
    fixed config reproduces the run bit for bit.  Records are emitted
    every ``record_every`` steps and at the final step.  The labels are
    checked against the loss, and the holdout against the data's
    dimensions, before the first step.  This is ``train_many`` with one
    chain.
    """
    return train_many([data], [config])[0]
