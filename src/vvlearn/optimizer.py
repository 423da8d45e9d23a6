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
Frobenius shrink (1 - eta*sigma) multiplies a (``_shrink``), so a step
costs O(nnz * c) per chain, and a is folded into every V_r when |a| would
drop below a floor (at step 1 of the theorem schedule the shrink is zero);
the group (2, p) gradient rescales each chain's columns, so V_r's columns
are rescaled in place at O(d * c) and a stays 1 (``_rescale`` does both).

Indices are drawn one chunk of steps at a time, each chain from its own
generator; numpy's bounded-integer stream does not depend on how the draws
are split, so the chunk size changes no value.  A chunk's feature indices
(offset by r * d into V viewed as (R * d, c)), values and labels are
gathered once, laid out step by step, so a run of steps reads one slice of
each.  The chunk holds a bounded number of entries, not of steps.

Steps advance in blocks: maximal runs of consecutive steps in which no step
reads a row of V that an earlier step of the run wrote (checked in every
chain at once, since the offset indices of different chains never meet).
Within a block the rows a step reads are still those at its turn, so the
block is advanced in one batched pass: one row gather, one stacked
(B, 1, k) @ (B, k, c) product and one scatter per distinct nnz k among
its B drawn rows (one for each chain at each step), and one
``LossSpec.coef`` call.  The scalars stay sequential: each step's scale a, eta_t / a, the
running norms and their certificate.  A stacked product equals each row's
own vals @ rows bit for bit and the update is elementwise, so a blocked run
equals stepping one at a time bit for bit.  Recording steps end a block, a
block of more than one step gathers at most ``_BLOCK_VALUES`` values of V,
and a step that changes V itself (a fold of the scale, every group (2, p)
step) stands alone.  When some chain's rows all hold more than d / 2 entries,
any two of them share a column, so no block has two steps and the scan is
skipped.

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
# A block of steps gathers at most this many values of V (entries times c)
# unless it is one step, so its stacked temporaries stay cache-sized: at
# c = 256 blocks measured slower than single steps without this bound.
_BLOCK_VALUES = 1 << 13
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

    Returns (offsets, features, values).  The entries of chain r at step s
    are features[offsets[s*R + r] : offsets[s*R + r + 1]] (its feature
    indices offset by r * d) and the same slice of values.
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
    return offsets, features.take(order), values.take(order)


def _conflicts(offsets: np.ndarray, features: np.ndarray, R: int) -> list[int]:
    """For each step of a chunk, the latest earlier step that touched one of its rows of V, or -1."""
    steps = (len(offsets) - 1) // R
    step = np.repeat(np.arange(steps), np.diff(offsets[::R]))
    # A step touches a row once, so sorting (row, step) keys lists each
    # row's touches in step order.
    rows, step = np.divmod(np.sort(features * steps + step), steps)
    same = rows[1:] == rows[:-1]
    latest = np.full(steps, -1)
    np.maximum.at(latest, step[1:][same], step[:-1][same])
    return latest.tolist()


def _chunks(datasets: list[Dataset], configs: list[TrainConfig]):
    """The draws of every chain, one chunk of steps at a time.

    Yields (t0, offsets, features, values, labels, conflicts) per chunk,
    for its steps t0 + 1, t0 + 2, ...: labels holds the chains' labels in
    (step, chain) order, conflicts comes from ``_conflicts`` and the rest
    from ``_gather``.  Indices are uniform from a PCG64 per chain, seeded
    with its config's seed.  When some chain's rows all hold more than
    d / 2 entries, any two of its rows share a column, so every step
    conflicts with the one before and the scan is skipped.
    """
    R = len(datasets)
    rngs = [np.random.Generator(np.random.PCG64(config.seed)) for config in configs]
    widths = [np.diff(data.X.indptr) for data in datasets]
    widest = max(int(np.max(w)) for w in widths)
    dense = any(2 * int(np.min(w)) > data.d for w, data in zip(widths, datasets))
    size = max(1, _DRAW_CHUNK_ENTRIES // (R * max(1, widest)))
    total = configs[0].total_steps
    for t0 in range(0, total, size):
        draws = [rng.integers(0, len(data), size=min(size, total - t0)) for rng, data in zip(rngs, datasets)]
        labels = np.stack([data.y.take(i, axis=0) for data, i in zip(datasets, draws)], axis=1)
        offsets, features, values = _gather(datasets, draws)
        conflicts = list(range(-1, len(draws[0]) - 1)) if dense else _conflicts(offsets, features, R)
        yield t0, offsets, features, values, labels.reshape(-1, *labels.shape[2:]), conflicts


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


def _squares(v: np.ndarray) -> list[float]:
    """||v[i]||^2 for every i, v of shape (n, ...); vecdot's rows equal vdot bit for bit."""
    if len(v) == 1:  # one vdot dispatches faster than the vecdot gufunc
        return [float(np.vdot(v, v))]
    flat = v.reshape(len(v), -1)
    return np.vecdot(flat, flat).tolist()


def _shrink(reg: RegularizerSpec, a: float, eta: float) -> float | None:
    """The Frobenius shrink of the shared scale a, or None when the step must change V instead."""
    if reg.kind == "frobenius" and abs(a * (1.0 - eta * reg.sigma)) >= _SCALE_FLOOR:
        return a * (1.0 - eta * reg.sigma)
    return None


def _rescale(reg: RegularizerSpec, a: float, v: np.ndarray, eta: float) -> list[float]:
    """The regularizer's step on V when a cannot carry it; a becomes 1.

    Frobenius folds the shrunk scale into V (an exact or near-zero shrink,
    as eta_1 * sigma = 1 under the theorem schedule, so a is never divided
    by it); group (2, p) rescales each chain's columns.  Returns the
    chains' ||V_r||_F^2.
    """
    if reg.kind == "frobenius":
        v *= a * (1.0 - eta * reg.sigma)
    else:
        for chain in v:
            chain *= 1.0 - eta * reg.column_scale(chain)
    return _squares(v)


def _groups(flat: np.ndarray, idx: np.ndarray, vals: np.ndarray, n: int, offsets: np.ndarray | None):
    """A block's n drawn rows, grouped by nnz, as stacked matrices.

    idx and vals (entries,) hold the block's indices into V, viewed as
    ``flat`` of shape (R * d, c), and the input values; offsets, counted
    from 0, says where each drawn row's entries start, and is None when all
    n have the same nnz.  Returns (members, where, grid, x) per nnz: the
    drawn rows with it, their indices into V as (members, nnz), their rows
    of V as (members, nnz, c) and their values as (members, 1, nnz).
    """
    if offsets is None:
        k = len(vals) // n
        where = idx.reshape(n, k)
        return [(slice(None), where, flat.take(where, axis=0), vals.reshape(n, 1, k))]
    rows = flat.take(idx, axis=0)
    widths = np.diff(offsets)
    order = np.argsort(widths, kind="stable")
    groups = []
    for members in np.split(order, np.flatnonzero(np.diff(widths.take(order))) + 1):
        entries = offsets.take(members)[:, None] + np.arange(widths[members[0]])
        groups.append((members, idx[entries], rows[entries], vals[entries][:, None, :]))
    return groups


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
    for t0, offsets, features, values, labels, conflicts in _chunks(datasets, configs):
        cuts = offsets.tolist()
        # Drawn rows i to same_nnz[i] - 1 (in step, chain order) have equal
        # nnz; None when all of the chunk's rows do, as on dense data.
        widths, same_nnz = np.diff(offsets), None
        ends = np.flatnonzero(widths[1:] != widths[:-1]) + 1
        if len(ends):
            ends = np.append(ends, len(widths))
            same_nnz = ends.take(np.searchsorted(ends, np.arange(len(widths)), "right")).tolist()
        size, s = len(conflicts), 0
        while s < size:
            # The block's scalars, one step at a time.  It runs from step lo
            # while no step reads a row of V that an earlier one wrote, and a
            # recording step ends it; a step that must change V stands alone.
            lo, a0, afters, etas = s, a, [], []
            while True:
                t = t0 + s + 1
                eta = schedule.eta(t)
                shrunk = _shrink(reg, a, eta)
                if shrunk is None and s > lo:
                    break
                etas.append(eta)
                s += 1
                if shrunk is None:
                    break
                a = shrunk
                afters.append(a)
                if t % record_every == 0 or t == total or s == size or conflicts[s] >= lo:
                    break
                if (cuts[(s + 1) * R] - cuts[lo * R]) * c > _BLOCK_VALUES:
                    break
            lone, steps, r0, r1 = not afters, s - lo, lo * R, s * R
            n, e0, e1 = r1 - r0, cuts[r0], cuts[r1]
            idx, vals = features[e0:e1], values[e0:e1]
            starts = None if same_nnz is None or same_nnz[r0] >= r1 else offsets[r0 : r1 + 1] - e0
            groups = _groups(flat, idx, vals, n, starts)
            if starts is None:
                scores = (groups[0][3] @ groups[0][2])[:, 0]
            else:
                scores = np.empty((n, c))
                for members, _, grid, x in groups:
                    scores[members] = (x @ grid)[:, 0]
            scale = a0 if steps == 1 else np.repeat([a0, *afters[:-1]], R)[:, None]
            coef = loss.coef(scale * scores, labels[r0:r1])
            if lone:
                v_sq = _rescale(reg, a, v, etas[0])
                a = 1.0
                afters.append(a)
                groups = _groups(flat, idx, vals, n, starts)
            ratio = etas[0] / afters[0] if steps == 1 else np.repeat(np.divide(etas, afters), R)[:, None, None]
            if starts is None:
                ((_, where, grid, x),) = groups
                new = grid - ratio * (x.mT * coef[:, None, :])
                flat[where] = new
                new_sq, old_sq = _squares(new), _squares(grid)
            else:
                new_sq, old_sq = [0.0] * n, [0.0] * n
                for members, where, grid, x in groups:
                    new = grid - (ratio if steps == 1 else ratio[members]) * (x.mT * coef[members, None, :])
                    flat[where] = new
                    for i, sq_new, sq_old in zip(members.tolist(), _squares(new), _squares(grid)):
                        new_sq[i], old_sq[i] = sq_new, sq_old
            for j in range(steps):
                t = t0 + lo + j + 1
                recording = t % record_every == 0 or t == total
                if recording:
                    # An L-Lipschitz loss in the max norm has subgradients of l1 norm <= L.
                    duals = np.sum(np.abs(coef[j * R : j * R + R]), axis=1).tolist()
                    for r, dual in zip(chain_ids, duals):
                        if not dual <= loss.lipschitz_inf + _CERT_TOL:
                            raise CertificateError(
                                f"loss coefficients at step {t}{_chain(r)} have l1 norm {dual:.6g}, above the "
                                f"certified max-norm Lipschitz constant {loss.lipschitz_inf:.6g} (loss {loss.name})"
                            )
                changes = zip(v_sq, new_sq[j * R : j * R + R], old_sq[j * R : j * R + R])
                v_sq = [sq + (new - old) for sq, new, old in changes]
                _check_running(afters[j], v_sq, bounds, t, loss, reg)
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
