"""Stochastic subgradient descent for regularized empirical risk.

The objective is the empirical mean of a convex loss plus a strongly
convex regularizer.  Training starts at w = 0, samples one example index
uniformly (with replacement) per step, and returns the last iterate; a
"pass" is n steps, not an epoch shuffle.  For the Frobenius regularizer
with eta_t * sigma <= 1 the iterates provably stay inside the ball
||w_t||_F <= L * kappa / sigma (L the loss's certified max-norm Lipschitz
constant, kappa the largest input norm), a certificate every run enforces.

One loop advances R independent chains in lockstep.  ``iterates`` checks
its inputs and yields every chain's iterate at the recording steps, where
``train`` (its R = 1 case) records objectives and a curve scores rows
through ``mean_loss``.  Chain r keeps its own rows, PCG64 stream and
certificates, and equals a lone ``train`` on its rows bit for bit.  Every
chain stores its iterate lazily scaled, W_r = a * V_r (Pegasos,
Shalev-Shwartz et al. 2011; Bottou, "Stochastic Gradient Descent Tricks",
2012), with one scale a for all chains: the Frobenius shrink multiplies a,
so a step costs O(nnz * c) per chain.  A step that would take |a| below a
floor folds a into V, and every group (2, p) step rescales V's columns at
O(d * c); both leave a = 1.

Indices are drawn a chunk of steps at a time, each chain from its own
generator (numpy's bounded-integer stream does not depend on how the draws
are split); the scales are left folds with the sequential loop's bits.  A
full-width pool, whose rows all hold d entries, takes a chunk's rows from
X.data viewed as (n, d), and a ``for`` loop walks its steps' views: each
scores x . V_r, makes one call of the coefficient kernel (resolved once per
run by ``LossSpec.coef_kernel``) and subtracts rho_t * x^T coef from V, a
fixed run of ufuncs writing into the chunk's rows or a buffer.
Other pools gather a chunk's CSR entries, their feature indices offset by
r * d into V viewed as (R * d, c), and walk blocks: maximal runs of steps
in which no step reads a row of V an earlier one wrote.  A block scores its
nnz groups (``_plan``) with stacked (m, 1, k) @ (m, k, c) products over
their gathered rows of V and writes the rows back; a stacked product equals
each row's own and the update is elementwise, so blocking keeps every bit.
Recording steps end a block, a block of more than one step gathers at most
``_BLOCK_VALUES`` values of V, and a folding step stands alone.

Each step's change to ||V_r||_F^2 follows from its scores, coefficients
and ||x||^2, read from the pool's cached ``Dataset.row_sq_norms``
(``_norm_changes``), and their left fold is the running norm.  One check
per segment, up to each recording step and the chunk's end, certifies all
of them and the l-infinity duality ||coef_r||_1 <= L of each step, naming
the first failing step (and chain); a non-finite norm stops any run.
Recording steps check each exact norm.  Trajectories agree with the dense
``sgd_step`` oracle in ``tests/oracles.py`` to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import frobenius_norm, nnz_groups, predict, segments
from .dataio import Dataset
from .losses import LossSpec, check_out
from .regularizers import RegularizerSpec
from .seeding import generator

# Steps per draw chunk are this many entries over R times the widest row,
# bounding the gathered index and value buffers of a chunk.
_DRAW_CHUNK_ENTRIES = 1 << 15
# A block of steps gathers at most this many values of V (entries times c)
# unless it is one step, so its stacked temporaries stay cache-sized: at
# c = 256 blocks measured slower than single steps without this bound.
_BLOCK_VALUES = 1 << 13
# Evaluation chunks hold this many score entries and ranking pair slots.
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

    def eta(self, t):
        """eta_t for a step counter t, or for each of an integer array of them with the same bits."""
        if np.min(t) < 1:
            raise ValueError(f"step counter is 1-based, got {t}")
        if self.kind == "theorem":
            return 1.0 / (t * self.param)
        return 1.0 / (self.param * t + 1.0)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on, seed included.

    ``record_every`` of None records only the final step.
    """

    loss: LossSpec
    reg: RegularizerSpec
    schedule: StepSchedule
    total_steps: int
    seed: int
    record_every: int | None = None

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
    iterate_frobenius_norm: float


def _check_rows(rows, n: int, what: str) -> np.ndarray:
    """rows as a nonempty one-dimensional integer array of indices into n rows."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or not len(rows) or not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"{what} must be a nonempty array of row indices, got {rows.dtype} of shape {rows.shape}")
    if rows.min() < 0 or rows.max() >= n:
        raise ValueError(f"{what} must lie in [0, {n})")
    return rows


def evaluate_objective(w: np.ndarray, data: Dataset, loss: LossSpec, reg: RegularizerSpec) -> float:
    """Mean loss over the data plus the regularizer."""
    return mean_loss(w, data, loss) + reg.value(w)


def mean_loss(w: np.ndarray, data: Dataset, loss: LossSpec, rows: np.ndarray | None = None) -> float:
    """Mean loss over the given rows of data (by default every row), without the regularization term.

    Only a call over every row checks labels: callers that pass rows score
    a pool whose labels ``iterates`` checked, at each of its records.
    """
    if rows is None:
        loss.check_labels(data.y, data.c)
    rows = _check_rows(np.arange(len(data)) if rows is None else rows, len(data), "rows of data")
    if np.shape(w) != (data.d, data.c):
        raise ValueError(f"data has dimensions {(data.d, data.c)}, the weight matrix {np.shape(w)}")
    return float(np.sum(_row_losses(w, data, loss, rows)) / len(rows))


def _row_losses(w: np.ndarray, data: Dataset, loss: LossSpec, rows: np.ndarray) -> np.ndarray:
    """The loss of each of the given rows of data at w, shape (len(rows),).

    Scores come from one ``predict`` call per chunk of rows.  A chunk holds
    at most ``_EVAL_CHUNK_ENTRIES`` entries of the arrays its loss call
    allocates (``LossSpec.work``), or one row; a row's loss does not depend
    on its chunk.
    """
    y, n = data.y.take(rows, axis=0), len(rows)
    work = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(loss.work(y, data.c), out=work[1:])
    values, lo = np.empty(n), 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(work, work[lo] + _EVAL_CHUNK_ENTRIES, "right")) - 1)
        values[lo:hi] = loss.value(predict(w, data.X, rows[lo:hi]), y[lo:hi])
        lo = hi
    return values


def _gather(data: Dataset, draws: np.ndarray):
    """The pool rows each chain draws at each step of a chunk, laid out step by step.

    draws (steps, R) holds the drawn rows of data.  Returns (offsets,
    features, values): the entries of chain r at step s are
    features[offsets[s*R + r] : offsets[s*R + r + 1]] (its feature indices
    offset by r * d) and the same slice of values.
    """
    steps, R = draws.shape
    offsets, source = segments(data.X.indptr, draws.ravel())
    shift = np.repeat(np.tile(np.arange(R) * data.d, steps), np.diff(offsets))
    return offsets, np.add(data.X.indices.take(source), shift, dtype=np.intp), data.X.data.take(source)


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


def _chunks(data: Dataset, rows: list[np.ndarray], configs: list[TrainConfig]):
    """The draws of every chain, one chunk of steps at a time.

    Yields (t0, offsets, features, values, drawn, conflicts) per chunk,
    for its steps t0 + 1, t0 + 2, ...: drawn holds the drawn pool rows in
    (step, chain) order, conflicts comes from ``_conflicts`` and the rest
    from ``_gather``.  Chain r draws indices into rows[r] uniformly from a
    PCG64 seeded with its config's seed.  In a full-width pool values is
    the drawn rows, shape (steps * R, d), and the rest is None.
    """
    R, X = len(rows), data.X
    rngs = [generator(config.seed) for config in configs]
    widest = max(int(np.diff(X.indptr).take(chain).max()) for chain in rows)
    full = data.d > 0 and X.indptr[-1] == len(data) * data.d
    size = max(1, _DRAW_CHUNK_ENTRIES // (R * max(1, widest)))
    total = configs[0].total_steps
    for t0 in range(0, total, size):
        k = min(size, total - t0)
        draws = np.stack([chain.take(rng.integers(0, len(chain), size=k)) for rng, chain in zip(rngs, rows)], axis=1)
        drawn = draws.ravel()
        if full:
            yield t0, None, None, X.data.reshape(len(data), data.d).take(drawn, axis=0), drawn, None
        else:
            offsets, features, values = _gather(data, draws)
            yield t0, offsets, features, values, drawn, _conflicts(offsets, features, R)


def _chain(r: int | None) -> str:
    return "" if r is None else f" in chain {r}"


def _check_iterate(norm: float, bound: float, t: int, loss: LossSpec, reg: RegularizerSpec, r=None):
    """The certificate on one chain's iterate norm; r names the chain when R > 1."""
    if not math.isfinite(norm):
        raise CertificateError(f"iterate norm became {norm} at step {t}{_chain(r)} (loss {loss.name}, {reg.name})")
    if norm > bound:
        raise CertificateError(
            f"iterate norm {norm:.6g} exceeded the certified bound "
            f"{bound:.6g} at step {t}{_chain(r)} (loss {loss.name}, sigma {reg.sigma})"
        )


def _check_segment(a: np.ndarray, v_sq: np.ndarray, bounds: np.ndarray, t: int, loss: LossSpec, reg: RegularizerSpec):
    """The certificate on the running norms |a[j]| * sqrt(|v_sq[j, r]|) after steps t, t + 1, ...

    a (steps,) holds the scale after each step and v_sq (steps, R) each
    chain's running ||V_r||_F^2; the first failing step and chain raise.
    """
    with np.errstate(over="ignore"):  # abs: rounding can leave a near-zero running sum just below zero
        norms = np.abs(a)[:, None] * np.sqrt(np.abs(v_sq))
    failed = np.flatnonzero(~(norms <= bounds) | np.isinf(norms))  # NaN fails the comparison
    if failed.size:
        j, r = divmod(int(failed[0]), len(bounds))
        _check_iterate(float(norms[j, r]), float(bounds[r]), t + j, loss, reg, r if len(bounds) > 1 else None)


def _scales(reg: RegularizerSpec, a: float, eta: np.ndarray):
    """The scale before and after each step of a chunk that starts at scale a, and the steps that fold.

    A Frobenius step multiplies a by 1 - eta_t * sigma, a left fold
    (``np.multiply.accumulate``) with the bits of one step at a time.  A
    step that would take |a| below ``_SCALE_FLOOR`` (or to NaN) folds
    instead: it changes V (``_rescale``) and leaves a = 1, as every group
    (2, p) step does.
    """
    after, folds, j = np.ones(len(eta)), [], 0
    if reg.kind != "frobenius":
        return after, after, list(range(len(eta)))
    start, shrink = a, 1.0 - eta * reg.sigma
    with np.errstate(over="ignore", invalid="ignore"):
        while j < len(eta):
            run = np.multiply.accumulate(np.concatenate(([a], shrink[j:])))[1:]
            low = np.flatnonzero(~(np.abs(run) >= _SCALE_FLOOR))
            k = int(low[0]) if low.size else len(run)
            after[j : j + k] = run[:k]
            folds += [j + k] if low.size else []
            j, a = j + k + 1, 1.0
    return np.concatenate(([start], after[:-1])), after, folds


def _rescale(reg: RegularizerSpec, a: float, v: np.ndarray, eta: float) -> np.ndarray:
    """The regularizer's step on V when a cannot carry it, after which a is 1; returns each ||V_r||_F^2.

    Frobenius folds the shrunk scale into V (an exact or near-zero shrink,
    as eta_1 * sigma = 1 under the theorem schedule, so a is never divided
    by it); group (2, p) rescales each chain's columns.
    """
    if reg.kind == "frobenius":
        v *= a * (1.0 - eta * reg.sigma)
    else:
        for chain in v:
            chain *= 1.0 - eta * reg.column_scale(chain)
    return np.sum(v * v, axis=(1, 2))


def _norm_changes(scores: np.ndarray, coef: np.ndarray, x_sq: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Each drawn row's change to ||V_r||_F^2, from its raw scores x . V_r, coefficients, ||x||^2 and rho.

    V_r loses rho * x^T coef: -2 rho <x . V_r, coef> + rho^2 ||x||^2 ||coef||^2.
    An infinite coefficient gives +inf, as the iterate's norm does, not inf - inf.
    """
    quad = rho * rho * x_sq * np.add.reduce(coef * coef, axis=1)
    return np.where(np.isinf(quad), quad, quad - 2.0 * rho * np.add.reduce(scores * coef, axis=1))


def _plan(offsets: np.ndarray, features: np.ndarray, values: np.ndarray, lows: list[int]):
    """A chunk's drawn rows grouped by nnz, for blocks that start at drawn rows lows, then n.

    Returns (members, where, xs, firsts) per group: its drawn rows, their
    indices into V viewed as (R * d, c) and values, shaped (m, k) and
    (m, 1, k), and firsts[b] the position in members of block b's first
    member.  A group of every row is views.
    """
    n = len(offsets) - 1
    groups = []
    for members, starts, k in nnz_groups(offsets):
        if len(members) == n:
            where, xs = features.reshape(n, k), values.reshape(n, 1, k)
        else:
            entries = starts[:, None] + np.arange(k)
            where, xs = features.take(entries), values.take(entries)[:, None, :]
        groups.append((members, where, xs, np.searchsorted(members, lows).tolist()))
    return groups


def _block_edges(offsets: np.ndarray, conflicts: list[int], R: int, c: int, ends: list[int]) -> list[int]:
    """The first step of each block of a chunk, then the chunk's size.

    A block stops before the first step that reads a row of V an earlier
    step of the block wrote, before its values of V pass ``_BLOCK_VALUES``,
    and at the first of the sorted ends past its start; the last end is
    the chunk's size.
    """
    size = (len(offsets) - 1) // R
    # Step s ends every block that starts at or before conflicts[s] (< s):
    # a block from lo ends at the least such s, a suffix minimum.
    stops = np.full(size + 1, size)
    np.minimum.at(stops, np.add(conflicts, 1), np.arange(size))  # a step without conflicts lands on 0
    stops = np.minimum.accumulate(stops[::-1])[::-1][1:]
    fits = np.searchsorted(offsets[R::R], offsets[:-1:R] + _BLOCK_VALUES // c, "right")
    limits = np.minimum(stops, np.maximum(np.arange(1, size + 1), fits)).tolist()
    edges = [0]
    for end in ends:
        while edges[-1] < end:
            edges.append(min(end, limits[edges[-1]]))
    return edges


def _bounds(data: Dataset, rows: list[np.ndarray], config: TrainConfig) -> np.ndarray:
    """Each chain's certified bound on ||W_r||_F: L * kappa_r / sigma, kappa_r the largest norm of its rows, or inf.

    Valid for the Frobenius regularizer whenever eta_1 * sigma <= 1 (both
    schedules qualify at their usual parameters), since then
    ||w_{t+1}|| <= max(||w_t||, L*kappa/sigma).  Otherwise only finiteness is checked.
    """
    loss, reg = config.loss, config.reg
    if reg.kind == "frobenius" and config.schedule.eta(1) * reg.sigma <= 1.0 + 1e-12:
        kappas = [math.sqrt(float(data.row_sq_norms.take(chain).max())) for chain in rows]
        return np.array([loss.lipschitz_inf * kappa / reg.sigma + _CERT_TOL for kappa in kappas])
    return np.full(len(rows), math.inf)


def _steps(data: Dataset, rows: list[np.ndarray], configs: list[TrainConfig]):
    """SGD on W_r = a * V_r for every chain: ``iterates`` on checked rows."""
    config = configs[0]
    loss, reg, schedule, total = config.loss, config.reg, config.schedule, config.total_steps
    record_every = config.record_every or total
    R, d, c = len(rows), data.d, data.c
    bounds, chain_ids = _bounds(data, rows, config), (list(range(R)) if R > 1 else [None])
    a, v, v_sq = 1.0, np.zeros((R, d, c)), np.zeros(R)
    flat = v.reshape(R * d, c)
    labels, kernel = loss.plan(data.y), loss.coef_kernel()
    for t0, offsets, features, values, drawn, conflicts in _chunks(data, rows, configs):
        n, full, size = len(drawn), offsets is None, len(drawn) // R
        eta = schedule.eta(np.arange(t0 + 1, t0 + size + 1))
        before, after, folds = _scales(reg, a, eta)
        a = float(after[-1])
        # Drawn rows (in step, chain order) score at the scale before their step and update with rho = eta_t / a.
        rho, x_sq = np.repeat(ratio := eta / after, R), data.row_sq_norms.take(drawn)
        # Row 0 of sq holds each chain's ||V_r||^2 before the chunk and row j + 1 that after a fold at step j;
        # each segment adds its steps' changes, and a left fold from each start gives the running sums.
        scores, coefs = np.zeros((n, c)), np.empty((n, c))  # rows without entries score zero
        check_out(coefs, scores.shape)  # each kernel call's out is a row slice of coefs shaped like its scores
        sq = np.concatenate([v_sq[None], np.zeros((size, R))])
        checks = {size, *range(record_every - t0 % record_every, size, record_every)}
        ends = sorted(checks.union(folds, [f + 1 for f in folds]) - {0})
        folded = set(folds)
        if full:  # a step reads every row its chain's last step wrote, so each step is a block
            blocks, scaled, update = loss.blocks(labels, drawn, range(0, n + 1, R)), np.empty((R, c)), np.empty((R, d, c))
            xs, xt, ss = values.reshape(size, R, 1, d), values.reshape(size, R, d, 1), scores.reshape(size, R, 1, c)
            sc, cs, cc = scores.reshape(size, R, c), coefs.reshape(size, R, 1, c), coefs.reshape(size, R, c)
            views = (range(size), xs, xt, ss, sc, cs, cc, blocks, before.tolist(), ratio.tolist())  # one entry per step
        else:
            scale = np.repeat(before, R)[:, None]
            edges = _block_edges(offsets, conflicts, R, c, ends)
            lows = [lo * R for lo in edges]
            blocks, plan = loss.blocks(labels, drawn, lows), _plan(offsets, features, values, lows)

            def score(b, r0, r1):  # block b's drawn rows r0 to r1 - 1 by group; returns (rows, rows of V, their copy, x)
                grids = []
                for members, where, x, firsts in plan:
                    i0, i1 = firsts[b], firsts[b + 1]
                    if i0 < i1:
                        own = slice(None) if i1 - i0 == r1 - r0 else members[i0:i1] - r0
                        grids.append((own, where[i0:i1], flat.take(where[i0:i1], axis=0), x[i0:i1]))
                for own, _, grid, x in grids:
                    scores[r0:r1][own] = (x @ grid)[:, 0]
                return grids

        b, g0 = 0, 0
        for lo, end in zip([0, *ends], ends):
            with np.errstate(all="ignore"):  # a non-finite iterate raises below, naming its step
                if full:  # steps lo to end - 1, each a fixed run of ufuncs writing into the chunk's rows or a buffer
                    for j, x, x_t, s, s_c, c_s, c_c, block, a_j, r in zip(*(view[lo:end] for view in views)):
                        np.matmul(x, v, out=s)
                        kernel(np.multiply(a_j, s_c, out=scaled), block, c_c)
                        if j in folded:  # the norm change starts from the rescaled V
                            sq[j + 1] = _rescale(reg, float(before[j]), v, float(eta[j]))
                            np.matmul(x, v, out=s)
                        np.multiply(np.multiply(x_t, c_s, out=update), r, out=update)  # V -= rho * x^T coef
                        np.subtract(v, update, out=v)
                else:
                    while edges[b] < end:  # one block: steps edges[b] to edges[b + 1] - 1 in one batched pass
                        j, r0, r1 = edges[b], lows[b], lows[b + 1]
                        grids = score(b, r0, r1)
                        coef = kernel(scale[r0:r1] * scores[r0:r1], blocks[b], coefs[r0:r1])
                        if j in folded:  # the norm change starts from the rescaled V
                            sq[j + 1] = _rescale(reg, float(before[j]), v, float(eta[j]))
                            grids = score(b, r0, r1)
                        for own, where, grid, x in grids:
                            grid -= rho[r0:r1, None, None][own] * (x.mT * coef[own, None, :])
                            flat[where] = grid
                        b += 1
            if end not in checks:
                continue
            t = t0 + end
            recording = t % record_every == 0 or t == total
            restarts = [g0, *(f + 1 for f in folds if g0 <= f < end), end + 1]
            with np.errstate(over="ignore", invalid="ignore"):
                r0, r1 = g0 * R, end * R
                changes = _norm_changes(scores[r0:r1], coefs[r0:r1], x_sq[r0:r1], rho[r0:r1])
                sq[g0 + 1 : end + 1] += changes.reshape(-1, R)
                for s0, s1 in zip(restarts, restarts[1:]):
                    np.add.accumulate(sq[s0:s1], axis=0, out=sq[s0:s1])
            # An L-Lipschitz loss in the max norm has subgradients of l1 norm <= L; a non-finite
            # one makes the running norm non-finite at its step, and the norm check names it.
            duals = np.add.reduce(np.abs(coefs[r0:r1]), axis=1)
            over = np.flatnonzero(np.isfinite(duals) & (duals > loss.lipschitz_inf + _CERT_TOL))
            last = g0 + int(over[0]) // R if over.size else end  # at a step failing both, duality wins
            if last > g0:
                _check_segment(after[g0:last], sq[g0 + 1 : last + 1], bounds, t0 + g0 + 1, loss, reg)
            if over.size:
                raise CertificateError(
                    f"loss coefficients at step {t0 + last + 1}{_chain(chain_ids[over[0] % R])} have l1 norm "
                    f"{duals[over[0]]:.6g}, above the certified max-norm Lipschitz constant "
                    f"{loss.lipschitz_inf:.6g} (loss {loss.name})"
                )
            g0 = end
            if not recording:
                continue
            w = float(after[end - 1]) * v
            sq[end] = np.sum(v * v, axis=(1, 2))
            norms = [frobenius_norm(w_r) for w_r in w]
            for r, norm, bound in zip(chain_ids, norms, bounds.tolist()):
                _check_iterate(norm, bound, t, loss, reg, r)
            yield t, w, norms
        v_sq = sq[size].copy()


def iterates(data: Dataset, rows: list[np.ndarray], configs: list[TrainConfig]):
    """One SGD chain per (rows, config) pair in lockstep over the pool data, as a generator.

    Yields (t, W, norms) at each recording step t: W (R, d, c) holds every
    chain's iterate and norms each ||W_r||_F.  Chain r draws from rows[r],
    an integer array of pool rows.  The configs must agree on all but
    seed.  Data, labels and rows are checked on this call.
    """
    if not configs:
        raise ValueError("need at least one chain")
    if len(rows) != len(configs):
        raise ValueError(f"need one config per chain, got {len(rows)} row arrays and {len(configs)} configs")
    shared = [(config.loss, config.reg, config.schedule, config.total_steps, config.record_every) for config in configs]
    for r, key in enumerate(shared):
        if key != shared[0]:
            raise ValueError(f"config {r} differs from config 0 in loss, regularizer, schedule, total_steps or record_every")
    rows = [_check_rows(chain, len(data), f"rows of chain {r}") for r, chain in enumerate(rows)]
    configs[0].loss.check_labels(data.y, data.c)
    return _steps(data, rows, configs)


def train(data: Dataset, config: TrainConfig) -> tuple[np.ndarray, list[RunRecord]]:
    """Run SGD from w = 0 over every row of data and return the last iterate with its records.

    Records fall every ``record_every`` steps and at the final step, each
    holding the objective over every row; a fixed config reproduces the
    run bit for bit.  It is ``iterates`` with one chain.
    """
    rows, records = np.arange(len(data)), []
    for t, w, norms in iterates(data, [rows], [config]):
        records.append(RunRecord(t, mean_loss(w[0], data, config.loss, rows) + config.reg.value(w[0]), norms[0]))
    return w[0], records
