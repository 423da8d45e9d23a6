import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import spearmanr

import oracles
import vvlearn.losses as losses_module
import vvlearn.optimizer as optimizer_module
from vvlearn.core import frobenius_norm
from vvlearn.dataio import Dataset, split, synth_gen
from vvlearn.losses import HINGE, LOGISTIC, LossSpec, standard_loss_specs
from vvlearn.optimizer import (
    CertificateError,
    StepSchedule,
    TrainConfig,
    evaluate_objective,
    iterates,
    mean_loss,
    train,
)
from vvlearn.regularizers import RegularizerSpec
from vvlearn.seeding import generator

MLOG = LossSpec.multinomial_logistic()
LOGISTIC_SUBSET = LossSpec.subset(LOGISTIC)


def tiny_dataset(n=40, d=5, c=3, seed=0, task="mcc"):
    return synth_gen(n=n, d=d, c=c, task=task, noise=0.1, seed=seed)


def pooled(*datasets):
    """One pool holding the datasets back to back, and the rows of each in it."""
    first = datasets[0]
    X = sp.vstack([oracles.scipy_csr(data.X) for data in datasets], format="csr")
    pool = Dataset(X, np.concatenate([data.y for data in datasets]), first.c, first.task)
    bounds = np.cumsum([0] + [len(data) for data in datasets])
    return pool, [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def set_bound(monkeypatch, r, bound):
    """Give chain r the certified bound on its iterate norm, whatever its rows' norms."""
    bounds = optimizer_module._bounds

    def patched(data, rows, config):
        out = bounds(data, rows, config)
        out[r] = bound
        return out

    monkeypatch.setattr(optimizer_module, "_bounds", patched)


def patch_kernel(monkeypatch, wrap):
    """Make the coefficient kernel the step walks resolve call wrap(kernel, S, y, out), kernel the loss's own."""
    resolve = LossSpec.coef_kernel
    monkeypatch.setattr(LossSpec, "coef_kernel", lambda self: partial(wrap, resolve(self)))


def single_row(x, y, c=None):
    """A one-row multiclass dataset with dense input x and class y."""
    return Dataset(np.array([x], dtype=float), np.array([y]), c or y + 2, "mcc")


def loss_grad(loss, w, data, i=0):
    """The dense (d, c) loss subgradient at row i."""
    x = oracles.scipy_csr(data.X)[i].toarray()
    return x.T * loss.coef(x @ w, data.y[i : i + 1])


class TestStepSchedule:
    def test_theorem_values(self):
        s = StepSchedule.theorem(0.5)
        assert s.eta(1) == 2.0
        assert s.eta(4) == 1.0 / (4 * 0.5)

    def test_experiment_values(self):
        s = StepSchedule.experiment(0.01)
        assert s.eta(1) == 1.0 / 1.01
        assert s.eta(100) == 1.0 / (0.01 * 100 + 1.0)

    @pytest.mark.parametrize("make", [StepSchedule.theorem, StepSchedule.experiment])
    def test_positive_and_nonincreasing(self, make):
        s = make(0.3)
        etas = [s.eta(t) for t in range(1, 200)]
        assert all(e > 0 for e in etas)
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_param_positive(self):
        with pytest.raises(ValueError):
            StepSchedule.theorem(0.0)
        with pytest.raises(ValueError):
            StepSchedule.experiment(-1.0)

    def test_param_and_first_step_finite(self):
        with pytest.raises(ValueError):
            StepSchedule.theorem(np.inf)
        with pytest.raises(ValueError):
            StepSchedule.experiment(np.inf)
        with pytest.raises(ValueError, match="finite eta_1"):
            StepSchedule.theorem(1e-320)  # eta_1 = 1 / 1e-320 overflows
        assert StepSchedule.experiment(1e-320).eta(1) == 1.0

    @pytest.mark.parametrize("t", [0, np.array([3, 0, 2])])
    def test_step_counter_is_one_based(self, t):
        with pytest.raises(ValueError, match="step counter is 1-based"):
            StepSchedule.theorem(0.5).eta(t)



def sequential_scales(reg, a, etas):
    """The scale before and after each step and the folding steps, one step at a time."""
    before, after, folds = [], [], []
    for j, eta in enumerate(etas):
        before.append(a)
        shrunk = a * (1.0 - eta * reg.sigma)
        if reg.kind == "frobenius" and abs(shrunk) >= optimizer_module._SCALE_FLOOR:
            a = shrunk
        else:
            a = 1.0
            folds.append(j)
        after.append(a)
    return before, after, folds


class TestChunkScalars:
    @pytest.mark.parametrize("kind", ["theorem", "experiment"])
    def test_array_eta_equals_eta_bit_for_bit(self, kind):
        rng = np.random.default_rng(5)
        firsts = [1, 2, 381, *rng.integers(1, 10**7, size=40).tolist(), 10**7 - 7]
        for param in [*np.geomspace(1e-4, 1e2, 13).tolist(), *rng.uniform(1e-4, 1e2, size=5).tolist()]:
            schedule = StepSchedule(kind, param)
            for t in firsts:
                want = np.array([schedule.eta(t + j) for j in range(8)])
                assert schedule.eta(np.arange(t, t + 8)).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "schedule, reg, folds",
        [
            (StepSchedule.theorem(0.05), RegularizerSpec.frobenius(0.05), [0]),  # step 1
            (StepSchedule.experiment(0.01), RegularizerSpec.frobenius(0.01), []),
            (StepSchedule.theorem(0.05 / 3.5), RegularizerSpec.frobenius(0.05), [380]),  # step 381
            (StepSchedule.theorem(0.05), RegularizerSpec.l2p(0.05, 1.5), list(range(1000))),  # every step changes V
        ],
        ids=["theorem", "experiment", "eta-sigma-above-1", "l2p"],
    )
    def test_accumulated_scale_equals_sequential_shrink(self, schedule, reg, folds):
        etas = [schedule.eta(t) for t in range(1, 1001)]
        want = sequential_scales(reg, 1.0, etas)
        assert want[2] == folds
        for size in (1000, 97, 7):  # chunkings of the same run
            before, after, folds, a = [], [], [], 1.0
            for t0 in range(0, 1000, size):
                eta = schedule.eta(np.arange(t0 + 1, min(t0 + size, 1000) + 1))
                chunk_before, chunk_after, chunk_folds = optimizer_module._scales(reg, a, eta)
                before += chunk_before.tolist()
                after += chunk_after.tolist()
                folds += [t0 + f for f in chunk_folds]
                a = after[-1]
            assert np.array(before).tobytes() == np.array(want[0]).tobytes()
            assert np.array(after).tobytes() == np.array(want[1]).tobytes()
            assert folds == want[2]


class TestSgdStep:
    def test_zero_model_frobenius_is_pure_loss_step(self):
        data = single_row([1.0, -2.0], 1, c=3)
        w = np.zeros((2, 3))
        reg = RegularizerSpec.frobenius(0.7)
        stepped = oracles.sgd_step(w, data, 0, MLOG, reg, 0.25)
        expected = -0.25 * loss_grad(MLOG, w, data)
        assert np.allclose(stepped, expected, atol=1e-15)

    def test_eta_zero_is_identity(self):
        data = single_row([1.0], 0)
        w = np.array([[0.3, -0.2]])
        out = oracles.sgd_step(w, data, 0, MLOG, RegularizerSpec.frobenius(1.0), 0.0)
        assert np.array_equal(out, w)

    def test_hand_derived_softmax_step(self):
        # c=2, d=1, x=(1), y=0, sigma=1, eta=1 from the zero matrix:
        # softmax at zero is (1/2, 1/2), so the update is (+1/2, -1/2)
        data = single_row([1.0], 0)
        w = np.zeros((1, 2))
        out = oracles.sgd_step(w, data, 0, MLOG, RegularizerSpec.frobenius(1.0), 1.0)
        assert np.allclose(out, np.array([[0.5, -0.5]]), atol=1e-15)

    def test_input_not_mutated(self):
        data = single_row([1.0, 2.0], 0)
        w = np.full((2, 2), 0.5)
        before = w.copy()
        oracles.sgd_step(w, data, 0, MLOG, RegularizerSpec.frobenius(0.5), 0.1)
        assert np.array_equal(w, before)

    def test_dimension_mismatch(self):
        data = single_row([1.0, 2.0, 3.0], 0)
        with pytest.raises(ValueError):
            oracles.sgd_step(np.zeros((2, 2)), data, 0, MLOG, RegularizerSpec.frobenius(0.5), 0.1)


# Row index arrays that every function taking rows of a 40-row dataset rejects, with the error's ending.
BAD_ROWS = pytest.mark.parametrize(
    "bad, match",
    [
        (np.array([], dtype=int), "must be a nonempty array"),
        (np.array([3, 40]), r"must lie in \[0, 40\)"),
        (np.array([-1, 3]), r"must lie in \[0, 40\)"),
        (np.array([0.0, 1.0]), "must be a nonempty array of row indices"),
        (np.array([[0, 1]]), "must be a nonempty array"),
    ],
    ids=["empty", "past-the-end", "negative", "floats", "two-dimensional"],
)


class TestEvaluateObjective:
    def test_zero_model_log_c(self):
        data = tiny_dataset(c=4)
        w = np.zeros((data.d, data.c))
        got = evaluate_objective(w, data, MLOG, RegularizerSpec.frobenius(0.1))
        assert np.isclose(got, np.log(4), atol=1e-12)

    def test_single_example_identity(self):
        data = tiny_dataset(n=2)
        first = oracles.take(data, [0])
        w = np.full((data.d, data.c), 0.2)
        reg = RegularizerSpec.frobenius(0.3)
        got = evaluate_objective(w, first, MLOG, reg)
        scores = oracles.scipy_csr(first.X).toarray()[0] @ w
        assert np.isclose(got, oracles.row_value(MLOG, scores, first.y[0]) + reg.value(w), atol=1e-15)

    def test_naive_two_pass_oracle(self):
        rng = np.random.default_rng(6)
        data = tiny_dataset(n=37)
        reg = RegularizerSpec.l2p(0.4, 1.5)
        for _ in range(10):
            w = rng.standard_normal((data.d, data.c))
            dense = oracles.scipy_csr(data.X).toarray()
            values = [oracles.row_value(MLOG, dense[i] @ w, data.y[i]) for i in range(len(data))]
            naive = sum(values) / len(values) + reg.value(w)
            assert np.isclose(evaluate_objective(w, data, MLOG, reg), naive, atol=1e-12)

    def test_mean_loss_excludes_regularizer(self):
        data = tiny_dataset(n=8)
        w = np.full((data.d, data.c), 0.3)
        reg = RegularizerSpec.frobenius(0.5)
        assert np.isclose(
            evaluate_objective(w, data, MLOG, reg) - mean_loss(w, data, MLOG),
            reg.value(w),
            atol=1e-12,
        )

    def test_empty_data_rejected(self):
        empty = Dataset(sp.csr_matrix((0, 2)), np.zeros(0, dtype=int), 2, "mcc")
        with pytest.raises(ValueError):
            evaluate_objective(np.zeros((2, 2)), empty, MLOG, RegularizerSpec.frobenius(0.1))

    @BAD_ROWS
    def test_bad_rows_rejected(self, bad, match):
        data = tiny_dataset()
        with pytest.raises(ValueError, match="rows of data " + match):
            mean_loss(np.zeros((data.d, data.c)), data, MLOG, bad)


class TestBatchedEvaluation:
    @pytest.mark.parametrize(
        "spec",
        standard_loss_specs() + [LossSpec.topk_svm(3), LossSpec.topk_svm(4)],
        ids=lambda s: s.name,
    )
    def test_matches_per_row_oracle(self, spec):
        data = sparse_wide_dataset("mlc" if spec.is_multilabel else "mcc", n=300, d=60)
        rng = np.random.default_rng(8)
        dense = oracles.scipy_csr(data.X).toarray()
        reg = RegularizerSpec.frobenius(0.1)
        for _ in range(3):
            w = rng.standard_normal((data.d, data.c))
            values = [oracles.row_value(spec, dense[i] @ w, data.y[i]) for i in range(len(data))]
            expected = sum(values) / len(values) + reg.value(w)
            got = evaluate_objective(w, data, spec, reg)
            assert abs(got - expected) <= 1e-12 * abs(expected)
            assert evaluate_objective(w, data, spec, reg) == got  # bitwise repeatable

    def test_chunks_do_not_change_values(self, monkeypatch):
        data = sparse_wide_dataset("mlc", n=300, d=60)
        w = np.random.default_rng(9).standard_normal((data.d, data.c))
        spec = LossSpec.ranking(HINGE)
        whole = mean_loss(w, data, spec)
        monkeypatch.setattr(optimizer_module, "_EVAL_CHUNK_ENTRIES", 7 * data.c * data.c)
        assert mean_loss(w, data, spec) == whole

    def test_weight_shape_checked(self):
        data = tiny_dataset()
        with pytest.raises(ValueError):
            mean_loss(np.zeros((data.d, data.c + 1)), data, MLOG)

    def test_chunks_hold_the_work_present(self, monkeypatch):
        # c = 256: half the rows have one positive (255 pairs, listed in the
        # plan), half are balanced (about 16,000 pairs, scored on their own)
        c, rng = 256, np.random.default_rng(12)
        base = sparse_wide_dataset("mlc", n=2000, d=300, c=4)
        y = np.where(rng.random((2000, c)) < 0.5, 1, -1).astype(np.int8)
        y[::2] = -1
        y[::2, 0] = 1
        y[:, 1], y[:, 2] = 1, -1
        data = Dataset(base.X, y, c, "mlc")
        w = np.random.default_rng(13).standard_normal((data.d, c))
        spec = LossSpec.ranking(HINGE)
        calls, predict = [], optimizer_module.predict
        monkeypatch.setattr(optimizer_module, "predict", lambda w, X, rows: calls.append(len(rows)) or predict(w, X, rows))
        got = mean_loss(w, data, spec)
        positives = np.sum(y > 0, axis=1)
        pairs = positives * (c - positives)
        work = c * len(data) + int(np.sum(np.where(pairs <= losses_module._FLAT_PAIRS, pairs + 1, 0)))
        assert sum(calls) == len(data) and len(calls) <= -(-work // 2**16) + 1
        monkeypatch.setattr(optimizer_module, "_EVAL_CHUNK_ENTRIES", 1 << 40)
        assert mean_loss(w, data, spec) == got


class TestLabelsCheckedUpFront:
    @BAD_ROWS
    def test_bad_rows_fail_before_training(self, monkeypatch, bad, match):
        data = tiny_dataset()
        steps = []
        monkeypatch.setattr(optimizer_module, "_chunks", lambda *a: steps.append(1) or iter(()))
        configs = chain_configs(
            MLOG, RegularizerSpec.frobenius(0.05), StepSchedule.theorem(0.05), 10, record_every=5, repetitions=2
        )
        with pytest.raises(ValueError, match="rows of chain 1 " + match):
            iterates(data, [np.arange(20), bad], configs)
        assert steps == []

    def test_single_sign_row_fails_before_training(self, monkeypatch):
        data = tiny_dataset(task="mlc")
        y = data.y.copy()
        y[7] = 1
        bad = Dataset(data.X, y, data.c, "mlc")
        steps = []
        monkeypatch.setattr(optimizer_module, "_chunks", lambda *a: steps.append(1) or iter(()))
        config = config_for(bad, total_steps=10, loss=LossSpec.ranking(HINGE))
        with pytest.raises(ValueError, match="row 7"):
            train(bad, config)
        assert steps == []

    def test_one_class_fails_for_multiclass_losses(self):
        one = Dataset(np.ones((3, 2)), np.zeros(3, dtype=int), 1, "mcc")
        with pytest.raises(ValueError, match="at least 2 components"):
            train(one, config_for(one, total_steps=5))


def config_for(data, total_steps, seed=0, sigma=0.05, record_every=None, loss=MLOG):
    return TrainConfig(
        loss=loss,
        reg=RegularizerSpec.frobenius(sigma),
        schedule=StepSchedule.theorem(sigma),
        total_steps=total_steps,
        seed=seed,
        record_every=record_every,
    )


class TestTrain:
    def test_single_step_reproduces_sgd_step(self):
        data = tiny_dataset()
        config = config_for(data, total_steps=1, seed=9)
        w, records = train(data, config)
        first_index = int(generator(9).integers(0, len(data), size=1)[0])
        manual = oracles.sgd_step(
            np.zeros((data.d, data.c)), data, first_index, MLOG, config.reg, config.schedule.eta(1)
        )
        assert np.array_equal(w, manual)
        assert len(records) == 1 and records[0].step == 1

    def test_same_seed_bitwise_equal(self):
        data = tiny_dataset()
        config = config_for(data, total_steps=200, seed=3, record_every=50)
        w1, r1 = train(data, config)
        w2, r2 = train(data, config)
        assert np.array_equal(w1, w2)
        assert r1 == r2

    def test_different_seed_differs(self):
        data = tiny_dataset()
        w1, _ = train(data, config_for(data, total_steps=50, seed=1))
        w2, _ = train(data, config_for(data, total_steps=50, seed=2))
        assert not np.array_equal(w1, w2)

    def test_record_cadence_and_final_step(self):
        data = tiny_dataset()
        config = config_for(data, total_steps=130, record_every=50)
        _, records = train(data, config)
        assert [r.step for r in records] == [50, 100, 130]

    def test_records_are_finite_and_norm_correct(self):
        data = tiny_dataset()
        config = config_for(data, total_steps=80, record_every=40)
        w, records = train(data, config)
        for r in records:
            assert np.isfinite(r.empirical_objective)
            assert np.isfinite(r.iterate_frobenius_norm)
        assert np.isclose(records[-1].iterate_frobenius_norm, frobenius_norm(w), atol=1e-15)

    def test_empty_data_rejected(self):
        empty = Dataset(sp.csr_matrix((0, 5)), np.zeros(0, dtype=int), 3, "mcc")
        with pytest.raises(ValueError):
            train(empty, config_for(tiny_dataset(), total_steps=1))


def sparse_wide_dataset(task, n=100, d=200, nnz=5, c=6, seed=0):
    """synth_gen rows scattered onto nnz random coordinates, so d >> nnz."""
    base = synth_gen(n=n, d=nnz, c=c, task=task, noise=0.1, seed=seed)
    rng = generator(seed + 1)
    cols = np.concatenate([np.sort(rng.choice(d, size=nnz, replace=False)) for _ in range(n)])
    X = sp.csr_matrix((base.X.data, cols, base.X.indptr), shape=(n, d))
    return Dataset(X, base.y, c, task)


def dense_replay(data, config):
    """The iterate after the last step and ||w_t||_F at every step t,
    rebuilt from plain sgd_step calls.

    Each step's labels are planned up front, one block per step, so a
    ranking row is not planned again at every step.
    """
    indices = generator(config.seed).integers(0, len(data), size=config.total_steps)
    labels = config.loss.blocks(data.y, indices, np.arange(len(indices) + 1), data.c)
    w = np.zeros((data.d, data.c))
    norms = []
    for t, i in enumerate(indices, start=1):
        w = oracles.sgd_step(w, data, int(i), config.loss, config.reg, config.schedule.eta(t), labels[t - 1])
        norms.append(frobenius_norm(w))
    return w, norms


REGULARIZERS = [RegularizerSpec.frobenius(0.05), RegularizerSpec.l2p(0.05, 1.5), RegularizerSpec.l2p(0.05, 1.1)]


class TestLazyLoopOracle:
    SIGMA = 0.05
    SCHEDULES = pytest.mark.parametrize(
        "schedule",
        [
            StepSchedule.theorem(SIGMA),
            StepSchedule.experiment(SIGMA),
            # eta_t * sigma = 3.5 / t: the shrink is negative for t < 3.5 and
            # the scale falls below the fold floor at step 381.
            StepSchedule.theorem(SIGMA / 3.5),
        ],
        ids=["theorem", "experiment", "eta-sigma-above-1"],
    )

    @SCHEDULES
    @pytest.mark.parametrize("spec", standard_loss_specs(), ids=lambda s: s.name)
    @pytest.mark.parametrize("reg", REGULARIZERS, ids=lambda r: r.name)
    def test_train_matches_dense_sgd_step_replay(self, monkeypatch, reg, spec, schedule):
        data = sparse_wide_dataset("mlc" if spec.is_multilabel else "mcc")
        config = TrainConfig(loss=spec, reg=reg, schedule=schedule, total_steps=2000, seed=17, record_every=500)
        self.assert_matches_dense_replay(monkeypatch, data, config)

    @SCHEDULES
    @pytest.mark.parametrize("spec", standard_loss_specs(), ids=lambda s: s.name)
    def test_full_width_train_matches_dense_sgd_step_replay(self, monkeypatch, spec, schedule):
        data = tiny_dataset(n=50, d=6, c=5, task="mlc" if spec.is_multilabel else "mcc")
        assert data.X.indptr[-1] == len(data) * data.d  # every row holds d entries, so the dense step loop runs
        reg = RegularizerSpec.frobenius(self.SIGMA)
        config = TrainConfig(loss=spec, reg=reg, schedule=schedule, total_steps=1000, seed=17, record_every=250)
        self.assert_matches_dense_replay(monkeypatch, data, config)

    def assert_matches_dense_replay(self, monkeypatch, data, config):
        """The run's iterate and every norm it certifies, running or exact, equal a dense replay's to rounding."""
        running, exact = [], []  # (step, norm) of every certificate check
        check_segment, check_iterate = optimizer_module._check_segment, optimizer_module._check_iterate

        def spy_running(a, v_sq, bounds, t, loss, reg):
            for j, (scale, (sq,)) in enumerate(zip(a, v_sq)):  # one chain
                running.append((t + j, abs(scale) * np.sqrt(abs(sq))))
            check_segment(a, v_sq, bounds, t, loss, reg)

        def spy_iterate(norm, bound, t, loss, reg, r=None):
            exact.append((t, norm))
            check_iterate(norm, bound, t, loss, reg, r)

        monkeypatch.setattr(optimizer_module, "_check_segment", spy_running)
        monkeypatch.setattr(optimizer_module, "_check_iterate", spy_iterate)
        w, _ = train(data, config)
        expected, norms = dense_replay(data, config)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(w - expected)) <= 1e-12 * scale
        assert [t for t, _ in running] == list(range(1, config.total_steps + 1))
        assert [t for t, _ in exact] == list(range(config.record_every, config.total_steps + 1, config.record_every))
        checked = running + exact
        assert max(abs(norm - norms[t - 1]) for t, norm in checked) <= 1e-12 * max(1.0, max(norms))


def ragged_dataset(task="mcc", n=120, d=40, c=5, seed=0):
    """synth_gen rows with most entries zeroed, so rows hold 1 to about 20 nonzeros."""
    base = synth_gen(n=n, d=d, c=c, task=task, noise=0.1, seed=seed)
    keep = generator(seed + 1).random((n, d)) < 0.2
    keep[np.arange(n), generator(seed + 2).integers(0, d, size=n)] = True
    return Dataset(np.where(keep, oracles.scipy_csr(base.X).toarray(), 0.0), base.y, c, task)


def chain_configs(loss, reg, schedule, total_steps, record_every=None, repetitions=3):
    return [
        TrainConfig(
            loss=loss,
            reg=reg,
            schedule=schedule,
            total_steps=total_steps,
            seed=100 + r,
            record_every=record_every,
        )
        for r in range(repetitions)
    ]


def assert_chains_equal_lone_runs(pool, rows, configs, holdouts=None):
    """Each chain equals a lone run on a copy of its rows, and scores its holdout rows as their copy."""
    runs = oracles.lockstep_runs(pool, rows, configs)
    assert len(runs) == len(configs)
    for (w, records), chain_rows, config, holdout in zip(runs, rows, configs, holdouts or [None] * len(rows)):
        w_alone, records_alone = oracles.lone_run(pool, chain_rows, config)
        assert w.shape == w_alone.shape and w.tobytes() == w_alone.tobytes()
        assert records == records_alone
        if holdout is not None:
            held_out = mean_loss(w, pool, config.loss, holdout) + config.reg.value(w)
            assert held_out == evaluate_objective(w, oracles.take(pool, holdout), config.loss, config.reg)


class TestLockstepChains:
    SIGMA = 0.05

    def test_mlogistic_on_dense_data(self):
        datasets = [tiny_dataset(n=60, d=7, c=4, seed=s) for s in range(4)]
        holdouts = [tiny_dataset(n=30, d=7, c=4, seed=10 + s) for s in range(4)]
        pool, rows = pooled(*datasets, *holdouts)
        configs = chain_configs(
            MLOG, RegularizerSpec.frobenius(0.01), StepSchedule.experiment(0.01), 300,
            record_every=60, repetitions=4,
        )
        assert_chains_equal_lone_runs(pool, rows[:4], configs, holdouts=rows[4:])

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("rows_kind", ["dense", "ragged"])
    def test_row_maps_into_one_pool(self, rows_kind, R):
        # each chain trains on a shuffled split of the shared pool and holds out the rest
        pool = tiny_dataset(n=120, d=8, c=4) if rows_kind == "dense" else ragged_dataset(n=120)
        splits = [split(len(pool), 0.7, seed) for seed in range(R)]
        configs = chain_configs(
            MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 250,
            record_every=84, repetitions=R,
        )
        train_rows, test_rows = zip(*splits)
        assert_chains_equal_lone_runs(pool, list(train_rows), configs, test_rows)

    @pytest.mark.parametrize("spec", [MLOG, LossSpec.ranking(HINGE)], ids=lambda s: s.name)
    def test_records_over_repeated_rows_in_any_order(self, monkeypatch, spec):
        # rows and holdout rows of the pool must score as their copies whatever the chunks
        pool = sparse_wide_dataset("mlc" if spec.is_multilabel else "mcc", n=300, d=60)
        rng = generator(3)
        rows = [rng.integers(0, len(pool), size=250) for _ in range(3)]  # repeats and any order
        holdouts = [rng.integers(0, len(pool), size=120) for _ in range(3)]
        configs = chain_configs(
            spec, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 300,
            record_every=100,
        )
        for chunk in (optimizer_module._EVAL_CHUNK_ENTRIES, 7 * pool.c * pool.c):
            monkeypatch.setattr(optimizer_module, "_EVAL_CHUNK_ENTRIES", chunk)
            assert_chains_equal_lone_runs(pool, rows, configs, holdouts)

    def test_ranking_on_multilabel_data(self):
        datasets = [tiny_dataset(n=50, d=6, c=5, seed=s, task="mlc") for s in range(3)]
        configs = chain_configs(
            LossSpec.ranking(HINGE), RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 250,
            record_every=50,
        )
        assert_chains_equal_lone_runs(*pooled(*datasets), configs)

    def test_ragged_sparse_rows(self):
        datasets = [ragged_dataset(seed=s) for s in range(3)]
        configs = chain_configs(
            LossSpec.mc_svm(HINGE), RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 400,
            record_every=100,
        )
        # a step is ragged when the chains' drawn rows differ in nnz
        widths = np.concatenate([np.diff(chunk[2]) for chunk in optimizer_module._chunks(*pooled(*datasets), configs)])
        ragged = np.any(widths.reshape(-1, 3) != widths.reshape(-1, 3)[:, :1], axis=1)
        assert len(ragged) == 400 and 0 < ragged.sum() < 400
        assert_chains_equal_lone_runs(*pooled(*datasets), configs)

    def test_l2p_regularizer(self):
        datasets = [sparse_wide_dataset("mcc", n=80, d=30, seed=s) for s in range(3)]
        configs = chain_configs(
            MLOG, RegularizerSpec.l2p(self.SIGMA, 1.5), StepSchedule.theorem(self.SIGMA), 300, record_every=75
        )
        assert_chains_equal_lone_runs(*pooled(*datasets), configs)

    def test_scale_folds(self):
        # eta_t * sigma = 3.5 / t: the shared scale falls below the fold floor at step 381
        datasets = [sparse_wide_dataset("mcc", n=80, d=30, seed=s) for s in range(3)]
        configs = chain_configs(
            MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA / 3.5), 500,
            record_every=100,
        )
        assert_chains_equal_lone_runs(*pooled(*datasets), configs)

    @pytest.mark.parametrize("spec", standard_loss_specs(), ids=lambda s: s.name)
    def test_every_loss(self, spec):
        task = "mlc" if spec.is_multilabel else "mcc"
        datasets = [ragged_dataset(task, n=60, seed=s) for s in range(3)]
        configs = chain_configs(
            spec, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 120, record_every=40
        )
        assert_chains_equal_lone_runs(*pooled(*datasets), configs)

    def test_run_longer_than_one_chunk_matches_dense_replay(self):
        datasets = [sparse_wide_dataset("mcc", seed=s) for s in range(3)]
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 4500)
        assert configs[0].total_steps > 2 * optimizer_module._DRAW_CHUNK_ENTRIES // (3 * 5)  # nnz is 5
        for (w, _), data, config in zip(oracles.lockstep_runs(*pooled(*datasets), configs), datasets, configs):
            expected, _ = dense_replay(data, config)
            assert np.max(np.abs(w - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))

    def test_full_width_run_longer_than_one_chunk_matches_dense_replay(self):
        datasets = [tiny_dataset(n=50, d=6, c=5, seed=s) for s in range(3)]
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 4500)
        assert configs[0].total_steps > 2 * optimizer_module._DRAW_CHUNK_ENTRIES // (3 * 6)  # every row holds d = 6
        for (w, _), data, config in zip(oracles.lockstep_runs(*pooled(*datasets), configs), datasets, configs):
            expected, _ = dense_replay(data, config)
            assert np.max(np.abs(w - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))

    def test_chunk_size_changes_no_value(self, monkeypatch):
        pool, rows = pooled(*[ragged_dataset(seed=s) for s in range(3)])
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 300)
        runs = oracles.lockstep_runs(pool, rows, configs)
        monkeypatch.setattr(optimizer_module, "_DRAW_CHUNK_ENTRIES", 7)
        for (w, records), (w_small, records_small) in zip(runs, oracles.lockstep_runs(pool, rows, configs)):
            assert w.tobytes() == w_small.tobytes() and records == records_small

    def test_chain_over_its_bound_is_named(self, monkeypatch):
        pool, rows = pooled(*[tiny_dataset(seed=s) for s in range(3)])
        set_bound(monkeypatch, 2, 1e-6)  # a bound no nonzero step-1 iterate meets
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20)
        with pytest.raises(CertificateError, match="certified bound .* at step 1 in chain 2 "):
            oracles.lockstep_runs(pool, rows, configs)

    def test_non_finite_chain_is_named(self, monkeypatch):
        def nan_in_chain_one(kernel, S, y, out):
            out = kernel(S, y, out)
            out[1] = np.nan
            return out

        patch_kernel(monkeypatch, nan_in_chain_one)
        pool, rows = pooled(*[tiny_dataset(seed=s) for s in range(3)])
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20)
        with pytest.raises(CertificateError, match="iterate norm became nan at step 1 in chain 1 "):
            oracles.lockstep_runs(pool, rows, configs)

    def test_inflated_chain_coefficients_are_named(self, monkeypatch):
        def inflate_chain_two(kernel, S, y, out):
            out = kernel(S, y, out)
            out[2] *= 3.0
            return out

        patch_kernel(monkeypatch, inflate_chain_two)
        pool, rows = pooled(*[tiny_dataset(seed=s) for s in range(3)])
        configs = chain_configs(
            MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20, record_every=1
        )
        with pytest.raises(CertificateError, match="loss coefficients at step 1 in chain 2 have l1 norm"):
            oracles.lockstep_runs(pool, rows, configs)

    @pytest.mark.parametrize(
        "change",
        [
            {"loss": LossSpec.mc_svm(HINGE)},
            {"reg": RegularizerSpec.frobenius(0.1)},
            {"schedule": StepSchedule.experiment(0.05)},
            {"record_every": 5},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_configs_must_agree(self, change):
        pool, rows = pooled(*[tiny_dataset(seed=s) for s in range(3)])
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20)
        configs[1] = replace(configs[1], **change)
        with pytest.raises(ValueError, match="config 1 differs from config 0"):
            oracles.lockstep_runs(pool, rows, configs)

    def test_chains_come_longest_first(self):
        pool, rows = pooled(*[tiny_dataset(seed=s) for s in range(3)])
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20)
        configs[1] = replace(configs[1], total_steps=21)
        with pytest.raises(ValueError, match="config 1 runs longer than config 0: chains must come longest first"):
            oracles.lockstep_runs(pool, rows, configs)

    def test_one_config_per_chain(self):
        pool, rows = pooled(tiny_dataset())
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20)
        with pytest.raises(ValueError, match="one config per chain"):
            oracles.lockstep_runs(pool, rows, configs)
        with pytest.raises(ValueError, match="at least one chain"):
            oracles.lockstep_runs(pool, [], [])


class TestChainsOfUnequalLength:
    """Chains that end early drop out of the lockstep walk and still equal their lone runs."""

    SIGMA = 0.05
    LENGTHS = [97, 60, 60, 43, 20]
    # Ten steps per chunk while all five chains run: chain 4 ends on a chunk boundary, chain 3
    # one step inside a twelve-step chunk, chains 1 and 2 together, and chain 0 runs alone.
    PLAN = [(0, 5, 10), (10, 5, 10), (20, 4, 12), (32, 4, 11), (43, 3, 16), (59, 3, 1), (60, 1, 37)]

    @pytest.mark.parametrize("record_every", [None, 15])
    @pytest.mark.parametrize(
        "reg, schedule",
        [
            (RegularizerSpec.frobenius(SIGMA), StepSchedule.theorem(SIGMA)),
            (RegularizerSpec.frobenius(SIGMA), StepSchedule.experiment(SIGMA)),
            (RegularizerSpec.l2p(SIGMA, 1.5), StepSchedule.theorem(SIGMA)),  # folds every step
        ],
        ids=["frobenius-theorem", "frobenius-experiment", "group"],
    )
    @pytest.mark.parametrize("width", ["full", "ragged"])
    def test_each_chain_equals_its_lone_run(self, monkeypatch, width, reg, schedule, record_every):
        make = partial(tiny_dataset, n=50, d=6, c=4) if width == "full" else partial(ragged_dataset, n=60, c=4)
        pool, rows = pooled(*[make(seed=s) for s in range(len(self.LENGTHS))])
        configs = [
            replace(config, total_steps=steps)
            for config, steps in zip(chain_configs(MLOG, reg, schedule, 1, record_every, len(rows)), self.LENGTHS)
        ]
        widest = int(np.diff(pool.X.indptr).max())
        monkeypatch.setattr(optimizer_module, "_DRAW_CHUNK_ENTRIES", 10 * len(rows) * widest)
        plan, chunks = [], optimizer_module._chunks

        def spied_chunks(data, rows, configs):
            for chunk in chunks(data, rows, configs):
                assert (chunk[2] is None) == (width == "full")  # the run takes the path it tests
                plan.append((chunk[0], chunk[1], len(chunk[5]) // chunk[1]))
                yield chunk

        monkeypatch.setattr(optimizer_module, "_chunks", spied_chunks)
        records = {
            r: {*range(record_every or steps, steps + 1, record_every or steps), steps}
            for r, steps in enumerate(self.LENGTHS)
        }
        yielded = [(t, len(w)) for t, w, _ in iterates(pool, rows, configs)]
        # a step yields where any chain records, with the chains still running (the first k)
        steps = sorted(set().union(*records.values()))
        assert yielded == [(t, sum(length >= t for length in self.LENGTHS)) for t in steps]
        assert plan == self.PLAN
        assert_chains_equal_lone_runs(pool, rows, configs)
        for (_, chain_records), steps in zip(oracles.lockstep_runs(pool, rows, configs), records.values()):
            assert [record.step for record in chain_records] == sorted(steps)

    def test_a_failure_after_chains_drop_out_names_its_chain(self, monkeypatch):
        def nan_in_chain_one_of_two(kernel, S, y, out):  # a full-width step scores one row per running chain
            out = kernel(S, y, out)
            if len(out) == 2:
                out[1] = np.nan
            return out

        patch_kernel(monkeypatch, nan_in_chain_one_of_two)
        pool, rows = pooled(*[tiny_dataset(seed=s) for s in range(3)])
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 30)
        configs = [replace(config, total_steps=steps) for config, steps in zip(configs, [30, 20, 10])]
        with pytest.raises(CertificateError, match="iterate norm became nan at step 11 in chain 1 "):
            oracles.lockstep_runs(pool, rows, configs)


def ragged_wide_dataset(task="mcc", n=120, d=300, c=5, seed=0):
    """synth_gen rows cut to 1 to 10 leading entries on random columns, so d >> nnz and rows differ in nnz."""
    base = synth_gen(n=n, d=10, c=c, task=task, noise=0.1, seed=seed)
    rng = generator(seed + 1)
    widths = rng.integers(1, 11, size=n)
    values = oracles.scipy_csr(base.X).toarray()
    cols = np.concatenate([np.sort(rng.choice(d, size=k, replace=False)) for k in widths])
    data = np.concatenate([values[i, :k] for i, k in enumerate(widths)])
    X = sp.csr_matrix((data, cols, np.concatenate(([0], np.cumsum(widths)))), shape=(n, d))
    return Dataset(X, base.y, c, task)


def one_step_blocks(monkeypatch):
    """Make every step conflict with the step before it, so each block is one step."""
    monkeypatch.setattr(
        optimizer_module, "_conflicts", lambda offsets, features, R: list(range(-1, (len(offsets) - 1) // R - 1))
    )


def block_sizes(monkeypatch, R):
    """Steps per block, read from the rows of each coefficient kernel call; filled as training runs."""
    sizes = []

    def spy(kernel, S, y, out):
        assert len(S) % R == 0
        sizes.append(len(S) // R)
        return kernel(S, y, out)

    patch_kernel(monkeypatch, spy)
    return sizes


def patch_coef_row(monkeypatch, row, change):
    """Apply change to coefficient row `row` of a run, counting rows across coefficient kernel calls.

    Rows come in step, chain order whether steps are blocked or not, so row
    (t - 1) * R + r is chain r at step t either way.
    """
    seen = [0]

    def patched(kernel, S, y, out):
        out = kernel(S, y, out)
        if seen[0] <= row < seen[0] + len(S):
            out[row - seen[0]] = change(out[row - seen[0]])
        seen[0] += len(S)
        return out

    patch_kernel(monkeypatch, patched)


def first_steps(sizes):
    """The 1-based first step of each block."""
    return (np.cumsum([0] + sizes[:-1]) + 1).tolist()


class TestStepBlocks:
    SIGMA = 0.05

    def run_both(self, monkeypatch, pool, rows, configs):
        blocked = oracles.lockstep_runs(pool, rows, configs)
        with monkeypatch.context() as m:
            one_step_blocks(m)
            stepped = oracles.lockstep_runs(pool, rows, configs)
        return blocked, stepped

    @pytest.mark.parametrize("case", ["ranking-R1", "ragged-R3", "l2p", "fold-mid-run"])
    def test_blocked_runs_equal_step_at_a_time(self, monkeypatch, case):
        sigma, schedule = self.SIGMA, StepSchedule.theorem(self.SIGMA)  # folds at step 1
        reg, loss, R = RegularizerSpec.frobenius(sigma), LossSpec.ranking(HINGE), 1
        if case == "ranking-R1":
            datasets = [sparse_wide_dataset("mlc", n=200, d=400, nnz=8, c=6)]
        elif case == "ragged-R3":
            loss, R = LOGISTIC_SUBSET, 3
            datasets = [ragged_wide_dataset("mlc", seed=s) for s in range(R)]
        elif case == "l2p":
            loss, reg, R = MLOG, RegularizerSpec.l2p(sigma, 1.5), 2
            datasets = [sparse_wide_dataset("mcc", seed=s) for s in range(R)]
        else:  # eta_t * sigma = 3.5 / t: the scale folds at step 381
            schedule = StepSchedule.theorem(sigma / 3.5)
            datasets = [sparse_wide_dataset("mlc", n=200, d=400, nnz=8, c=6)]
        first = datasets[0]
        holdout = sparse_wide_dataset(first.task, n=50, d=first.d, nnz=3, c=first.c, seed=9)
        pool, rows = pooled(*datasets, holdout)
        configs = chain_configs(loss, reg, schedule, 600, record_every=150, repetitions=R)
        sizes = block_sizes(monkeypatch, R)
        blocked, stepped = self.run_both(monkeypatch, pool, rows[:R], configs)
        blocked_sizes = sizes[: len(sizes) - 600]  # the stepped run added 600 one-step calls
        assert sum(blocked_sizes) == 600 and sizes[len(blocked_sizes) :] == [1] * 600
        if reg.kind == "l2p":
            assert max(blocked_sizes) == 1  # every group (2, p) step stands alone
        else:
            assert max(blocked_sizes) > 1
        fold = 1 if case != "fold-mid-run" else 381
        if reg.kind == "frobenius":  # the fold stands alone
            assert blocked_sizes[first_steps(blocked_sizes).index(fold)] == 1
        for (w, records), (w_one, records_one) in zip(blocked, stepped):
            assert w.tobytes() == w_one.tobytes()
            assert records == records_one
            held_out = mean_loss(w, pool, loss, rows[R]) + reg.value(w)
            assert held_out == evaluate_objective(w, oracles.take(pool, rows[R]), loss, reg)

    def test_blocks_form_on_sparse_rows_and_never_on_dense_rows(self, monkeypatch):
        loss, reg = LossSpec.ranking(HINGE), RegularizerSpec.frobenius(0.01)
        sparse = sparse_wide_dataset("mlc", n=500, d=2000, nnz=20, c=10)  # shaped like train-sparse-mlc
        sizes = block_sizes(monkeypatch, 1)
        train(sparse, TrainConfig(loss, reg, StepSchedule.theorem(0.01), 2000, seed=7))
        assert sum(sizes) == 2000 and max(sizes) > 1 and len(sizes) < 1500
        dense = [tiny_dataset(n=60, d=6, c=5, seed=s, task="mlc") for s in range(3)]
        sizes = block_sizes(monkeypatch, 3)
        oracles.lockstep_runs(*pooled(*dense), chain_configs(loss, reg, StepSchedule.theorem(0.01), 300, repetitions=3))
        assert sizes == [1] * 300

    def test_a_block_gathers_at_most_block_values_of_v(self, monkeypatch):
        data = sparse_wide_dataset("mlc", n=500, d=2000, nnz=20, c=64)  # 1,280 values of V per step
        config = TrainConfig(LossSpec.ranking(HINGE), RegularizerSpec.frobenius(0.01), StepSchedule.theorem(0.01), 1000, seed=7)
        sizes = block_sizes(monkeypatch, 1)
        w, _ = train(data, config)
        assert max(sizes) > 1 and max(sizes) * 20 * 64 <= optimizer_module._BLOCK_VALUES
        one_step_blocks(monkeypatch)
        assert train(data, config)[0].tobytes() == w.tobytes()

    def test_a_step_reading_a_row_written_earlier_in_the_block_splits_it(self, monkeypatch):
        # rows over columns {3, 8}, {8, 11}, {20}, {3}: step 2 reads column 8,
        # which step 1 wrote; step 4 reads column 3, written before its block
        X = sp.csr_matrix((np.ones(6), [3, 8, 8, 11, 20, 3], [0, 2, 4, 5, 6]), shape=(4, 30))
        data = Dataset(X, np.array([0, 1, 2, 0]), 3, "mcc")
        offsets, features, _ = optimizer_module._gather(data, np.arange(4)[:, None])
        assert optimizer_module._conflicts(offsets, features, 1) == [-1, 0, -1, 0]
        # two chains, the second drawing rows 2, 2, 1, 0: chain 1's columns are
        # offset by d, so a step conflicts only through each chain's own rows
        offsets, features, _ = optimizer_module._gather(data, np.array([[0, 2], [1, 2], [2, 1], [3, 0]]))
        assert optimizer_module._conflicts(offsets, features, 2) == [-1, 0, -1, 2]

        def draws(data, rows, configs):
            offsets, features, values = optimizer_module._gather(data, np.arange(4)[:, None])
            conflicts = optimizer_module._conflicts(offsets, features, 1)
            yield 0, 1, offsets, features, values, np.arange(4), conflicts

        monkeypatch.setattr(optimizer_module, "_chunks", draws)
        sizes = block_sizes(monkeypatch, 1)
        config = TrainConfig(MLOG, RegularizerSpec.frobenius(0.1), StepSchedule.experiment(0.1), 4, seed=0)
        w, _ = train(data, config)
        assert sizes == [1, 3]
        one_step_blocks(monkeypatch)
        assert train(data, config)[0].tobytes() == w.tobytes()


class TestFailuresInsideBlocks:
    """Each certificate names the same step and chain whether or not steps are blocked."""

    SIGMA = 0.05
    R = 3

    def setup(self, monkeypatch, record_every=None):
        pool, rows = pooled(*[ragged_wide_dataset("mcc", seed=s) for s in range(self.R)])
        configs = chain_configs(
            MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.experiment(self.SIGMA), 300,
            record_every=record_every, repetitions=self.R,
        )
        with monkeypatch.context() as m:
            sizes = block_sizes(m, self.R)
            oracles.lockstep_runs(pool, rows, configs)
        return pool, rows, configs, sizes

    def raise_both(self, monkeypatch, pool, rows, configs, row=None, change=None):
        messages = []
        for blocked in (True, False):
            with monkeypatch.context() as m:
                if not blocked:
                    one_step_blocks(m)
                if change is not None:
                    patch_coef_row(m, row, change)
                with pytest.raises(CertificateError) as err:
                    oracles.lockstep_runs(pool, rows, configs)
                messages.append(str(err.value))
        assert messages[0] == messages[1]
        return messages[0]

    def mid_block_steps(self, sizes):
        """Steps that are neither alone nor first in their block."""
        return [first + j for first, size in zip(first_steps(sizes), sizes) for j in range(1, size)]

    def test_nan_mid_block(self, monkeypatch):
        pool, rows, configs, sizes = self.setup(monkeypatch)
        t, r = self.mid_block_steps(sizes)[0], 1
        message = self.raise_both(monkeypatch, pool, rows, configs, (t - 1) * self.R + r, lambda row: row * np.nan)
        assert f"iterate norm became nan at step {t} in chain {r} " in message

    def test_inflated_coefficients_mid_block(self, monkeypatch):
        pool, rows, configs, sizes = self.setup(monkeypatch, record_every=7)
        t = next(t for t in self.mid_block_steps(sizes) if t % 7 == 0)  # a recording step inside a block
        r = 2
        message = self.raise_both(monkeypatch, pool, rows, configs, (t - 1) * self.R + r, lambda row: row * 3.0)
        assert f"loss coefficients at step {t} in chain {r} have l1 norm" in message

    def test_inflated_coefficients_at_a_step_that_does_not_record(self, monkeypatch):
        pool, rows, configs, sizes = self.setup(monkeypatch)  # only the final step, 300, records
        t, r = self.mid_block_steps(sizes)[0], 2
        assert t < configs[0].total_steps
        message = self.raise_both(monkeypatch, pool, rows, configs, (t - 1) * self.R + r, lambda row: row * 3.0)
        assert f"loss coefficients at step {t} in chain {r} have l1 norm" in message

    def chain_norms(self, monkeypatch, pool, rows, configs, r):
        """Chain r's running norm at every step, read through the certificate."""
        norms, check_segment = [], optimizer_module._check_segment

        def spy(a, v_sq, bounds, t, loss, reg):
            assert t == len(norms) + 1  # every step once, in order
            norms.extend(np.abs(a) * np.sqrt(np.abs(v_sq[:, r])))
            check_segment(a, v_sq, bounds, t, loss, reg)

        with monkeypatch.context() as m:
            m.setattr(optimizer_module, "_check_segment", spy)
            oracles.lockstep_runs(pool, rows, configs)
        return norms

    def test_chain_over_its_bound_mid_block(self, monkeypatch):
        pool, rows, configs, sizes = self.setup(monkeypatch)
        r = 0
        norms = self.chain_norms(monkeypatch, pool, rows, configs, r)
        # a mid-block step whose norm tops every earlier one of chain r
        t = next(t for t in self.mid_block_steps(sizes) if norms[t - 1] > max(norms[: t - 1]))
        bound = (norms[t - 1] + max(norms[: t - 1])) / 2
        set_bound(monkeypatch, r, bound)
        message = self.raise_both(monkeypatch, pool, rows, configs)
        assert f"exceeded the certified bound {bound:.6g} at step {t} in chain {r} " in message

    def test_first_of_two_failures_in_a_chunk_is_named(self, monkeypatch):
        pool, rows, configs, _ = self.setup(monkeypatch)
        steps = (len(next(optimizer_module._chunks(pool, rows, configs))[2]) - 1) // self.R
        norms = self.chain_norms(monkeypatch, pool, rows, configs, 2)
        # chain 2 tops its bound at step t and chain 0 turns NaN at step t + 3,
        # in the same chunk and running-norm segment (nothing records before the end)
        t = next(t for t in range(10, steps - 3) if norms[t - 1] > max(norms[: t - 1]))
        bound = (norms[t - 1] + max(norms[: t - 1])) / 2
        set_bound(monkeypatch, 2, bound)
        message = self.raise_both(monkeypatch, pool, rows, configs, (t + 2) * self.R, lambda row: row * np.nan)
        assert f"exceeded the certified bound {bound:.6g} at step {t} in chain 2 " in message

    @pytest.mark.parametrize("poison, shown", [(np.nan, "nan"), (np.inf, "inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("loss", [MLOG, LossSpec.ranking(HINGE)], ids=lambda loss: loss.name)
    def test_non_finite_mid_segment_raises_a_certificate_error(self, monkeypatch, poison, shown, loss):
        # later blocks of the segment run on the poisoned rows before the check
        task = "mlc" if loss.is_multilabel else "mcc"
        pool, rows = pooled(*[ragged_wide_dataset(task, seed=s) for s in range(self.R)])
        configs = chain_configs(loss, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.experiment(self.SIGMA), 300)
        t, r = 40, 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would fail here
            message = self.raise_both(
                monkeypatch, pool, rows, configs, (t - 1) * self.R + r, lambda row: np.full_like(row, poison)
            )
        assert f"iterate norm became {shown} at step {t} in chain {r} " in message


class TestRunningNorm:
    """The running ||V_r||^2, built from each step's raw scores and coefficients, against exact norms."""

    SIGMA = 0.05

    def step(self, B=50, k=7, c=4, seed=5):
        """Random rows of V, inputs, coefficients and rho, with the rows after the step."""
        rng = generator(seed)
        grid, x = rng.standard_normal((B, k, c)), rng.standard_normal((B, 1, k))
        coef, rho = rng.standard_normal((B, c)), rng.random(B)
        return grid, x, coef, rho

    def changes(self, grid, x, coef, rho):
        """(changes from scores and coefficients, exact changes, squared norms before plus after)."""
        new = grid - rho[:, None, None] * (x.mT * coef[:, None, :])
        with np.errstate(over="ignore", invalid="ignore"):
            changes = optimizer_module._norm_changes((x @ grid)[:, 0], coef, np.sum(x * x, axis=(1, 2)), rho)
            return changes, oracles.norm_changes(grid, new), oracles.squares(grid) + oracles.squares(new)

    def test_changes_equal_the_exact_bookkeeping(self):
        changes, exact, size = self.changes(*self.step())
        assert np.all(np.abs(changes - exact) <= 1e-12 * size)

    def test_non_finite_coefficients_give_the_exact_non_finite_change(self):
        grid, x, coef, rho = self.step(B=3)
        coef[0] = np.inf  # +inf - inf in score space; the iterate's norm is +inf
        coef[1, 0] = np.nan
        changes, exact, _ = self.changes(grid, x, coef, rho)
        assert changes[0] == exact[0] == np.inf
        assert np.isnan(changes[1]) and np.isnan(exact[1])
        assert np.isfinite(changes[2])

    @pytest.mark.parametrize("case", ["ranking-sparse", "ragged-mcc", "empty-rows", "dense-passes-R3", "l2p"])
    def test_running_norm_equals_the_exact_norm_at_every_record(self, monkeypatch, case):
        loss, reg, R = MLOG, RegularizerSpec.frobenius(self.SIGMA), 1
        schedule = StepSchedule.theorem(self.SIGMA)  # the scale folds at step 1
        if case == "ranking-sparse":
            loss, datasets = LossSpec.ranking(HINGE), [sparse_wide_dataset("mlc", n=200, d=400, nnz=8, c=6)]
        elif case == "ragged-mcc":
            loss, datasets = LossSpec.mc_svm(HINGE), [ragged_wide_dataset("mcc")]
        elif case == "empty-rows":  # rows without entries score zero and leave V alone
            base = ragged_dataset()
            dense = oracles.scipy_csr(base.X).toarray()
            dense[::7] = 0.0
            datasets = [Dataset(dense, base.y, base.c, base.task)]
        elif case == "dense-passes-R3":
            R, schedule = 3, StepSchedule.experiment(self.SIGMA)
            datasets = [tiny_dataset(n=60, d=8, c=4, seed=s) for s in range(R)]
        else:  # every group (2, p) step folds
            reg, R = RegularizerSpec.l2p(self.SIGMA, 1.5), 2
            datasets = [sparse_wide_dataset("mcc", seed=s) for s in range(R)]
        pool, rows = pooled(*datasets)
        configs = chain_configs(loss, reg, schedule, 600, record_every=50, repetitions=R)
        running, check_segment = {}, optimizer_module._check_segment

        def spy(a, v_sq, bounds, t, loss, reg):
            for j, (scale, row) in enumerate(zip(a, v_sq)):
                running[t + j] = scale * scale * row  # ||W_r||^2 = a^2 ||V_r||^2, before the record resyncs it
            check_segment(a, v_sq, bounds, t, loss, reg)

        monkeypatch.setattr(optimizer_module, "_check_segment", spy)
        steps = []
        for t, w, _ in optimizer_module._steps(pool, rows, configs):
            exact = oracles.squares(w)
            assert np.all(np.abs(running[t] - exact) <= 1e-12 * exact), t
            steps.append(t)
        assert steps == list(range(50, 601, 50))

    @pytest.mark.parametrize("width", ["full", "csr"])
    def test_x_sq_is_the_pools_cached_row_norms(self, monkeypatch, width):
        R = 3
        if width == "full":
            datasets = [tiny_dataset(n=60, d=8, c=4, seed=s) for s in range(R)]
        else:
            datasets = [ragged_wide_dataset("mcc", seed=s) for s in range(R)]
        pool, rows = pooled(*datasets)
        schedule = StepSchedule.theorem(self.SIGMA)
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), schedule, 600, record_every=50, repetitions=R)
        drawn, seen = [], []
        chunks, norm_changes = optimizer_module._chunks, optimizer_module._norm_changes

        def chunk_spy(data, rows, configs):
            for chunk in chunks(data, rows, configs):
                assert (chunk[2] is None) == (width == "full")  # the run takes the path it tests
                drawn.append(chunk[5])
                yield chunk

        def spy(scores, coef, x_sq, rho):
            seen.append(x_sq.copy())
            return norm_changes(scores, coef, x_sq, rho)

        monkeypatch.setattr(optimizer_module, "_chunks", chunk_spy)
        monkeypatch.setattr(optimizer_module, "_norm_changes", spy)
        oracles.lockstep_runs(pool, rows, configs)
        assert len(seen) >= 12  # the segments cover every drawn row once, in order
        assert np.concatenate(seen).tobytes() == pool.row_sq_norms.take(np.concatenate(drawn)).tobytes()


class TestEqualWidthViews:
    """A chunk whose rows share one nnz is one group of views, and a full-width pool steps V in place.

    Both equal the general per-nnz grouping bit for bit.  That grouping is
    forced by adding a pool row of one entry, which no chain draws, so the
    pool is not full width, and by handing the chunk plan its groups in
    pieces of at most half a chunk's entries, so no group holds every drawn
    row.  Ragged blocks mixing several nnz keep their bits when their groups
    come in pieces.
    """

    SIGMA = 0.05

    def runs(self, monkeypatch, datasets, spec, reg, R):
        """The plans the chunks of the first training made, after both trainings' results are compared."""
        pool, rows = pooled(*datasets)
        one_entry = sp.csr_matrix(([1.0], [0], [0, 1]), shape=(1, pool.d))
        X = sp.vstack([oracles.scipy_csr(pool.X), one_entry], format="csr")
        wider = Dataset(X, np.concatenate([pool.y, pool.y[:1]]), pool.c, pool.task)
        # the theorem schedule folds the Frobenius scale at step 1
        configs = chain_configs(spec, reg, StepSchedule.theorem(self.SIGMA), 120, record_every=40, repetitions=R)
        plan, nnz_groups = optimizer_module._plan, optimizer_module.nnz_groups

        def spy(plans):
            def planned(offsets, features, values, lows):
                plans.append((features, plan(offsets, features, values, lows)))
                return plans[-1][1]

            return planned

        def pieces(offsets):
            return nnz_groups(offsets, max_entries=max(1, int(offsets[-1]) // 2))

        results = []
        for forced in (False, True):
            with monkeypatch.context() as m:
                plans = []
                m.setattr(optimizer_module, "_plan", spy(plans))
                if forced:
                    m.setattr(optimizer_module, "nnz_groups", pieces)
                results.append((oracles.lockstep_runs(wider if forced else pool, rows, configs), plans))
        (fast, fast_plans), (grouped, grouped_plans) = results
        for (w, records), (w_grouped, records_grouped) in zip(fast, grouped):
            assert w.tobytes() == w_grouped.tobytes() and records == records_grouped
        assert grouped_plans
        for features, groups in grouped_plans:  # no group holds every drawn row
            assert len(groups) > 1 and not any(np.shares_memory(where, features) for _, where, _, _ in groups)
        return fast_plans

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("reg", [RegularizerSpec.frobenius(SIGMA), RegularizerSpec.l2p(SIGMA, 1.5)], ids=lambda r: r.name)
    @pytest.mark.parametrize("spec", standard_loss_specs(), ids=lambda s: s.name)
    @pytest.mark.parametrize("width", ["full", "equal"])
    def test_views_equal_the_grouped_path(self, monkeypatch, width, spec, reg, R):
        task = "mlc" if spec.is_multilabel else "mcc"
        if width == "full":
            datasets = [tiny_dataset(n=40, d=6, c=5, seed=s, task=task) for s in range(R)]
        else:
            datasets = [sparse_wide_dataset(task, n=60, d=50, nnz=4, c=5, seed=s) for s in range(R)]
        plans = self.runs(monkeypatch, datasets, spec, reg, R)
        if width == "full":  # nothing is planned: V is scored and stepped in place
            assert plans == []
        for features, groups in plans:
            [(_, where, xs, _)] = groups  # one group per chunk
            assert xs.shape[2] == 4 and np.shares_memory(where, features)

    @pytest.mark.parametrize("reg", [RegularizerSpec.frobenius(SIGMA), RegularizerSpec.l2p(SIGMA, 1.5)], ids=lambda r: r.name)
    @pytest.mark.parametrize("spec", standard_loss_specs(), ids=lambda s: s.name)
    def test_ragged_blocks_keep_their_bits_in_pieces(self, monkeypatch, spec, reg):
        task = "mlc" if spec.is_multilabel else "mcc"
        plans = self.runs(monkeypatch, [ragged_wide_dataset(task, n=60, seed=s) for s in range(3)], spec, reg, 3)
        mixed = [
            sum(firsts[b] < firsts[b + 1] for _, _, _, firsts in groups)
            for _, groups in plans
            for b in range(len(groups[0][3]) - 1)
        ]
        assert max(mixed) > 2  # some block scores rows of three or more nnz


class TestFullWidthLockstep:
    """A full-width pool steps V in place from its dense rows, one coefficient kernel call per step of every chain."""

    @pytest.mark.parametrize("spec", standard_loss_specs(), ids=lambda s: s.name)
    def test_one_coef_call_per_block_and_no_gathered_rows_of_v(self, monkeypatch, spec):
        R, steps = 3, 300
        task = "mlc" if spec.is_multilabel else "mcc"
        pool, rows = pooled(*[tiny_dataset(n=50, d=6, c=5, seed=s, task=task) for s in range(R)])
        configs = chain_configs(spec, RegularizerSpec.frobenius(0.05), StepSchedule.theorem(0.05), steps, repetitions=R)
        calls = []

        def spy(kernel, S, y, out):
            calls.append((len(S), out.base is not None))  # written into the chunk's rows
            return kernel(S, y, out)

        patch_kernel(monkeypatch, spy)
        for name in ("_gather", "_plan"):  # no CSR entries are gathered and no nnz groups planned
            monkeypatch.setattr(optimizer_module, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        oracles.lockstep_runs(pool, rows, configs)
        assert calls == [(R, True)] * steps


class TestCoefficientBuffers:
    """Both step walks check each chunk's coefficient buffer once, and every kernel call fills a row slice of it."""

    @pytest.mark.parametrize("make", [tiny_dataset, ragged_dataset], ids=["full-width", "ragged"])
    def test_out_is_checked_once_per_chunk(self, monkeypatch, make):
        pool, rows = pooled(*[make(seed=s) for s in range(3)])
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(0.05), StepSchedule.theorem(0.05), 200)
        monkeypatch.setattr(optimizer_module, "_DRAW_CHUNK_ENTRIES", 1000)
        chunk_rows, checked, calls = [], [], [0]
        chunks, check_out = optimizer_module._chunks, optimizer_module.check_out

        def counted(*args):
            for chunk in chunks(*args):
                chunk_rows.append(len(chunk[5]))
                yield chunk

        def spy_check(out, shape):
            checked.append(out)
            check_out(out, shape)

        def spy_kernel(kernel, S, y, out):
            assert out.shape == S.shape and out.flags.c_contiguous and np.shares_memory(out, checked[-1])
            calls[0] += 1
            return kernel(S, y, out)

        monkeypatch.setattr(optimizer_module, "_chunks", counted)
        monkeypatch.setattr(optimizer_module, "check_out", spy_check)
        patch_kernel(monkeypatch, spy_kernel)
        oracles.lockstep_runs(pool, rows, configs)
        assert len(chunk_rows) > 2 and [len(out) for out in checked] == chunk_rows and calls[0] >= len(chunk_rows)


class TestDenseChunks:
    """A full-width pool's chunk values equal ``_gather``'s bit for bit."""

    @pytest.mark.parametrize("per_chunk, sizes", [(5, [5, 5, 1]), (1, [1] * 11)], ids=["ends-in-one-step", "one-step"])
    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("d", [1, 8, 9, 20])
    def test_dense_rows_equal_the_gathered_rows(self, monkeypatch, d, R, per_chunk, sizes):
        datasets = [Dataset(generator(s).standard_normal((30, d)), np.arange(30) % 3, 3, "mcc") for s in range(R)]
        pool, rows = pooled(*datasets)
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(0.05), StepSchedule.theorem(0.05), 11, repetitions=R)
        monkeypatch.setattr(optimizer_module, "_DRAW_CHUNK_ENTRIES", per_chunk * R * d)
        chunk_sizes = []
        for _, _, offsets, features, values, drawn, conflicts in optimizer_module._chunks(pool, rows, configs):
            assert offsets is None and features is None and conflicts is None
            n = len(drawn)
            gathered = optimizer_module._gather(pool, drawn.reshape(-1, R))[2]
            assert values.shape == (n, d) and values.tobytes() == gathered.tobytes()
            chunk_sizes.append(n // R)
        assert chunk_sizes == sizes

    @pytest.mark.parametrize("steps", [1, 5])
    def test_rows_without_columns_train(self, steps):
        # at d = 0 every row is empty, so the pool takes the CSR path, one-row chunk or not
        data = Dataset(np.zeros((3, 0)), np.array([0, 1, 0]), 2, "mcc")
        w, records = train(data, config_for(data, total_steps=steps))
        assert w.shape == (0, 2) and [r.empirical_objective for r in records] == [np.log(2.0)]


class TestOneLiveChunk:
    """No array of a chunk, drawn or made while walking it, is alive when the next chunk is drawn."""

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("full", [True, False], ids=["full-width", "sparse"])
    @pytest.mark.parametrize("loss", [MLOG, LossSpec.ranking(HINGE)], ids=lambda loss: loss.name)
    def test_a_chunk_is_freed_before_the_next_is_drawn(self, monkeypatch, loss, full, R):
        task = "mlc" if loss.is_multilabel else "mcc"
        make = partial(tiny_dataset, n=50, d=6, c=5, task=task) if full else partial(sparse_wide_dataset, task)
        pool, rows = pooled(*[make(seed=s) for s in range(R)])
        configs = chain_configs(
            loss, RegularizerSpec.frobenius(0.05), StepSchedule.theorem(0.05), 120, record_every=50, repetitions=R
        )
        monkeypatch.setattr(optimizer_module, "_DRAW_CHUNK_ENTRIES", 7 * R * 6)  # seven or eight steps per chunk
        chunk, norm_changes, blocks = optimizer_module._chunk, optimizer_module._norm_changes, LossSpec.blocks
        refs, planned, drawn = [], [], []

        def spied_chunk(*args):
            assert [ref() for ref in refs] == [None] * len(refs)
            out = chunk(*args)
            refs.extend(weakref.ref(a) for a in out if isinstance(a, np.ndarray))
            drawn.append(out[3].copy())  # a copy: the drawn rows die with their chunk
            return out

        def spied_changes(scores, coef, x_sq, rho):  # row slices of the chunk's scores, coefficients, ||x||^2 and rho
            refs.extend(weakref.ref(a.base) for a in (scores, coef, x_sq, rho))
            return norm_changes(scores, coef, x_sq, rho)

        def spied_blocks(self, labels, rows, bounds, c):  # the blocks of one array, or one slot layout, per chunk
            out = blocks(self, labels, rows, bounds, c)
            assert labels is pool.y and np.array_equal(rows, drawn[-1]) and len(rows) < len(pool)
            y = pool.y.take(rows, axis=0)  # the chunk's drawn rows, never the pool's
            if self.kind == "ranking":  # each block's slots are a slice of one layout over the drawn rows
                p, q = out[0].p.base, out[0].q.base
                assert all(plan.p.base is p and plan.q.base is q for plan in out)
                assert np.concatenate([plan.p for plan in out]).tobytes() == p.tobytes()
                shift = np.concatenate([np.full(len(plan.p), b0 * c) for b0, plan in zip(bounds, out)])
                want = oracles.pair_slots(y, True, losses_module._FLAT_PAIRS)
                assert (p + shift).tolist() == want[0] and (q + shift).tolist() == want[1]
                refs.extend(weakref.ref(a) for a in (p, q))
            else:
                hot = out[0].base
                assert all(block.base is hot for block in out) and hot.shape == (len(rows), c)
                assert hot.tobytes() == (y[:, None] == np.arange(c)).astype(np.float64).tobytes()
                refs.append(weakref.ref(hot))
            planned.append(len(rows))
            return out

        monkeypatch.setattr(optimizer_module, "_chunk", spied_chunk)
        monkeypatch.setattr(optimizer_module, "_norm_changes", spied_changes)
        monkeypatch.setattr(LossSpec, "blocks", spied_blocks)
        oracles.lockstep_runs(pool, rows, configs)
        assert len(refs) >= 7 * 15  # at least 15 chunks of at least seven arrays, the planned labels among them
        assert len(planned) == len(drawn) >= 15 and planned == [len(rows) for rows in drawn]

    def test_ranking_plans_only_the_drawn_rows_of_an_extreme_multilabel_pool(self):
        # 2,000 rows of 5 entries at d = 50 and c = 1,024 with 5 positives, so 5,095 pairs and no slots per row;
        # a plan over the pool's distinct rows took this 50-step run's traced peak to 53.5 MB, the run needs 6.0 MB
        n, d, k, c = 2000, 50, 5, 1024
        rng = generator(11)
        cols = np.concatenate([np.sort(rng.choice(d, size=k, replace=False)) for _ in range(n)])
        X = sp.csr_matrix((rng.standard_normal(n * k), cols, np.arange(0, n * k + 1, k)), shape=(n, d))
        y = -np.ones((n, c), dtype=np.int8)
        y[np.arange(n)[:, None], np.argsort(rng.random((n, c)), axis=1)[:, :5]] = 1
        data = Dataset(X, y, c, "mlc")
        config = TrainConfig(LossSpec.ranking(HINGE), RegularizerSpec.frobenius(0.1), StepSchedule.theorem(0.1), 50, seed=3)
        tracemalloc.start()
        try:
            train(data, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestIterateNormCertificate:
    @pytest.mark.parametrize("spec", standard_loss_specs(), ids=lambda s: s.name)
    def test_bound_holds_on_synthetic_runs(self, spec):
        task = "mlc" if spec.is_multilabel else "mcc"
        data = synth_gen(n=150, d=8, c=4, task=task, noise=0.1, seed=5)
        sigma = 0.05
        config = TrainConfig(
            loss=spec,
            reg=RegularizerSpec.frobenius(sigma),
            schedule=StepSchedule.theorem(sigma),
            total_steps=600,
            seed=11,
            record_every=60,
        )
        w, records = train(data, config)
        bound = spec.lipschitz_inf * data.kappa / sigma + 1e-9
        for r in records:
            assert r.iterate_frobenius_norm <= bound
        assert frobenius_norm(w) <= bound

    def test_violation_raises(self, monkeypatch):
        # force the norm computation to report a huge value so the guard trips
        data = tiny_dataset()
        monkeypatch.setattr(optimizer_module, "frobenius_norm", lambda w: 1e12)
        with pytest.raises(CertificateError):
            train(data, config_for(data, total_steps=5))

    def test_running_norm_trips_between_records(self, monkeypatch):
        # a bound below every nonzero norm; only the final step records
        data = tiny_dataset()
        set_bound(monkeypatch, 0, 1e-6)
        with pytest.raises(CertificateError, match="certified bound") as err:
            train(data, config_for(data, total_steps=50, record_every=50))
        assert int(re.search(r"at step (\d+)", str(err.value)).group(1)) < 50

    @pytest.mark.parametrize("reg", REGULARIZERS[:2], ids=lambda r: r.name)
    def test_non_finite_iterate_fails_fast(self, monkeypatch, reg):
        data = tiny_dataset()
        patch_kernel(monkeypatch, lambda kernel, S, y, out: np.add(np.nan, np.zeros(S.shape), out=out))
        config = TrainConfig(
            loss=MLOG,
            reg=reg,
            schedule=StepSchedule.theorem(0.05),
            total_steps=50,
            seed=0,
            record_every=50,
        )
        with pytest.raises(CertificateError, match="iterate norm became nan at step 1 "):
            train(data, config)

    @pytest.mark.parametrize("reg", REGULARIZERS[:2], ids=lambda r: r.name)
    def test_inflated_loss_coefficients_fail_duality_check(self, monkeypatch, reg):
        data = tiny_dataset()
        patch_kernel(monkeypatch, lambda kernel, S, y, out: np.multiply(3.0, kernel(S, y, out), out=out))
        config = TrainConfig(
            loss=MLOG,
            reg=reg,
            schedule=StepSchedule.theorem(0.05),
            total_steps=50,
            seed=0,
            record_every=1,
        )
        with pytest.raises(CertificateError, match="loss coefficients at step 1 have l1 norm"):
            train(data, config)

    @pytest.mark.parametrize("spec", standard_loss_specs(), ids=lambda s: s.name)
    @pytest.mark.parametrize("reg", REGULARIZERS[:2], ids=lambda r: r.name)
    def test_duality_check_holds_on_every_step(self, reg, spec):
        data = synth_gen(n=60, d=6, c=4, task="mlc" if spec.is_multilabel else "mcc", noise=0.1, seed=4)
        config = TrainConfig(
            loss=spec,
            reg=reg,
            schedule=StepSchedule.theorem(0.05),
            total_steps=300,
            seed=8,
            record_every=1,
        )
        _, records = train(data, config)
        assert len(records) == 300

    def test_l2p_runs_complete_without_certificate(self):
        # the bound derivation is specific to the frobenius regularizer
        data = tiny_dataset()
        config = TrainConfig(
            loss=MLOG,
            reg=RegularizerSpec.l2p(0.05, 1.5),
            schedule=StepSchedule.theorem(0.05),
            total_steps=300,
            seed=2,
            record_every=100,
        )
        w, records = train(data, config)
        assert len(records) == 3
        assert np.all(np.isfinite(w))


class TestDescentProxy:
    def test_mean_objective_decreases_with_horizon(self):
        n = 400
        data = synth_gen(n=n, d=10, c=4, task="mcc", noise=0.05, seed=7)
        sigma = 0.05
        horizons = [n // 4, n // 2, n, 2 * n, 4 * n]
        means = []
        for total in horizons:
            finals = []
            for seed in range(10):
                w, _ = train(data, config_for(data, total_steps=total, seed=seed, sigma=sigma))
                finals.append(
                    evaluate_objective(w, data, MLOG, RegularizerSpec.frobenius(sigma))
                )
            means.append(float(np.mean(finals)))
        rho = spearmanr(horizons, means).statistic
        assert rho <= -0.9, (horizons, means, rho)


class TestTrainConfigValidation:
    def test_total_steps_positive(self):
        with pytest.raises(ValueError):
            config_for(tiny_dataset(), total_steps=0)

    def test_record_every_positive(self):
        with pytest.raises(ValueError):
            config_for(tiny_dataset(), total_steps=5, record_every=0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            config_for(tiny_dataset(), total_steps=5, seed=-1)
        with pytest.raises(ValueError):
            config_for(tiny_dataset(), total_steps=5, seed=2**64)
