import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import spearmanr

import oracles
import vvlearn.optimizer as optimizer_module
from vvlearn.core import frobenius_norm
from vvlearn.dataio import Dataset, synth_gen
from vvlearn.losses import HINGE, LossSpec, standard_loss_specs
from vvlearn.optimizer import (
    CertificateError,
    StepSchedule,
    TrainConfig,
    evaluate_mean_loss,
    evaluate_objective,
    train,
    train_many,
)
from vvlearn.regularizers import RegularizerSpec
from vvlearn.seeding import generator

MLOG = LossSpec.multinomial_logistic()


def tiny_dataset(n=40, d=5, c=3, seed=0, task="mcc"):
    return synth_gen(n=n, d=d, c=c, task=task, noise=0.1, seed=seed)


def single_row(x, y, c=None):
    """A one-row multiclass dataset with dense input x and class y."""
    return Dataset(np.array([x], dtype=float), np.array([y]), c or y + 2, "mcc")


def loss_grad(loss, w, data, i=0):
    """The dense (d, c) loss subgradient at row i."""
    x = data.X[i].toarray()
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


class TestEvaluateObjective:
    def test_zero_model_log_c(self):
        data = tiny_dataset(c=4)
        w = np.zeros((data.d, data.c))
        got = evaluate_objective(w, data, MLOG, RegularizerSpec.frobenius(0.1))
        assert np.isclose(got, np.log(4), atol=1e-12)

    def test_single_example_identity(self):
        data = tiny_dataset(n=2)
        first = data.take([0])
        w = np.full((data.d, data.c), 0.2)
        reg = RegularizerSpec.frobenius(0.3)
        got = evaluate_objective(w, first, MLOG, reg)
        scores = first.X.toarray()[0] @ w
        assert np.isclose(got, oracles.row_value(MLOG, scores, first.y[0]) + reg.value(w), atol=1e-15)

    def test_naive_two_pass_oracle(self):
        rng = np.random.default_rng(6)
        data = tiny_dataset(n=37)
        reg = RegularizerSpec.l2p(0.4, 1.5)
        for _ in range(10):
            w = rng.standard_normal((data.d, data.c))
            dense = data.X.toarray()
            values = [oracles.row_value(MLOG, dense[i] @ w, data.y[i]) for i in range(len(data))]
            naive = sum(values) / len(values) + reg.value(w)
            assert np.isclose(evaluate_objective(w, data, MLOG, reg), naive, atol=1e-12)

    def test_mean_loss_excludes_regularizer(self):
        data = tiny_dataset(n=8)
        w = np.full((data.d, data.c), 0.3)
        reg = RegularizerSpec.frobenius(0.5)
        assert np.isclose(
            evaluate_objective(w, data, MLOG, reg) - evaluate_mean_loss(w, data, MLOG),
            reg.value(w),
            atol=1e-12,
        )

    def test_empty_data_rejected(self):
        empty = Dataset(sp.csr_matrix((0, 2)), np.zeros(0, dtype=int), 2, "mcc")
        with pytest.raises(ValueError):
            evaluate_objective(np.zeros((2, 2)), empty, MLOG, RegularizerSpec.frobenius(0.1))


class TestBatchedEvaluation:
    @pytest.mark.parametrize(
        "spec",
        standard_loss_specs(k=2) + [LossSpec.topk_svm(3), LossSpec.topk_svm(4)],
        ids=lambda s: s.name,
    )
    def test_matches_per_row_oracle(self, spec):
        data = sparse_wide_dataset("mlc" if spec.is_multilabel else "mcc", n=300, d=60)
        rng = np.random.default_rng(8)
        dense = data.X.toarray()
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
        whole = evaluate_mean_loss(w, data, spec)
        monkeypatch.setattr(optimizer_module, "_EVAL_CHUNK_ENTRIES", 7 * data.c * data.c)
        assert evaluate_mean_loss(w, data, spec) == whole

    def test_weight_shape_checked(self):
        data = tiny_dataset()
        with pytest.raises(ValueError):
            evaluate_mean_loss(np.zeros((data.d, data.c + 1)), data, MLOG)


class TestLabelsCheckedUpFront:
    @pytest.mark.parametrize(
        "holdout, match",
        [(tiny_dataset(d=7), "data has dimensions"), (tiny_dataset(task="mlc"), "class indices")],
        ids=["wrong-d", "mlc-under-mlogistic"],
    )
    def test_bad_holdout_fails_before_training(self, monkeypatch, holdout, match):
        data = tiny_dataset()
        steps = []
        monkeypatch.setattr(optimizer_module, "_chunks", lambda *a: steps.append(1) or iter(()))
        config = TrainConfig(
            loss=MLOG,
            reg=RegularizerSpec.frobenius(0.05),
            schedule=StepSchedule.theorem(0.05),
            total_steps=10,
            seed=0,
            record_every=5,
            eval_holdout=holdout,
        )
        with pytest.raises(ValueError, match=match):
            train(data, config)
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

    def test_holdout_objective_recorded(self):
        data = tiny_dataset(seed=0)
        holdout = tiny_dataset(seed=1)
        config = TrainConfig(
            loss=MLOG,
            reg=RegularizerSpec.frobenius(0.05),
            schedule=StepSchedule.theorem(0.05),
            total_steps=40,
            seed=0,
            record_every=20,
            eval_holdout=holdout,
        )
        w, records = train(data, config)
        assert all(r.holdout_objective is not None for r in records)
        assert np.isclose(
            records[-1].holdout_objective,
            evaluate_objective(w, holdout, MLOG, config.reg),
            atol=1e-15,
        )

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
    rebuilt from plain sgd_step calls."""
    indices = generator(config.seed).integers(0, len(data), size=config.total_steps)
    w = np.zeros((data.d, data.c))
    norms = []
    for t, i in enumerate(indices, start=1):
        w = oracles.sgd_step(w, data, int(i), config.loss, config.reg, config.schedule.eta(t))
        norms.append(frobenius_norm(w))
    return w, norms


REGULARIZERS = [RegularizerSpec.frobenius(0.05), RegularizerSpec.l2p(0.05, 1.5), RegularizerSpec.l2p(0.05, 1.1)]


class TestLazyLoopOracle:
    SIGMA = 0.05

    @pytest.mark.parametrize(
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
    @pytest.mark.parametrize("spec", standard_loss_specs(k=2), ids=lambda s: s.name)
    @pytest.mark.parametrize("reg", REGULARIZERS, ids=lambda r: r.name)
    def test_train_matches_dense_sgd_step_replay(self, monkeypatch, reg, spec, schedule):
        data = sparse_wide_dataset("mlc" if spec.is_multilabel else "mcc")
        config = TrainConfig(
            loss=spec,
            reg=reg,
            schedule=schedule,
            total_steps=2000,
            seed=17,
            record_every=500,
        )
        running, exact = [], []  # (step, norm) of every certificate check
        check_running, check_iterate = optimizer_module._check_running, optimizer_module._check_iterate

        def spy_running(a, v_sq, bounds, t, loss, reg):
            (sq,) = v_sq  # one chain
            running.append((t, abs(a) * np.sqrt(abs(sq))))
            check_running(a, v_sq, bounds, t, loss, reg)

        def spy_iterate(norm, bound, t, loss, reg, r=None):
            exact.append((t, norm))
            check_iterate(norm, bound, t, loss, reg, r)

        monkeypatch.setattr(optimizer_module, "_check_running", spy_running)
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
    return Dataset(np.where(keep, base.X.toarray(), 0.0), base.y, c, task)


def chain_configs(loss, reg, schedule, total_steps, record_every=None, repetitions=3, holdouts=None):
    holdouts = holdouts or [None] * repetitions
    return [
        TrainConfig(
            loss=loss,
            reg=reg,
            schedule=schedule,
            total_steps=total_steps,
            seed=100 + r,
            record_every=record_every,
            eval_holdout=holdouts[r],
        )
        for r in range(repetitions)
    ]


def assert_chains_equal_lone_runs(datasets, configs):
    runs = train_many(datasets, configs)
    assert len(runs) == len(configs)
    for (w, records), data, config in zip(runs, datasets, configs):
        w_alone, records_alone = train(data, config)
        assert w.shape == w_alone.shape and w.tobytes() == w_alone.tobytes()
        assert records == records_alone


class TestLockstepChains:
    SIGMA = 0.05

    def test_mlogistic_on_dense_data(self):
        datasets = [tiny_dataset(n=60, d=7, c=4, seed=s) for s in range(4)]
        holdouts = [tiny_dataset(n=30, d=7, c=4, seed=10 + s) for s in range(4)]
        configs = chain_configs(
            MLOG, RegularizerSpec.frobenius(0.01), StepSchedule.experiment(0.01), 300,
            record_every=60, repetitions=4, holdouts=holdouts,
        )
        assert_chains_equal_lone_runs(datasets, configs)

    def test_ranking_on_multilabel_data(self):
        datasets = [tiny_dataset(n=50, d=6, c=5, seed=s, task="mlc") for s in range(3)]
        configs = chain_configs(
            LossSpec.ranking(HINGE), RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 250,
            record_every=50,
        )
        assert_chains_equal_lone_runs(datasets, configs)

    def test_ragged_sparse_rows(self):
        datasets = [ragged_dataset(seed=s) for s in range(3)]
        configs = chain_configs(
            LossSpec.mc_svm(HINGE), RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 400,
            record_every=100,
        )
        uniform = [flag for chunk in optimizer_module._chunks(datasets, configs) for flag in chunk[-1]]
        assert len(uniform) == 400 and 0 < uniform.count(False) < 400
        assert_chains_equal_lone_runs(datasets, configs)

    def test_l2p_regularizer(self):
        datasets = [sparse_wide_dataset("mcc", n=80, d=30, seed=s) for s in range(3)]
        configs = chain_configs(
            MLOG, RegularizerSpec.l2p(self.SIGMA, 1.5), StepSchedule.theorem(self.SIGMA), 300, record_every=75
        )
        assert_chains_equal_lone_runs(datasets, configs)

    def test_scale_folds(self):
        # eta_t * sigma = 3.5 / t: the shared scale falls below the fold floor at step 381
        datasets = [sparse_wide_dataset("mcc", n=80, d=30, seed=s) for s in range(3)]
        configs = chain_configs(
            MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA / 3.5), 500,
            record_every=100,
        )
        assert_chains_equal_lone_runs(datasets, configs)

    @pytest.mark.parametrize("spec", standard_loss_specs(k=2), ids=lambda s: s.name)
    def test_every_loss(self, spec):
        task = "mlc" if spec.is_multilabel else "mcc"
        datasets = [ragged_dataset(task, n=60, seed=s) for s in range(3)]
        configs = chain_configs(
            spec, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 120, record_every=40
        )
        assert_chains_equal_lone_runs(datasets, configs)

    def test_run_longer_than_one_chunk_matches_dense_replay(self):
        datasets = [sparse_wide_dataset("mcc", seed=s) for s in range(3)]
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 2500)
        assert configs[0].total_steps > 2 * optimizer_module._DRAW_CHUNK_ENTRIES // (3 * 5)  # nnz is 5
        for (w, _), data, config in zip(train_many(datasets, configs), datasets, configs):
            expected, _ = dense_replay(data, config)
            assert np.max(np.abs(w - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))

    def test_chunk_size_changes_no_value(self, monkeypatch):
        datasets = [ragged_dataset(seed=s) for s in range(3)]
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 300)
        runs = train_many(datasets, configs)
        monkeypatch.setattr(optimizer_module, "_DRAW_CHUNK_ENTRIES", 7)
        for (w, records), (w_small, records_small) in zip(runs, train_many(datasets, configs)):
            assert w.tobytes() == w_small.tobytes() and records == records_small

    def test_chain_over_its_bound_is_named(self):
        datasets = [tiny_dataset(seed=s) for s in range(3)]
        datasets[2].kappa = 1e-6  # a bound no nonzero step-1 iterate meets
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20)
        with pytest.raises(CertificateError, match="certified bound .* at step 1 in chain 2 "):
            train_many(datasets, configs)

    def test_non_finite_chain_is_named(self, monkeypatch):
        coef = LossSpec.coef

        def nan_in_chain_one(self, S, y):
            out = coef(self, S, y)
            out[1] = np.nan
            return out

        monkeypatch.setattr(LossSpec, "coef", nan_in_chain_one)
        datasets = [tiny_dataset(seed=s) for s in range(3)]
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20)
        with pytest.raises(CertificateError, match="iterate norm became nan at step 1 in chain 1 "):
            train_many(datasets, configs)

    def test_inflated_chain_coefficients_are_named(self, monkeypatch):
        coef = LossSpec.coef

        def inflate_chain_two(self, S, y):
            out = coef(self, S, y)
            out[2] *= 3.0
            return out

        monkeypatch.setattr(LossSpec, "coef", inflate_chain_two)
        datasets = [tiny_dataset(seed=s) for s in range(3)]
        configs = chain_configs(
            MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20, record_every=1
        )
        with pytest.raises(CertificateError, match="loss coefficients at step 1 in chain 2 have l1 norm"):
            train_many(datasets, configs)

    @pytest.mark.parametrize(
        "change",
        [
            {"loss": LossSpec.mc_svm(HINGE)},
            {"reg": RegularizerSpec.frobenius(0.1)},
            {"schedule": StepSchedule.experiment(0.05)},
            {"total_steps": 21},
            {"record_every": 5},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_configs_must_agree(self, change):
        datasets = [tiny_dataset(seed=s) for s in range(3)]
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20)
        configs[1] = replace(configs[1], **change)
        with pytest.raises(ValueError, match="config 1 differs from config 0"):
            train_many(datasets, configs)

    @pytest.mark.parametrize("shape", [{"d": 6}, {"c": 4}], ids=["d", "c"])
    def test_datasets_must_agree_on_dimensions(self, shape):
        datasets = [tiny_dataset(seed=0), tiny_dataset(seed=1, **shape)]
        configs = chain_configs(
            MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20, repetitions=2
        )
        with pytest.raises(ValueError, match="dataset 1 has dimensions"):
            train_many(datasets, configs)

    def test_one_config_per_dataset(self):
        configs = chain_configs(MLOG, RegularizerSpec.frobenius(self.SIGMA), StepSchedule.theorem(self.SIGMA), 20)
        with pytest.raises(ValueError, match="one config per dataset"):
            train_many([tiny_dataset()], configs)
        with pytest.raises(ValueError, match="at least one dataset"):
            train_many([], [])


class TestIterateNormCertificate:
    @pytest.mark.parametrize("spec", standard_loss_specs(k=2), ids=lambda s: s.name)
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
        monkeypatch.setattr(optimizer_module, "_CERT_TOL", -1e6)
        with pytest.raises(CertificateError, match="certified bound") as err:
            train(data, config_for(data, total_steps=50, record_every=50))
        assert int(re.search(r"at step (\d+)", str(err.value)).group(1)) < 50

    @pytest.mark.parametrize("reg", REGULARIZERS[:2], ids=lambda r: r.name)
    def test_non_finite_iterate_fails_fast(self, monkeypatch, reg):
        data = tiny_dataset()
        monkeypatch.setattr(LossSpec, "coef", lambda self, S, y: np.full(S.shape, np.nan))
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
        coef = LossSpec.coef
        monkeypatch.setattr(LossSpec, "coef", lambda self, S, y: 3.0 * coef(self, S, y))
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

    @pytest.mark.parametrize("spec", standard_loss_specs(k=2), ids=lambda s: s.name)
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
