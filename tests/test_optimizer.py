import re

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
    RunRecord,
    StepSchedule,
    TrainConfig,
    evaluate_mean_loss,
    evaluate_objective,
    sgd_step,
    train,
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


class TestSgdStep:
    def test_zero_model_frobenius_is_pure_loss_step(self):
        data = single_row([1.0, -2.0], 1, c=3)
        w = np.zeros((2, 3))
        reg = RegularizerSpec.frobenius(0.7)
        stepped = sgd_step(w, data, 0, MLOG, reg, 0.25)
        expected = -0.25 * loss_grad(MLOG, w, data)
        assert np.allclose(stepped, expected, atol=1e-15)

    def test_eta_zero_is_identity(self):
        data = single_row([1.0], 0)
        w = np.array([[0.3, -0.2]])
        out = sgd_step(w, data, 0, MLOG, RegularizerSpec.frobenius(1.0), 0.0)
        assert np.array_equal(out, w)

    def test_hand_derived_softmax_step(self):
        # c=2, d=1, x=(1), y=0, sigma=1, eta=1 from the zero matrix:
        # softmax at zero is (1/2, 1/2), so the update is (+1/2, -1/2)
        data = single_row([1.0], 0)
        w = np.zeros((1, 2))
        out = sgd_step(w, data, 0, MLOG, RegularizerSpec.frobenius(1.0), 1.0)
        assert np.allclose(out, np.array([[0.5, -0.5]]), atol=1e-15)

    def test_input_not_mutated(self):
        data = single_row([1.0, 2.0], 0)
        w = np.full((2, 2), 0.5)
        before = w.copy()
        sgd_step(w, data, 0, MLOG, RegularizerSpec.frobenius(0.5), 0.1)
        assert np.array_equal(w, before)

    def test_dimension_mismatch(self):
        data = single_row([1.0, 2.0, 3.0], 0)
        with pytest.raises(ValueError):
            sgd_step(np.zeros((2, 2)), data, 0, MLOG, RegularizerSpec.frobenius(0.5), 0.1)


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
        monkeypatch.setattr(optimizer_module, "_draws", lambda *a: steps.append(1) or iter(()))
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
        monkeypatch.setattr(optimizer_module, "_draws", lambda *a: steps.append(1) or iter(()))
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
        manual = sgd_step(
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

    def test_elapsed_excluded_from_equality(self):
        a = RunRecord(step=1, empirical_objective=0.5, holdout_objective=None,
                      iterate_frobenius_norm=1.0, elapsed=0.1)
        b = RunRecord(step=1, empirical_objective=0.5, holdout_objective=None,
                      iterate_frobenius_norm=1.0, elapsed=99.0)
        assert a == b


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
        w = sgd_step(w, data, int(i), config.loss, config.reg, config.schedule.eta(t))
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
        checked = []  # (step, norm) of every certificate check, running and exact
        check = optimizer_module._check_iterate
        monkeypatch.setattr(
            optimizer_module,
            "_check_iterate",
            lambda norm, bound, t, loss, reg: (checked.append((t, norm)), check(norm, bound, t, loss, reg)),
        )
        w, _ = train(data, config)
        expected, norms = dense_replay(data, config)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(w - expected)) <= 1e-12 * scale
        assert {t for t, _ in checked} == set(range(1, config.total_steps + 1))
        assert max(abs(norm - norms[t - 1]) for t, norm in checked) <= 1e-12 * max(1.0, max(norms))


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
