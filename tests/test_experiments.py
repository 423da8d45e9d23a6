import io

import numpy as np
import pytest

from vvlearn.dataio import Dataset, split, subsample, synth_gen
from vvlearn.experiments import (
    CurveSpec,
    default_samplesize_grid,
    emit_csv,
    run_curve,
    run_passes_curve,
)
from vvlearn.losses import HINGE, LossSpec
from vvlearn.optimizer import StepSchedule, TrainConfig, evaluate_objective, train
from vvlearn.regularizers import RegularizerSpec
from vvlearn.seeding import derive_seed

MLOG = LossSpec.multinomial_logistic()
FRO = RegularizerSpec.frobenius(0.01)
SCHED = StepSchedule.experiment(0.01)


def make_spec(kind, grid, reps=2, seed=0, passes_per_point=2):
    return CurveSpec(
        kind=kind,
        grid=grid,
        repetitions=reps,
        loss=MLOG,
        reg=FRO,
        schedule=SCHED,
        seed=seed,
        passes_per_point=passes_per_point,
    )


@pytest.fixture(scope="module")
def pool():
    return synth_gen(n=300, d=6, c=3, task="mcc", noise=0.05, seed=2)


class TestCurveSpecValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            make_spec("passes", (2, 2, 3))
        with pytest.raises(ValueError):
            make_spec("passes", (3, 1))
        with pytest.raises(ValueError):
            make_spec("passes", (0, 1))
        with pytest.raises(ValueError):
            make_spec("passes", ())

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            make_spec("nope", (1, 2))

    def test_repetitions_positive(self):
        with pytest.raises(ValueError):
            make_spec("passes", (1, 2), reps=0)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            CurveSpec(
                kind="passes", grid=(1,), repetitions=1, loss=MLOG, reg=FRO,
                schedule=SCHED, seed=0, train_fraction=1.0,
            )


class TestPassesCurve:
    def test_single_grid_point_equals_one_train_call(self, pool):
        spec = make_spec("passes", (1,), reps=1, seed=4)
        test = run_passes_curve(pool, spec)
        assert test.shape == (1, 1)

        # replay the protocol by hand for the single repetition
        train_set, test_set = split(pool, 0.8, derive_seed(4, 11, 0))
        n = len(train_set)
        config = TrainConfig(
            loss=MLOG, reg=FRO, schedule=SCHED, total_steps=n,
            seed=derive_seed(4, 13, 0), record_every=n, eval_holdout=test_set,
        )
        w, records = train(train_set, config)
        expected = evaluate_objective(w, test_set, MLOG, FRO)
        assert test[0, 0] == expected

    def test_repetitions_equal_lone_train_runs(self, pool):
        # the repetitions run in lockstep; each equals its own train call bit for bit
        spec = make_spec("passes", (1, 3), reps=3, seed=4)
        test = run_passes_curve(pool, spec)
        for rep in range(3):
            train_set, test_set = split(pool, 0.8, derive_seed(4, 11, rep))
            n = len(train_set)
            config = TrainConfig(
                loss=MLOG, reg=FRO, schedule=SCHED, total_steps=3 * n,
                seed=derive_seed(4, 13, rep), record_every=n, eval_holdout=test_set,
            )
            _, records = train(train_set, config)
            assert test[:, rep].tolist() == [records[0].holdout_objective, records[2].holdout_objective]

    def test_grid_points_share_one_trajectory(self, pool):
        # evaluating at 1 and 2 passes must match two separate shorter runs
        spec2 = make_spec("passes", (1, 2), reps=1, seed=9)
        both = run_passes_curve(pool, spec2)
        only1 = run_passes_curve(pool, make_spec("passes", (1,), reps=1, seed=9))
        assert np.array_equal(both[0], only1[0])

    def test_only_test_metric(self, pool):
        spec = make_spec("passes", (1, 2))
        metrics = run_curve(pool, spec)
        assert set(metrics) == {"test"}
        assert np.array_equal(metrics["test"], run_passes_curve(pool, spec))

    def test_one_column_per_repetition(self, pool):
        test = run_passes_curve(pool, make_spec("passes", (1, 2), reps=3))
        assert test.shape == (2, 3)
        assert len(set(test[0])) == 3  # each repetition resplits the pool

    def test_kind_guard(self, pool):
        with pytest.raises(ValueError):
            run_passes_curve(pool, make_spec("gap", (1, 2)))


class TestSampleSizeAndGapCurves:
    def test_gap_is_test_minus_train(self, pool):
        metrics = run_curve(pool, make_spec("gap", (50, 100), reps=3, seed=1))
        assert metrics["gap"].shape == (2, 3)
        assert np.array_equal(metrics["gap"], metrics["test"] - metrics["train"])

    def test_gap_run_repeats_samplesize_run(self, pool):
        # the same spec fields give the same runs; the gap kind only adds a metric
        size = run_curve(pool, make_spec("samplesize", (40, 80), reps=3, seed=6))
        gap = run_curve(pool, make_spec("gap", (40, 80), reps=3, seed=6))
        assert set(size) == {"train", "test"}
        assert set(gap) == {"train", "test", "gap"}
        for metric in ("train", "test"):
            assert gap[metric].tobytes() == size[metric].tobytes()
        assert gap["gap"].tobytes() == (gap["test"] - gap["train"]).tobytes()

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "ragged"])
    def test_repetitions_equal_lone_train_runs(self, pool, sparse):
        if sparse:  # rows of different nnz, so lockstep steps score chain by chain
            dense = pool.X.toarray()
            dense[np.random.default_rng(0).random(dense.shape) < 0.5] = 0.0
            pool = Dataset(dense, pool.y, pool.c, pool.task)
        spec = CurveSpec(
            kind="samplesize", grid=(40, 80), repetitions=3, loss=LossSpec.mc_svm(HINGE),
            reg=FRO, schedule=SCHED, seed=6, passes_per_point=2,
        )
        metrics = run_curve(pool, spec)
        train_pool, test_set = split(pool, 0.8, derive_seed(6, 11))
        for gi, size in enumerate(spec.grid):
            for rep in range(3):
                subset = subsample(train_pool, size, derive_seed(6, 12, gi, rep))
                config = TrainConfig(
                    loss=spec.loss, reg=FRO, schedule=SCHED, total_steps=2 * size,
                    seed=derive_seed(6, 13, gi, rep), eval_holdout=test_set,
                )
                final = train(subset, config)[1][-1]
                assert metrics["train"][gi, rep] == final.empirical_objective
                assert metrics["test"][gi, rep] == final.holdout_objective

    def test_single_repetition_has_zero_std(self, pool):
        spec = make_spec("samplesize", (60,), reps=1)
        metrics = run_curve(pool, spec)
        assert metrics["train"].shape == metrics["test"].shape == (1, 1)
        buffer = io.StringIO()
        emit_csv(spec, metrics, buffer)
        assert [row.split(",")[3] for row in buffer.getvalue().split()[1:]] == ["0", "0"]

    def test_full_pool_point_matches_standard_split_protocol(self, pool):
        # a single grid value of 0.8 * n reduces to the plain 80/20 protocol
        size = int(0.8 * len(pool))
        spec = make_spec("samplesize", (size,), reps=1, seed=3, passes_per_point=2)
        metrics = run_curve(pool, spec)
        assert metrics["train"].shape == (1, 1)
        assert np.all(np.isfinite(metrics["train"]))

    def test_grid_exceeding_pool_rejected(self, pool):
        with pytest.raises(ValueError):
            run_curve(pool, make_spec("gap", (1000,)))

    def test_same_seed_same_curve(self, pool):
        a = run_curve(pool, make_spec("gap", (40, 80), reps=2, seed=5))
        b = run_curve(pool, make_spec("gap", (40, 80), reps=2, seed=5))
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestDefaultGrid:
    def test_geometric_doubling(self):
        assert default_samplesize_grid(1000) == (100, 200, 400, 800)
        assert default_samplesize_grid(6400) == (100, 200, 400, 800, 1600, 3200, 6400)

    def test_includes_cap_only_when_reached(self):
        assert default_samplesize_grid(100) == (100,)
        assert default_samplesize_grid(150) == (100,)

    def test_small_pool_rejected(self):
        with pytest.raises(ValueError):
            default_samplesize_grid(99)


class TestEmitCsv:
    def test_passes_schema_one_row_per_point(self, pool):
        spec = make_spec("passes", (1, 2))
        buffer = io.StringIO()
        emit_csv(spec, run_curve(pool, spec), buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert len(lines) == 3
        assert all(line.split(",")[1] == "test" for line in lines[1:])

    def test_gap_schema_three_rows_per_point(self, pool):
        spec = make_spec("gap", (50,))
        buffer = io.StringIO()
        emit_csv(spec, run_curve(pool, spec), buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert [line.split(",")[1] for line in lines[1:]] == ["train", "test", "gap"]

    def test_floats_round_trip(self, pool):
        spec = make_spec("gap", (50,), reps=2, seed=8)
        metrics = run_curve(pool, spec)
        buffer = io.StringIO()
        emit_csv(spec, metrics, buffer)
        row = buffer.getvalue().strip().split("\n")[2].split(",")
        assert float(row[2]) == np.mean(metrics["test"][0])
        assert float(row[3]) == np.std(metrics["test"][0])
        assert int(row[4]) == 2
