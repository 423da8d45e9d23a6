import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
import vvlearn.experiments as experiments_module
from vvlearn.dataio import Dataset, split, subsample, synth_gen
from vvlearn.experiments import (
    CurveSpec,
    default_samplesize_grid,
    emit_csv,
    run_curve,
    run_passes_curve,
    training_pool_size,
)
from vvlearn.losses import HINGE, LossSpec
from vvlearn.optimizer import StepSchedule, TrainConfig, evaluate_objective, iterates, train
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


@pytest.mark.parametrize("components", [(-1,), (3, -2), (3, 4, -1)])
def test_derive_seed_rejects_a_negative_component(components):
    with pytest.raises(ValueError, match="seed components must be nonnegative"):
        derive_seed(*components)


class TestPassesCurve:
    def test_single_grid_point_equals_one_train_call(self, pool):
        spec = make_spec("passes", (1,), reps=1, seed=4)
        test = run_passes_curve(pool, spec)
        assert test.shape == (1, 1)

        # replay the protocol by hand for the single repetition, on copies of the split
        train_rows, test_rows = split(len(pool), 0.8, derive_seed(4, 11, 0))
        n = len(train_rows)
        config = TrainConfig(
            loss=MLOG, reg=FRO, schedule=SCHED, total_steps=n, seed=derive_seed(4, 13, 0), record_every=n,
        )
        w, records = train(oracles.take(pool, train_rows), config)
        expected = evaluate_objective(w, oracles.take(pool, test_rows), MLOG, FRO)
        assert test[0, 0] == expected

    def test_repetitions_equal_lone_train_runs(self, pool):
        # the repetitions run in lockstep; each equals its own train calls on copies of its split bit for bit
        spec = make_spec("passes", (1, 3), reps=3, seed=4)
        test = run_passes_curve(pool, spec)
        for rep in range(3):
            train_rows, test_rows = split(len(pool), 0.8, derive_seed(4, 11, rep))
            n, held_out = len(train_rows), oracles.take(pool, test_rows)
            expected = []
            for passes in spec.grid:
                config = TrainConfig(
                    loss=MLOG, reg=FRO, schedule=SCHED, total_steps=passes * n, seed=derive_seed(4, 13, rep),
                )
                w, _ = oracles.lone_run(pool, train_rows, config)
                expected.append(evaluate_objective(w, held_out, MLOG, FRO))
            assert test[:, rep].tolist() == expected

    @pytest.mark.parametrize("loss", [MLOG, LossSpec.mc_svm(HINGE), LossSpec.topk_svm(2)], ids=lambda loss: loss.name)
    def test_test_objectives_equal_objectives_on_copied_test_rows(self, pool, loss):
        # the curve scores each chain's test rows of the pool at its grid passes, bit for bit as their copies
        spec = replace(make_spec("passes", (1, 2, 4), reps=3, seed=6), loss=loss)
        splits = [split(len(pool), 0.8, derive_seed(6, 11, rep)) for rep in range(3)]
        n = len(splits[0][0])
        configs = [
            TrainConfig(
                loss=loss, reg=FRO, schedule=SCHED, total_steps=4 * n, seed=derive_seed(6, 13, rep), record_every=n,
            )
            for rep in range(3)
        ]  # fmt: skip
        held_out = [oracles.take(pool, test_rows) for _, test_rows in splits]
        objectives = {
            t // n: [evaluate_objective(w_r, data, loss, FRO) for w_r, data in zip(w, held_out)]
            for t, w, _ in iterates(pool, [train_rows for train_rows, _ in splits], configs)
        }
        assert run_passes_curve(pool, spec).tolist() == [objectives[g] for g in spec.grid]

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


class TestOnePool:
    def test_repetitions_add_less_than_one_split_of_memory(self):
        # the curve-passes benchmark settings, on which one split copies about 0.5 MB
        pool = synth_gen(n=2000, d=20, c=5, task="mcc", noise=0.05, seed=0)
        split_bytes = sum(a.nbytes for a in (pool.X.data, pool.X.indices, pool.X.indptr, pool.X.indptr, pool.y))
        peaks = []
        for reps in (1, 10):
            tracemalloc.start()
            try:
                run_passes_curve(pool, make_spec("passes", (1,), reps=reps))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < split_bytes

    def test_curves_build_no_dataset(self, pool, monkeypatch):
        built = []
        monkeypatch.setattr(Dataset, "__post_init__", lambda self: built.append(self))
        for kind, grid in [("passes", (1, 2)), ("samplesize", (40, 80)), ("gap", (40, 80))]:
            run_curve(pool, make_spec(kind, grid, reps=3))
        assert built == []


class TestOneWalk:
    def test_a_gap_curve_is_one_iterates_call(self, pool, monkeypatch):
        # one chain per (size, repetition), longest first; the longest runs passes_per_point * max(grid) steps
        calls = []

        def spy(data, rows, configs):
            calls.append([config.total_steps for config in configs])
            return iterates(data, rows, configs)

        monkeypatch.setattr(experiments_module, "iterates", spy)
        run_curve(pool, make_spec("gap", (40, 80, 160), reps=3, passes_per_point=2))
        assert calls == [[320] * 3 + [160] * 3 + [80] * 3]

    def test_criterion_seven_walks_sixteen_thousand_lockstep_steps(self, monkeypatch):
        # one call per grid point walked 5 * (100 + 200 + ... + 3200) = 31,500 lockstep steps
        calls = []

        def spy(data, rows, configs):  # trains nothing
            calls.append([config.total_steps for config in configs])
            return iter(())

        monkeypatch.setattr(experiments_module, "iterates", spy)
        spec = make_spec("gap", (100, 200, 400, 800, 1600, 3200), reps=10, passes_per_point=5)
        run_curve(synth_gen(n=8000, d=20, c=5, task="mcc", noise=0.05, seed=0), spec)
        assert calls == [[5 * size for size in (3200, 1600, 800, 400, 200, 100) for _ in range(10)]]

    @pytest.mark.parametrize("kind", ["passes", "samplesize", "gap"])
    def test_a_split_leaving_an_empty_side_is_rejected_before_training(self, pool, monkeypatch, kind):
        monkeypatch.setattr(experiments_module, "iterates", lambda *a: pytest.fail("trained"))
        spec = replace(make_spec(kind, (1,)), train_fraction=0.001)
        with pytest.raises(ValueError, match="train fraction 0.001 leaves an empty side for n=300"):
            run_curve(pool, spec)

    def test_pool_size_is_the_training_side_of_the_split(self, pool):
        assert training_pool_size(len(pool), make_spec("gap", (240,))) == len(split(len(pool), 0.8, 0)[0]) == 240
        with pytest.raises(ValueError, match="grid value 241 exceeds the available training pool of 240"):
            training_pool_size(len(pool), make_spec("samplesize", (241,)))
        assert training_pool_size(len(pool), make_spec("passes", (241,))) == 240  # a passes grid counts passes


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
            dense = oracles.scipy_csr(pool.X).toarray()
            dense[np.random.default_rng(0).random(dense.shape) < 0.5] = 0.0
            pool = Dataset(dense, pool.y, pool.c, pool.task)
        spec = CurveSpec(
            kind="samplesize", grid=(40, 80), repetitions=3, loss=LossSpec.mc_svm(HINGE),
            reg=FRO, schedule=SCHED, seed=6, passes_per_point=2,
        )
        metrics = run_curve(pool, spec)
        train_rows, test_rows = split(len(pool), 0.8, derive_seed(6, 11))
        for gi, size in enumerate(spec.grid):
            for rep in range(3):
                subset = train_rows[subsample(len(train_rows), size, derive_seed(6, 12, gi, rep))]
                config = TrainConfig(
                    loss=spec.loss, reg=FRO, schedule=SCHED, total_steps=2 * size, seed=derive_seed(6, 13, gi, rep),
                )
                w, records = oracles.lone_run(pool, subset, config)
                assert metrics["train"][gi, rep] == records[-1].empirical_objective
                assert metrics["test"][gi, rep] == evaluate_objective(w, oracles.take(pool, test_rows), spec.loss, FRO)

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
