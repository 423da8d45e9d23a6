import numpy as np
import pytest

import vvlearn.optimizer as optimizer_module
from vvlearn.cli import DataError, load_model, main, save_model
from vvlearn.dataio import synth_gen, write_sparse_text
from vvlearn.losses import LossSpec
from vvlearn.optimizer import evaluate_mean_loss, evaluate_objective
from vvlearn.regularizers import RegularizerSpec


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def mcc_file(tmp_path):
    path = tmp_path / "mcc.txt"
    write_sparse_text(synth_gen(n=120, d=6, c=3, task="mcc", noise=0.1, seed=0), path)
    return str(path)


class TestModelContainer:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((7, 4))
        path = tmp_path / "m.bin"
        save_model(path, w, "mcc", {"loss": "multinomial_logistic", "seed": "3"})
        back, task, meta = load_model(path)
        assert np.array_equal(back, w)
        assert task == "mcc"
        assert meta == {"loss": "multinomial_logistic", "seed": "3"}

    def test_column_major_payload(self, tmp_path):
        w = np.arange(6, dtype=float).reshape(3, 2)
        path = tmp_path / "m.bin"
        save_model(path, w, "mlc")
        raw = path.read_bytes()
        payload = raw.split(b"\n", 1)[1]
        assert np.array_equal(
            np.frombuffer(payload, dtype="<f8"), w.ravel(order="F")
        )

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"something else\n\x00\x01")
        with pytest.raises(DataError):
            load_model(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(path, np.ones((3, 2)), "mcc")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataError):
            load_model(path)

    def test_rejects_unknown_task(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"vvlearn-model 1 xyz 1 1\n" + b"\x00" * 8)
        with pytest.raises(DataError):
            load_model(path)

    def test_negative_dimensions_are_data_error(self, tmp_path, mcc_file, capsys):
        # (-2) * (-3) * 8 = 48 payload bytes pass the size check
        model = tmp_path / "m.bin"
        model.write_bytes(b"vvlearn-model 1 mcc -2 -3\n" + b"\x00" * 48)
        with pytest.raises(DataError, match="malformed dimensions"):
            load_model(model)
        assert run("eval", "--model", str(model), "--data", mcc_file) == 2
        assert "data error" in capsys.readouterr().err

    def test_rejects_whitespace_metadata(self, tmp_path):
        with pytest.raises(ValueError):
            save_model(tmp_path / "m.bin", np.ones((1, 1)), "mcc", {"a": "b c"})


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        capsys.readouterr()

    def test_no_subcommand_is_usage_error(self):
        assert run() == 1

    def test_unknown_flag(self):
        assert run("train", "--loss", "mlogistic", "--bogus") == 1

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1


class TestTrainCommand:
    def test_happy_path_writes_files(self, tmp_path, capsys):
        model = tmp_path / "model.bin"
        log = tmp_path / "log.csv"
        code = run(
            "train", "--synth", "n=200,d=5,c=3,noise=0.05", "--loss", "mlogistic",
            "--lambda", "0.01", "--passes", "2", "--seed", "7",
            "--model-out", str(model), "--log-out", str(log),
        )
        assert code == 0
        w, task, meta = load_model(model)
        assert task == "mcc" and w.shape == (5, 3)
        assert meta["loss"] == "multinomial_logistic"
        assert meta["seed"] == "7"
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "step,empirical_objective,holdout_objective,iterate_frobenius_norm"
        assert len(lines) == 3  # two passes at n=200, recorded per pass
        assert "objective=" in capsys.readouterr().out

    def test_missing_loss(self):
        assert run("train", "--synth", "n=50,d=3,c=2", "--sigma", "0.1", "--passes", "1") == 1

    def test_steps_and_passes_mutually_exclusive(self, tmp_path):
        base = [
            "train", "--synth", "n=50,d=3,c=2", "--loss", "mlogistic",
            "--sigma", "0.1", "--model-out", str(tmp_path / "m.bin"),
            "--log-out", str(tmp_path / "l.csv"),
        ]
        assert run(*base, "--steps", "10", "--passes", "1") == 1
        assert run(*base) == 1  # neither

    def test_sigma_and_lambda_mutually_exclusive(self):
        assert run(
            "train", "--synth", "n=50,d=3,c=2", "--loss", "mlogistic",
            "--sigma", "0.1", "--lambda", "0.1", "--passes", "1",
        ) == 1

    def test_k_zero_rejected(self):
        assert run(
            "train", "--synth", "n=50,d=3,c=3", "--loss", "topk", "--k", "0",
            "--sigma", "0.1", "--passes", "1",
        ) == 1

    def test_zero_steps_rejected(self, tmp_path, capsys):
        assert run(
            "train", "--synth", "n=50,d=3,c=3", "--loss", "mlogistic",
            "--sigma", "0.1", "--steps", "0",
            "--model-out", str(tmp_path / "m.bin"), "--log-out", str(tmp_path / "l.csv"),
        ) == 1
        assert "usage error: total_steps must be positive, got 0" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize(
        "strength", [("--sigma", "inf"), ("--lambda", "inf"), ("--sigma", "1e-320")]
    )
    def test_non_finite_strength_fails_before_first_step(self, tmp_path, monkeypatch, capsys, strength):
        steps = []
        monkeypatch.setattr(optimizer_module, "_chunks", lambda *a: steps.append(1) or iter(()))
        code = run(
            "train", "--synth", "n=50,d=3,c=3", "--loss", "mlogistic", *strength,
            "--passes", "1",
            "--model-out", str(tmp_path / "m.bin"), "--log-out", str(tmp_path / "l.csv"),
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert steps == []
        assert not (tmp_path / "m.bin").exists()

    def test_k_at_least_c_is_data_error(self, tmp_path):
        assert run(
            "train", "--synth", "n=50,d=3,c=3", "--loss", "topk", "--k", "3",
            "--sigma", "0.1", "--passes", "1",
            "--model-out", str(tmp_path / "m.bin"), "--log-out", str(tmp_path / "l.csv"),
        ) == 2

    def test_multilabel_loss_needs_mlc_task(self):
        assert run(
            "train", "--synth", "n=50,d=3,c=3", "--loss", "subset",
            "--sigma", "0.1", "--passes", "1",
        ) == 1

    def test_mlc_loss_on_mlc_synth(self, tmp_path):
        code = run(
            "train", "--synth", "n=60,d=4,c=3,task=mlc", "--loss", "ranking",
            "--base", "logistic", "--sigma", "0.1", "--passes", "1", "--seed", "1",
            "--model-out", str(tmp_path / "m.bin"), "--log-out", str(tmp_path / "l.csv"),
        )
        assert code == 0
        _, task, _ = load_model(tmp_path / "m.bin")
        assert task == "mlc"

    def test_missing_data_file(self, tmp_path):
        assert run(
            "train", "--data", str(tmp_path / "absent.txt"), "--loss", "mlogistic",
            "--sigma", "0.1", "--passes", "1",
        ) == 2

    def test_bad_synth_spec(self):
        assert run(
            "train", "--synth", "n=50,bogus=3", "--loss", "mlogistic",
            "--sigma", "0.1", "--passes", "1",
        ) == 1
        assert run(
            "train", "--synth", "d=3,c=2", "--loss", "mlogistic",
            "--sigma", "0.1", "--passes", "1",
        ) == 1

    def test_data_and_synth_mutually_exclusive(self, mcc_file):
        assert run(
            "train", "--data", mcc_file, "--synth", "n=10,d=2,c=2",
            "--loss", "mlogistic", "--sigma", "0.1", "--passes", "1",
        ) == 1

    def test_repeat_runs_byte_identical(self, tmp_path):
        args = [
            "train", "--synth", "n=150,d=5,c=3,noise=0.05", "--loss", "mc_svm",
            "--base", "hinge", "--sigma", "0.05", "--passes", "2", "--seed", "3",
        ]
        m1, l1 = tmp_path / "m1.bin", tmp_path / "l1.csv"
        m2, l2 = tmp_path / "m2.bin", tmp_path / "l2.csv"
        assert run(*args, "--model-out", str(m1), "--log-out", str(l1)) == 0
        assert run(*args, "--model-out", str(m2), "--log-out", str(l2)) == 0
        assert m1.read_bytes() == m2.read_bytes()
        assert l1.read_bytes() == l2.read_bytes()


class TestLabelFaultsFailUpFront:
    """Labels a loss cannot take are data errors (exit 2) before any step."""

    @pytest.fixture()
    def one_sign_file(self, tmp_path):
        path = tmp_path / "one_sign.txt"
        path.write_text("1 1:0.5 2:1.0\n2 1:1.0\n1,2 2:0.3\n")  # row 3 has no -1
        return str(path)

    @pytest.fixture()
    def one_class_file(self, tmp_path):
        path = tmp_path / "one_class.txt"
        path.write_text("0 1:0.5\n0 1:1.0\n")
        return str(path)

    def outputs(self, tmp_path):
        return ["--model-out", str(tmp_path / "m.bin"), "--log-out", str(tmp_path / "l.csv")]

    def test_ranking_row_without_both_signs(self, tmp_path, one_sign_file, capsys):
        assert run(
            "train", "--data", one_sign_file, "--task", "mlc", "--loss", "ranking",
            "--sigma", "0.1", "--steps", "50", *self.outputs(tmp_path),
        ) == 2
        assert "one sign only" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_subset_accepts_the_same_file(self, tmp_path, one_sign_file):
        assert run(
            "train", "--data", one_sign_file, "--task", "mlc", "--loss", "subset",
            "--sigma", "0.1", "--steps", "50", *self.outputs(tmp_path),
        ) == 0

    def test_one_class_file_under_multiclass_loss(self, tmp_path, one_class_file, capsys):
        assert run(
            "train", "--data", one_class_file, "--loss", "mc_svm",
            "--sigma", "0.1", "--steps", "50", *self.outputs(tmp_path),
        ) == 2
        assert "at least 2 components" in capsys.readouterr().err

    def test_curve_checks_labels(self, tmp_path, one_sign_file):
        assert run(
            "curve", "--kind", "passes", "--data", one_sign_file, "--task", "mlc",
            "--loss", "ranking", "--grid", "1", "--out", str(tmp_path / "x.csv"),
        ) == 2

    def test_eval_checks_labels(self, tmp_path, one_sign_file):
        model = tmp_path / "m.bin"
        save_model(model, np.zeros((2, 2)), "mlc")
        assert run(
            "eval", "--model", str(model), "--data", one_sign_file, "--loss", "ranking",
        ) == 2


class TestEvalCommand:
    def train_once(self, tmp_path, mcc_file):
        model = tmp_path / "model.bin"
        log = tmp_path / "log.csv"
        assert run(
            "train", "--data", mcc_file, "--loss", "mlogistic", "--lambda", "0.01",
            "--passes", "2", "--seed", "0",
            "--model-out", str(model), "--log-out", str(log),
        ) == 0
        return model

    def test_prints_objective_and_loss(self, tmp_path, mcc_file, capsys):
        model = self.train_once(tmp_path, mcc_file)
        capsys.readouterr()
        assert run("eval", "--model", str(model), "--data", mcc_file) == 0
        out = capsys.readouterr().out
        fields = dict(part.split("=") for part in out.split())
        assert set(fields) == {"objective", "loss"}

        # reloading the model and evaluating in memory gives the same bytes
        w, task, _ = load_model(model)
        from vvlearn.dataio import normalize_rows, parse_sparse_text
        data = normalize_rows(parse_sparse_text(mcc_file, task, d=w.shape[0], c=w.shape[1]))
        loss = LossSpec.multinomial_logistic()
        reg = RegularizerSpec.frobenius(0.01)
        assert float(fields["objective"]) == evaluate_objective(w, data, loss, reg)
        assert float(fields["loss"]) == evaluate_mean_loss(w, data, loss)

    def test_scores_the_file_once(self, tmp_path, mcc_file, monkeypatch, capsys):
        model = self.train_once(tmp_path, mcc_file)
        rows = []
        value = LossSpec.value
        monkeypatch.setattr(LossSpec, "value", lambda self, S, y: rows.append(len(S)) or value(self, S, y))
        assert run("eval", "--model", str(model), "--data", mcc_file) == 0
        assert sum(rows) == 120
        capsys.readouterr()

    def test_objective_minus_loss_is_reg_value(self, tmp_path, mcc_file, capsys):
        model = self.train_once(tmp_path, mcc_file)
        capsys.readouterr()
        assert run("eval", "--model", str(model), "--data", mcc_file, "--sigma", "0.5") == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        w, _, _ = load_model(model)
        reg_value = RegularizerSpec.frobenius(0.5).value(w)
        assert np.isclose(
            float(fields["objective"]) - float(fields["loss"]), reg_value, atol=1e-12
        )

    def test_zero_model_log_c(self, tmp_path, capsys):
        c = 10
        data = synth_gen(n=50, d=4, c=c, task="mcc", noise=0.0, seed=1)
        data_path = tmp_path / "ten.txt"
        write_sparse_text(data, data_path)
        model = tmp_path / "zero.bin"
        save_model(model, np.zeros((4, c)), "mcc")
        assert run("eval", "--model", str(model), "--data", str(data_path)) == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert np.isclose(float(fields["loss"]), np.log(c), atol=1e-12)

    def test_missing_model(self, tmp_path, mcc_file):
        assert run("eval", "--model", str(tmp_path / "no.bin"), "--data", mcc_file) == 2

    def test_dimension_mismatch_is_data_error(self, tmp_path, mcc_file):
        model = tmp_path / "small.bin"
        save_model(model, np.zeros((2, 3)), "mcc")  # d=2 < data's d=6
        assert run("eval", "--model", str(model), "--data", mcc_file) == 2

    def test_multilabel_loss_against_mcc_model_is_data_error(self, tmp_path, mcc_file):
        model = self.train_once(tmp_path, mcc_file)
        assert run(
            "eval", "--model", str(model), "--data", mcc_file, "--loss", "subset"
        ) == 2


class TestCurveCommand:
    def test_passes_requires_grid(self):
        assert run(
            "curve", "--kind", "passes", "--synth", "n=100,d=4,c=3",
        ) == 1

    def test_gap_curve_schema(self, tmp_path):
        out = tmp_path / "gap.csv"
        code = run(
            "curve", "--kind", "gap", "--synth", "n=200,d=4,c=3,noise=0.05",
            "--grid", "40,80", "--reps", "2", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "grid,metric,mean,std,repetitions"
        assert len(lines) == 1 + 2 * 3

    def test_default_grid_for_samplesize(self, tmp_path):
        out = tmp_path / "size.csv"
        code = run(
            "curve", "--kind", "samplesize", "--synth", "n=300,d=4,c=3",
            "--reps", "1", "--out", str(out),
        )
        assert code == 0
        grids = {line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]}
        assert grids == {"100", "200"}  # pool of 240 after the 80/20 split

    def test_grid_beyond_pool_is_data_error(self, tmp_path):
        assert run(
            "curve", "--kind", "gap", "--synth", "n=100,d=4,c=3",
            "--grid", "500", "--out", str(tmp_path / "x.csv"),
        ) == 2

    @pytest.mark.parametrize("grid", [(), ("--grid", "100")])
    def test_bad_train_fraction_is_usage_error(self, tmp_path, capsys, grid):
        # the default grid and the pool check must not size a pool from it first
        out = tmp_path / "x.csv"
        assert run(
            "curve", "--kind", "gap" if grid else "samplesize",
            "--synth", "n=1000,d=5,c=3,seed=1", *grid,
            "--train-fraction", "-0.5", "--out", str(out),
        ) == 1
        assert "train_fraction must lie in (0, 1), got -0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_string(self, tmp_path):
        assert run(
            "curve", "--kind", "passes", "--synth", "n=100,d=4,c=3",
            "--grid", "1,two", "--out", str(tmp_path / "x.csv"),
        ) == 1

    def test_byte_identical_reruns(self, tmp_path):
        base = [
            "curve", "--kind", "gap", "--synth", "n=150,d=4,c=3,noise=0.05",
            "--grid", "30,60", "--reps", "2", "--seed", "5",
        ]
        a, b = (tmp_path / name for name in ("a.csv", "b.csv"))
        assert run(*base, "--out", str(a)) == 0
        assert run(*base, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRademacherCommand:
    def test_exact_small_case(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run(
            "rademacher", "--n", "5", "--c", "2", "--d", "4",
            "--lambda-cap", "0.5", "--sigma", "1.0", "--trials", "0",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "nc,trials,estimate,std_error,lower_bound,upper_bound,pass"
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[3]) == 0.0  # exact mode: no monte-carlo error
            assert parts[6] == "true"
        capsys.readouterr()

    def test_monte_carlo_case(self, tmp_path):
        code = run(
            "rademacher", "--n", "30", "--c", "4", "--d", "5",
            "--lambda-cap", "0.5", "--sigma", "1.0", "--trials", "4000",
            "--seed", "2", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 0

    def test_exact_mode_needs_small_nc(self, tmp_path):
        assert run(
            "rademacher", "--n", "11", "--c", "2", "--d", "3",
            "--trials", "0", "--out", str(tmp_path / "r.csv"),
        ) == 1

    def test_inflated_lower_bound_exits_three(self, tmp_path, capsys):
        code = run(
            "rademacher", "--n", "5", "--c", "2", "--d", "4",
            "--lambda-cap", "0.5", "--sigma", "1.0", "--trials", "0",
            "--seed", "1", "--out", str(tmp_path / "r.csv"),
            "--inflate-lower", "3.0",
        )
        assert code == 3
        capsys.readouterr()

    def test_rejects_negative_random_samples(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(
            "rademacher", "--n", "5", "--c", "2", "--d", "4", "--trials", "0",
            "--random-samples", "-1", "--out", str(out),
        ) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "cap_sigma",
        [
            ("--sigma", "1e-320"),
            ("--lambda-cap", "1e308", "--sigma", "1e-10"),
            ("--sigma", "1e308"),  # m * sigma overflows: upper bound 0
            ("--sigma", "1e307", "--lambda-cap", "1e-300"),  # radius underflows to 0
        ],
    )
    def test_overflowing_radius_exits_one(self, tmp_path, capsys, cap_sigma):
        out = tmp_path / "r.csv"
        assert run(
            "rademacher", "--n", "3", "--c", "2", "--d", "2", "--trials", "0",
            *cap_sigma, "--out", str(out),
        ) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_cap_with_finite_radius_passes(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run(
            "rademacher", "--n", "2", "--c", "2", "--d", "3", "--trials", "0",
            "--lambda-cap", "1e308", "--sigma", "10", "--out", str(out),
        ) == 0
        assert "lower=1.58114e+153 upper=2.23607e+153" in capsys.readouterr().out
        assert all(line.endswith(",true") for line in out.read_text().split()[1:])

    def test_huge_cap_monte_carlo_standard_error_is_finite(self, tmp_path, capsys):
        # R is about 1.26e154, so the squared suprema would overflow
        out = tmp_path / "r.csv"
        assert run(
            "rademacher", "--n", "2", "--c", "2", "--d", "3", "--trials", "10000",
            "--lambda-cap", "8e307", "--sigma", "1", "--out", str(out),
        ) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().split()[1:]]
        assert len(rows) == 3
        for row in rows:
            assert 0.0 < float(row[3]) < float(row[2]) < np.inf
            assert row[6] == "true"

    def test_rejects_nonpositive_dimensions(self, tmp_path):
        assert run(
            "rademacher", "--n", "0", "--c", "2", "--d", "3",
            "--out", str(tmp_path / "r.csv"),
        ) == 1


class TestCheckCommand:
    def test_lipschitz_suite_passes(self, capsys):
        assert run("check", "--suite", "lipschitz", "--trials", "100", "--seed", "1") == 0
        assert "lipschitz: PASS" in capsys.readouterr().out

    def test_convexity_suite_passes(self, capsys):
        assert run("check", "--suite", "convexity", "--trials", "60", "--seed", "0") == 0
        capsys.readouterr()

    def test_override_lipschitz_fails_with_counterexample(self, capsys):
        code = run(
            "check", "--suite", "lipschitz", "--trials", "100", "--seed", "1",
            "--override-lipschitz", "mc_svm/hinge=0.5",
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "counterexample" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_override_lipschitz_must_be_finite_and_nonnegative(self, capsys, value):
        assert run(
            "check", "--suite", "lipschitz", "--trials", "5",
            "--override-lipschitz", f"mc_svm/hinge={value}",
        ) == 1
        assert "PASS" not in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_empty_run_rejected(self, capsys, trials):
        assert run("check", "--suite", "lipschitz", "--trials", trials) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "trials must be positive" in captured.err

    def test_override_unknown_name(self):
        assert run(
            "check", "--suite", "lipschitz", "--override-lipschitz", "nope=1.0"
        ) == 1

    def test_bad_suite_name(self):
        assert run("check", "--suite", "bogus") == 1
