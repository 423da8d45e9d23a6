import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from oracles import write_sparse_text
import vvlearn.checks as checks_module
import vvlearn.cli as cli_module
import vvlearn.optimizer as optimizer_module
from vvlearn.cli import DataError, load_model, main, save_model
from vvlearn.dataio import Dataset, normalize_rows, parse_sparse_text, synth_gen
from vvlearn.losses import LossSpec
from vvlearn.optimizer import evaluate_objective, mean_loss
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

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"vvlearn-model 2 mcc 1 1", "unsupported model version 2"),
            (b"vvlearn-model 1 mcc 1 1 seed", "malformed metadata token 'seed'"),
        ],
        ids=["version", "token"],
    )
    def test_rejects_a_bad_header(self, tmp_path, header, message):
        path = tmp_path / "m.bin"
        path.write_bytes(header + b"\n" + b"\x00" * 8)
        with pytest.raises(DataError, match=f"{path}: {message}$"):
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

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite_weights(self, tmp_path, capsys, bad):
        model = tmp_path / "m.bin"
        assert run(
            "train", "--synth", "n=50,d=3,c=2", "--loss", "mlogistic", "--sigma", "0.1", "--steps", "20",
            "--model-out", str(model), "--log-out", str(tmp_path / "l.csv"),
        ) == 0
        header, payload = model.read_bytes().split(b"\n", 1)
        model.write_bytes(header + b"\n" + np.array([bad], dtype="<f8").tobytes() + payload[8:])
        with pytest.raises(DataError, match="NaN or infinite"):
            load_model(model)
        data = tmp_path / "d.txt"
        write_sparse_text(synth_gen(n=20, d=3, c=2, task="mcc", noise=0.1, seed=0), data)
        capsys.readouterr()
        assert run("eval", "--model", str(model), "--data", str(data)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"data error: {model}: weights hold a NaN" in captured.err

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--suite", "lipschitz", "--trials", "5", "--seed", "-1"],
            ["train", "--synth", "n=5,d=3,c=2,seed=-1", "--loss", "mc_svm", "--sigma", "0.1", "--steps", "10"],
        ],
        ids=["check", "synth"],
    )
    def test_negative_seed_is_usage_error(self, capsys, argv):
        assert run(*argv) == 1
        assert capsys.readouterr().err == "usage error: seed must be nonnegative, got -1\n"

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # a good train, a usage error, a curve and --help, twice over through the one cached parser
        argvs = [
            ["train", "--synth", "n=40,d=3,c=3", "--loss", "mlogistic", "--sigma", "0.1", "--passes", "1",
             "--model-out", str(tmp_path / "m.bin"), "--log-out", str(tmp_path / "l.csv")],
            ["train", "--loss", "mlogistic", "--bogus"],
            ["curve", "--kind", "passes", "--synth", "n=60,d=3,c=3", "--grid", "1,2", "--reps", "2",
             "--out", str(tmp_path / "c.csv")],
            ["--help"],
        ]  # fmt: skip
        cli_module._build_parser.cache_clear()
        rounds = []
        for _ in range(2):
            calls = []
            for argv in argvs:
                code = run(*argv)
                captured = capsys.readouterr()
                calls.append((code, captured.out, captured.err))
            files = [(tmp_path / name).read_bytes() for name in ("m.bin", "l.csv", "c.csv")]
            rounds.append((calls, files))
        assert [code for code, _, _ in rounds[0][0]] == [0, 1, 0, 0]
        assert "usage error: unrecognized arguments: --bogus" in rounds[0][0][1][2]
        assert rounds[0][0][3][1].startswith("usage: vvlearn")
        assert rounds[1] == rounds[0]
        assert cli_module._build_parser.cache_info().misses == 1


def test_train_peak_memory_on_a_sparse_multilabel_file(tmp_path):
    # 5,000 rows of 20 entries at d = 2,000 and c = 10, and 4,000 steps: two full draw chunks of 1,638 steps.
    # Both chunks' arrays alive at once (a 6.5 MB peak) or one gather of w for every row the evaluation
    # scores (8.7 MB) would take the traced peak (5.2 MB) past the bound.
    n, d, k, c = 5000, 2000, 20, 10
    rng = np.random.default_rng(23)
    cols = np.concatenate([np.sort(rng.choice(d, size=k, replace=False)) for _ in range(n)])
    y = -np.ones((n, c), dtype=np.int8)
    for i, labels in enumerate(rng.integers(1, 4, size=n)):
        y[i, rng.choice(c, size=labels, replace=False)] = 1
    y[:, 0] = np.where(np.all(y > 0, axis=1), -1, y[:, 0])  # the ranking loss needs both signs
    X = sp.csr_matrix((rng.standard_normal(n * k), cols, np.arange(0, n * k + 1, k)), shape=(n, d))
    path = tmp_path / "train.txt"
    write_sparse_text(Dataset(X, y, c, "mlc"), path)
    argv = [
        "train", "--data", str(path), "--task", "mlc", "--loss", "ranking", "--base", "hinge", "--sigma", "0.01",
        "--steps", "4000", "--record-every", "4000", "--seed", "5",
        "--model-out", str(tmp_path / "m.bin"), "--log-out", str(tmp_path / "l.csv"),
    ]  # fmt: skip
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 6 << 20


def test_runs_without_a_logistic_base_import_no_scipy(tmp_path):
    data = tmp_path / "mlc.txt"
    write_sparse_text(synth_gen(n=60, d=8, c=4, task="mlc", noise=0.1, seed=0), data)
    runs = [
        [
            "train", "--data", str(data), "--task", "mlc", "--loss", "ranking", "--base", "hinge", "--sigma", "0.1",
            "--steps", "200", "--model-out", str(tmp_path / "m.bin"), "--log-out", str(tmp_path / "log.csv"),
        ],
        ["curve", "--kind", "passes", "--synth", "n=100,d=4,c=3", "--grid", "1,2", "--reps", "2", "--out", str(tmp_path / "c.csv")],
        ["rademacher", "--n", "5", "--c", "2", "--d", "4", "--trials", "100", "--out", str(tmp_path / "r.csv")],
    ]  # fmt: skip
    script = (
        "import json, sys\nfrom vvlearn.cli import main\nfor argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0, argv\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env, check=True, capture_output=True, text=True)
    assert run.stdout.splitlines()[-1] == "[]"  # the scipy modules loaded, after the runs' own output


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

    def test_sigma_or_lambda_required(self, capsys):
        assert run("train", "--synth", "n=50,d=3,c=2", "--loss", "mlogistic", "--passes", "1") == 1
        assert capsys.readouterr().err == "usage error: exactly one of --sigma or --lambda is required\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--steps", "0"], "total_steps must be positive, got 0"),
            (["--passes", "0"], "total_steps must be positive, got 0"),
            (["--steps", "5", "--seed", "-1"], "seed must fit in 64 unsigned bits, got -1"),
            (["--steps", "5", "--record-every", "-1"], "record_every must be positive, got -1"),
        ],
        ids=["steps", "passes", "seed", "record-every"],
    )
    def test_flags_are_checked_before_the_data_is_read(self, tmp_path, capsys, flags, message):
        model, log = tmp_path / "m.bin", tmp_path / "l.csv"
        argv = ["train", "--data", str(tmp_path / "missing.txt"), "--loss", "mc_svm", "--sigma", "1", *flags]
        assert run(*argv, "--model-out", str(model), "--log-out", str(log)) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not model.exists() and not log.exists()

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

    def test_certificate_failure_exits_three_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        resolve = LossSpec.coef_kernel  # the kernel training resolves once per run

        def tripled(self):
            kernel = resolve(self)
            return lambda S, y, out: np.multiply(3.0, kernel(S, y, out), out=out)

        monkeypatch.setattr(LossSpec, "coef_kernel", tripled)
        model, log = tmp_path / "m.bin", tmp_path / "l.csv"
        code = run(
            "train", "--synth", "n=50,d=3,c=3", "--loss", "mlogistic", "--sigma", "0.1",
            "--passes", "1", "--model-out", str(model), "--log-out", str(log),
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "property failure: loss coefficients at step 1 have l1 norm 4, above the certified max-norm Lipschitz "
            "constant 2 (loss multinomial_logistic)"
        )
        assert captured.out == ""
        assert not model.exists() and not log.exists()

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

    def test_undecodable_data_file_is_data_error(self, tmp_path, mcc_file, capsys):
        data = tmp_path / "bytes.txt"
        data.write_bytes(b"1 1:0.5\n2 2:\xff\n")
        model = tmp_path / "m.bin"
        assert run("train", "--data", mcc_file, "--loss", "mlogistic", "--sigma", "0.1", "--passes", "1",
                   "--model-out", str(model), "--log-out", str(tmp_path / "l.csv")) == 0  # fmt: skip
        commands = [
            ["train", "--loss", "mlogistic", "--sigma", "0.1", "--passes", "1", "--model-out", str(tmp_path / "x.bin")],
            ["eval", "--model", str(model)],
            ["curve", "--kind", "passes", "--grid", "1", "--out", str(tmp_path / "c.csv")],
        ]
        for argv in commands:
            capsys.readouterr()
            assert run(*argv, "--data", str(data)) == 2
            assert capsys.readouterr().err.startswith("data error: line 2: cannot decode b'\\xff' as ")

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
        label_map = {i: i for i in range(w.shape[1])}
        data = normalize_rows(parse_sparse_text(mcc_file, task, d=w.shape[0], label_map=label_map))
        loss = LossSpec.multinomial_logistic()
        reg = RegularizerSpec.frobenius(0.01)
        assert float(fields["objective"]) == evaluate_objective(w, data, loss, reg)
        assert float(fields["loss"]) == mean_loss(w, data, loss)

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


class TestModelRecordsHowItsDataWasRead:
    """eval takes class ids and row normalization from the model, not from flags or the file."""

    TRAIN = ("--loss", "mlogistic", "--lambda", "0.01", "--passes", "3", "--seed", "0")

    @staticmethod
    def write(path, ids, scale_rows=False, keep=lambda raw: True):
        """300 synthetic rows with class k written as ids[k]."""
        data = synth_gen(n=300, d=6, c=3, task="mcc", noise=0.1, seed=0)
        if scale_rows:
            scales = 10.0 ** np.random.default_rng(1).uniform(-1.0, 1.0, size=len(data))
            data = Dataset(oracles.scipy_csr(data.X).multiply(scales[:, None]).tocsr(), data.y, data.c, data.task)
        write_sparse_text(Dataset(data.X, data.y, data.c, data.task, {raw: k for k, raw in enumerate(ids)}), path)
        lines = [line for line in path.read_text().splitlines() if keep(int(line.split()[0]))]
        path.write_text("\n".join(lines) + "\n")
        return path

    def train(self, tmp_path, data, *flags):
        model, log = tmp_path / "m.bin", tmp_path / "log.csv"
        assert run(
            "train", "--data", str(data), *self.TRAIN, *flags,
            "--model-out", str(model), "--log-out", str(log),
        ) == 0
        return model, log.read_text().splitlines()[-1].split(",")[1]

    def evaluate(self, capsys, model, data):
        capsys.readouterr()
        assert run("eval", "--model", str(model), "--data", str(data)) == 0
        return dict(part.split("=") for part in capsys.readouterr().out.split())

    def test_rotated_file_scores_the_training_objective(self, tmp_path, capsys):
        data = self.write(tmp_path / "ids.txt", (5, 7, 9))
        model, logged = self.train(tmp_path, data)
        lines = data.read_text().splitlines()
        turn = next(i for i, line in enumerate(lines) if line.split()[0] != lines[0].split()[0])
        rotated = tmp_path / "rotated.txt"
        rotated.write_text("\n".join(lines[turn:] + lines[:turn]) + "\n")
        assert self.evaluate(capsys, model, data)["objective"] == logged
        assert self.evaluate(capsys, model, rotated)["objective"] == logged
        first_seen = dict.fromkeys(line.split()[0] for line in lines)
        assert load_model(model)[2]["classes"] == ",".join(first_seen)

    def test_one_based_subset_scores_under_the_models_map(self, tmp_path, capsys):
        data = self.write(tmp_path / "ids.txt", (1, 3, 2))
        assert data.read_text().startswith("2 ")
        model, _ = self.train(tmp_path, data)
        subset = self.write(tmp_path / "subset.txt", (1, 3, 2), keep=lambda raw: raw != 3)
        w, task, _ = load_model(model)
        label_map = parse_sparse_text(data, task).label_map
        rows = normalize_rows(parse_sparse_text(subset, task, d=w.shape[0], label_map=label_map))
        expected = mean_loss(w, rows, LossSpec.multinomial_logistic())
        assert float(self.evaluate(capsys, model, subset)["loss"]) == expected

    def test_no_normalize_model_scores_the_training_objective(self, tmp_path, capsys):
        data = self.write(tmp_path / "scaled.txt", (0, 1, 2), scale_rows=True)
        model, logged = self.train(tmp_path, data, "--no-normalize")
        assert load_model(model)[2]["normalize"] == "false"
        assert self.evaluate(capsys, model, data)["objective"] == logged

    def test_dense_ids_write_no_classes_token(self, tmp_path):
        model, _ = self.train(tmp_path, self.write(tmp_path / "dense.txt", (0, 1, 2)))
        assert "classes" not in load_model(model)[2]

    def test_unknown_id_is_data_error(self, tmp_path, capsys):
        model, _ = self.train(tmp_path, self.write(tmp_path / "ids.txt", (5, 7, 9)))
        other = self.write(tmp_path / "other.txt", (5, 8, 9))
        capsys.readouterr()
        assert run("eval", "--model", str(model), "--data", str(other)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "label id 8" in captured.err

    def test_model_without_classes_reads_ids_as_columns(self, tmp_path, capsys):
        model = tmp_path / "old.bin"
        save_model(model, np.zeros((6, 3)), "mcc")
        data = self.write(tmp_path / "ids.txt", (5, 7, 9))
        assert run("eval", "--model", str(model), "--data", str(data)) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "task,token",
        [
            ("mcc", {"classes": "5,x,9"}),
            ("mcc", {"classes": "5,5,9"}),
            ("mcc", {"classes": "5,7"}),
            ("mcc", {"classes": "5,7,9,11"}),
            ("mcc", {"classes": ""}),
            ("mlc", {"classes": "0,1,2"}),
            ("mcc", {"normalize": "yes"}),
            ("mcc", {"normalize": ""}),
        ],
    )
    def test_malformed_model_token_is_data_error(self, tmp_path, capsys, task, token):
        model = tmp_path / "bad.bin"
        save_model(model, np.zeros((6, 3)), task, token)
        data = self.write(tmp_path / "ids.txt", (0, 1, 2))
        assert run("eval", "--model", str(model), "--data", str(data), "--loss", "mc_svm") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "model token" in captured.err

    def test_eval_has_no_normalize_flag(self, tmp_path, mcc_file):
        model = tmp_path / "zero.bin"
        save_model(model, np.zeros((6, 3)), "mcc")
        for flag in ("--normalize", "--no-normalize"):
            assert run("eval", "--model", str(model), "--data", mcc_file, flag) == 1

    def test_rows_past_the_norm_range_train(self, tmp_path):
        data = tmp_path / "huge.txt"
        data.write_text("0 1:1e200 2:3e199\n1 1:1e-200 2:2e-200\n0 1:1.0 2:-2.0\n")
        assert run(
            "train", "--data", str(data), "--loss", "mc_svm", "--lambda", "0.01", "--steps", "20",
            "--model-out", str(tmp_path / "m.bin"), "--log-out", str(tmp_path / "l.csv"),
        ) == 0
        assert np.all(np.isfinite(load_model(tmp_path / "m.bin")[0]))

    def test_synthetic_rows_are_not_renormalized(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_module, "normalize_rows", lambda data: pytest.fail("renormalized"))
        assert run(
            "train", "--synth", "n=40,d=3,c=3", "--loss", "mlogistic", "--lambda", "0.01",
            "--passes", "1", "--model-out", str(tmp_path / "m.bin"), "--log-out", str(tmp_path / "l.csv"),
        ) == 0
        assert load_model(tmp_path / "m.bin")[2]["normalize"] == "true"


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

    @pytest.mark.parametrize(
        "n, fraction, kind",
        [(1, "0.8", "passes"), (3, "0.1", "passes"), (1, "0.8", "samplesize"), (3, "0.1", "gap")],
    )
    def test_pool_too_small_to_split_is_data_error(self, tmp_path, capsys, n, fraction, kind):
        out = tmp_path / "x.csv"
        assert run(
            "curve", "--kind", kind, "--synth", f"n={n},d=2,c=2", "--grid", "1", "--reps", "1",
            "--train-fraction", fraction, "--out", str(out),
        ) == 2
        assert f"train fraction {fraction} leaves an empty side for n={n}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kind", "passes", "--grid", "1", "--reps", "0"], "repetitions must be positive, got 0"),
            (["--kind", "passes", "--grid", "1,x"], "--grid must be comma-separated integers, got '1,x'"),
            (["--kind", "gap", "--grid", "10", "--passes-per-point", "0"], "passes_per_point must be positive, got 0"),
            (["--kind", "passes", "--grid", "1", "--seed", "-1"], "seed must be nonnegative, got -1"),
        ],
        ids=["reps", "grid", "passes-per-point", "seed"],
    )
    def test_flags_are_checked_before_the_data_is_read(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.csv"
        assert run("curve", *flags, "--data", str(tmp_path / "missing.txt"), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
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

    def test_unallocatable_sample_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # numpy's message for n * c = 4e9 pairs of d = 6, as --n 2000000 --c 2000 --d 6 raises it
        message = "Unable to allocate 179. GiB for an array with shape (4000000000, 6) and data type float64"

        def fail(**kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli_module, "sandwich_check", fail)
        out = tmp_path / "r.csv"
        assert run(
            "rademacher", "--n", "2000000", "--c", "2000", "--d", "6", "--trials", "1", "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()


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

    def test_override_lipschitz_names_the_topk_loss(self, capsys):
        code = run(
            "check", "--suite", "lipschitz", "--trials", "100", "--seed", "1",
            "--override-lipschitz", "topk_svm/k=2=0.5",
        )
        assert code == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("lipschitz: FAIL")
        assert all(line.startswith("  counterexample: loss=topk_svm/k=2 ") for line in lines[1:11])

    def test_override_lipschitz_reaches_the_sgd_bound_suite(self, monkeypatch, capsys):
        # ten short runs instead of ten of SGD_PASSES * SGD_N = 20,000 steps
        monkeypatch.setattr(checks_module, "SGD_N", 200)
        monkeypatch.setattr(checks_module, "SGD_PASSES", 1)
        assert run("check", "--suite", "sgd-bound", "--seed", "0") == 0
        assert capsys.readouterr().out == "sgd-bound: PASS (10 checks)\n"
        code = run(
            "check", "--suite", "sgd-bound", "--seed", "0", "--override-lipschitz", "ranking/hinge=0.5",
        )
        assert code == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sgd-bound: FAIL (1 of 10 checks)"
        assert lines[1] == (
            "  counterexample: loss=ranking/hinge: loss coefficients at step 1 have l1 norm 2, "
            "above the certified max-norm Lipschitz constant 0.5 (loss ranking/hinge)"
        )
        assert len(lines) == 2

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

    def test_override_lipschitz_needs_a_value(self, capsys):
        assert run("check", "--suite", "lipschitz", "--trials", "5", "--override-lipschitz", "mc_svm/hinge") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "usage error: --override-lipschitz takes name=value\n"

    def test_override_unknown_name(self):
        assert run(
            "check", "--suite", "lipschitz", "--override-lipschitz", "nope=1.0"
        ) == 1

    def test_bad_suite_name(self):
        assert run("check", "--suite", "bogus") == 1


class TestOutputDirectoriesCheckedUpFront:
    """A missing output directory exits 2 before training, curves or enumeration start."""

    @pytest.mark.parametrize(
        "argv, work, missing",
        [
            (["train", "--synth", "n=50,d=3,c=3", "--loss", "mlogistic", "--sigma", "0.1", "--passes", "1",
              "--model-out", "{gone}/m.bin", "--log-out", "{tmp}/l.csv"], "train", "--model-out"),
            (["train", "--synth", "n=50,d=3,c=3", "--loss", "mlogistic", "--sigma", "0.1", "--passes", "1",
              "--model-out", "{tmp}/m.bin", "--log-out", "{gone}/l.csv"], "train", "--log-out"),
            (["curve", "--kind", "passes", "--synth", "n=100,d=3,c=3", "--grid", "1,2", "--reps", "2",
              "--out", "{gone}/curve.csv"], "run_curve", "--out"),
            (["rademacher", "--n", "10", "--c", "2", "--d", "6", "--trials", "0",
              "--out", "{gone}/r.csv"], "sandwich_check", "--out"),
        ],
        ids=["train-model", "train-log", "curve", "rademacher"],
    )  # fmt: skip
    def test_missing_directory_exits_two_and_writes_nothing(self, tmp_path, monkeypatch, capsys, argv, work, missing):
        calls = []
        monkeypatch.setattr(cli_module, work, lambda *a, **k: calls.append(a))
        gone = tmp_path / "no_such_dir"
        argv = [arg.format(gone=gone, tmp=tmp_path) for arg in argv]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        path = argv[argv.index(missing) + 1]
        assert captured.err == f"data error: {path}: output directory {gone} does not exist\n"
        assert captured.out == ""
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_bare_file_name_writes_to_the_working_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("rademacher", "--n", "2", "--c", "2", "--d", "3", "--trials", "0", "--out", "r.csv") == 0
        assert (tmp_path / "r.csv").exists()
        capsys.readouterr()
