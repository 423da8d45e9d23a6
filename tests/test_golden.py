"""The bytes of fifteen small CLI runs, pinned by their sha256.

A change meant to keep every result bit for bit leaves these digests alone.
One that moves numbers on purpose updates them here and lists old -> new
values in CHANGES.md.  The runs cover the step loop's main paths: sparse
ranking rows under the theorem schedule (the scale folds at step 1, and
some rows have more than 256 pairs), ragged multiclass rows with one
chain under mc_svm and under the multinomial logistic loss (the blocked
step walk with one-hot labels), lockstep passes curves of full-width rows
under each multiclass loss, a one-chain passes curve whose 3,277 steps end in a one-step chunk,
a full-width mc_svm train whose scale folds at step 1 inside the dense step
loop, and the group (2, p) regularizer.  A ranking gap curve scores
train and test objectives over subsets of the pool.  A ragged train and a passes curve read files in which one row
in seven has labels and no features.  Two ``rademacher`` runs pin the
sandwich CSV: an exhaustive one over 2^20 sign vectors, whose bits no
block size may move, and a Monte-Carlo one.  The last evaluates the ranking model on a file the parser
has to work for: comment and blank lines, CRLF endings and unsorted feature
indices.
``vvlearn check`` runs are pinned the same way, by the digest of their
stdout and their exit code, two of them with counterexamples: one from a
ranking loss and one from a multiclass loss.

The digests hold at any BLAS thread count: no result goes through a BLAS
reduction that splits its sum across threads.  The ``train`` cases run in
subprocesses at ``OPENBLAS_NUM_THREADS`` 1 and 2 to keep it so.

They were pinned under numpy's AVX-512 dispatch (numpy 2.4.6 on an x86-64
machine with AVX-512).  With ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"``, and also with ``X86_V3`` disabled besides, ``passes-curve``,
``ragged-mlogistic`` and ``l2p`` fail and the other 23 cases pass: numpy's
AVX-512 float64 ``exp`` and ``log`` loops, which the multinomial logistic
loss of those runs calls, and its AVX-512 (SVML) float64 ``power`` loop,
which the group-(2, p) regularizer calls for ``col_norms ** p``, round
differently in the last place from the loops numpy falls back to.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vvlearn
from vvlearn.cli import main
from vvlearn.seeding import generator


def sparse_lines(task, n, d, c, seed, empty_every=0):
    """Sparse text rows of 1 to 10 entries over d columns.

    mlc rows get 1 to c / 2 positive components at random, so with c = 36
    some rows have more than 256 (positive, negative) pairs.  With
    empty_every = m, rows m - 1, 2m - 1, ... keep only their labels.
    """
    rng = generator(seed)
    lines = []
    for i in range(n):
        cols = np.sort(rng.choice(d, size=int(rng.integers(1, 11)), replace=False))
        if i == 0:
            cols[-1] = d - 1  # fixes the parsed d
        vals = rng.standard_normal(len(cols))
        if task == "mlc":
            positive = np.sort(rng.choice(c, size=int(rng.integers(1, c // 2 + 1)), replace=False))
            if i == 0:
                positive = np.union1d(positive, [c - 1])  # fixes the parsed c
            head = ",".join(str(int(j) + 1) for j in positive)
        else:
            head = str(c - 1 if i == 0 else int(rng.integers(0, c)))
        if empty_every and i % empty_every == empty_every - 1:
            cols = cols[:0]
        lines.append(" ".join([head, *(f"{int(j) + 1}:{float(v)!r}" for j, v in zip(cols, vals))]))
    return "\n".join(lines) + "\n"


CASES = {
    "ranking-sparse-theorem": (
        ("mlc", 300, 400, 36, 1),
        ["train", "--task", "mlc", "--loss", "ranking", "--sigma", "0.05", "--steps", "3000",
         "--record-every", "1000", "--seed", "7"],
    ),
    "ragged-mcc-one-chain": (
        ("mcc", 200, 60, 5, 2),
        ["train", "--loss", "mc_svm", "--lambda", "0.01", "--steps", "2000", "--record-every", "500",
         "--seed", "11"],
    ),
    "ragged-mlogistic": (
        ("mcc", 200, 60, 5, 14),
        ["train", "--loss", "mlogistic", "--lambda", "0.01", "--steps", "2000", "--record-every", "500",
         "--seed", "17"],
    ),
    "passes-curve": (
        None,
        ["curve", "--kind", "passes", "--synth", "n=300,d=10,c=4,noise=0.1,seed=3", "--grid", "1,2,3",
         "--reps", "3", "--seed", "5"],
    ),
    "passes-curve-mc-svm": (
        None,
        ["curve", "--kind", "passes", "--synth", "n=300,d=10,c=4,noise=0.1,seed=3", "--loss", "mc_svm", "--grid",
         "1,2,3", "--reps", "3", "--seed", "5"],
    ),
    "passes-curve-topk": (
        None,
        ["curve", "--kind", "passes", "--synth", "n=300,d=10,c=4,noise=0.1,seed=3", "--loss", "topk", "--k", "2",
         "--grid", "1,2,3", "--reps", "3", "--seed", "5"],
    ),
    "passes-curve-one-step-chunk": (
        None,
        ["curve", "--kind", "passes", "--synth", "n=4097,d=10,c=4,noise=0.1,seed=3", "--grid", "1", "--reps", "1",
         "--seed", "2"],
    ),
    "l2p": (
        None,
        ["train", "--synth", "n=200,d=12,c=4,noise=0.1,seed=4", "--loss", "mlogistic", "--reg", "l2p",
         "--p", "1.5", "--sigma", "0.05", "--steps", "1000", "--record-every", "250", "--seed", "23"],
    ),
    "dense-fold-mc-svm": (
        None,
        ["train", "--synth", "n=200,d=12,c=4,noise=0.1,seed=4", "--loss", "mc_svm", "--sigma", "0.05",
         "--steps", "1000", "--record-every", "250", "--seed", "23"],
    ),
    "ranking-gap-curve": (
        None,
        ["curve", "--kind", "gap", "--synth", "n=600,d=10,c=6,noise=0.1,task=mlc,seed=3", "--task", "mlc",
         "--loss", "ranking", "--grid", "100,200,400", "--reps", "3", "--seed", "5"],
    ),
    "ragged-empty-rows": (
        ("mcc", 210, 60, 5, 6, 7),
        ["train", "--loss", "mc_svm", "--lambda", "0.01", "--steps", "2000", "--record-every", "500",
         "--seed", "13"],
    ),
    "passes-curve-empty-rows": (
        ("mcc", 210, 60, 5, 9, 7),
        ["curve", "--kind", "passes", "--loss", "mc_svm", "--grid", "1,2,3", "--reps", "3", "--seed", "5"],
    ),
    "rademacher-exact": (None, ["rademacher", "--n", "10", "--c", "2", "--d", "6", "--trials", "0", "--seed", "3"]),
    "rademacher-monte-carlo": (
        None, ["rademacher", "--n", "100", "--c", "4", "--d", "6", "--trials", "4000", "--seed", "3"],
    ),
}  # fmt: skip

DIGESTS = {
    "ranking-sparse-theorem": {
        "model.bin": "d43a517dfb87fecc01663f7032027e1d3a5c254598dc729cc4dc1c48fe1d2c65",
        "log.csv": "8709af78788e40a6cf2b1750e6f389fce25385715b9b6425344022822d017a23",
    },
    "ragged-mcc-one-chain": {
        "model.bin": "87e5713f8a501f2147d65b748196a33d8ece9b0a0059445e9f31eb7d579259a6",
        "log.csv": "322e4e46ee1a3aeebde52a9bf7bb19cd2104f1650d2aedc30f269cccedcb825f",
    },
    "ragged-mlogistic": {
        "model.bin": "cfea320e75ac5a7f01ca6048d4c77444270d6db65f799cff4f453be190a5a4e2",
        "log.csv": "d159500043599dfd3634077f39608b1339a729494922cb868494226f5fe8e3fb",
    },
    "passes-curve": {
        "out.csv": "a8261446d04cdd4523090c55cfb90e31d7b35fc5b47beac326390f91df0f3e3c",
    },
    "passes-curve-mc-svm": {
        "out.csv": "fac7e88b8474bdfc1a5468d233697a18ff139cb23cb4e33cb1c1020c6caa5e2b",
    },
    "passes-curve-topk": {
        "out.csv": "4b34f153b66d179dc82bd957b2d9a5f5d4bc81f5d43f51bd44ca95cd3fc1368b",
    },
    "passes-curve-one-step-chunk": {
        "out.csv": "722753fe6bbe58c999f414dcc87ed07fe57c34aafe8611029204ddca4ed8ee0d",
    },
    "l2p": {
        "model.bin": "dc585362991da2ab45eea42ff464965680f5aa862a81a701257a875566486310",
        "log.csv": "761964af97b0c1c37981565116463abd2e48f1ebe7d01c898347b2155dfdbd5b",
    },
    "dense-fold-mc-svm": {
        "model.bin": "0c69ff9a980b20d9f3e1546dabeff30a6d4aaaeb6a537af9c0f9903161a65729",
        "log.csv": "3d9ceafbd9221ee90d7fbbf3edf1e8c27e23f8b43962de70b59d50bc3986c784",
    },
    "ranking-gap-curve": {
        "out.csv": "a4c442d31fbfa6fb1d26b23c0dc2c049aeca0a87ff2392625c97d064202bd675",
    },
    "ragged-empty-rows": {
        "model.bin": "bfd24502fa644aae5e11b512af69b555126b6a1f5bd56e0cf62ac5a68e0c93d9",
        "log.csv": "3aa6ae771bd15b7a8f57864ca2c59a37e4159fa2ebfaf652f001109540eaa765",
    },
    "passes-curve-empty-rows": {
        "out.csv": "de40d4ac95ea8a10bb9edd01cbb81af3eebe917d0d0f46ceeb57564c3fbb4f41",
    },
    "rademacher-exact": {
        "out.csv": "281bcf6b276f46310874ca3121be5c279938e4a890aefb7c000a8ead873ae43c",
    },
    "rademacher-monte-carlo": {
        "out.csv": "a4582e5dc9b3c683310081361c9d6fd1c56d5ff016c7e8561b2cc342df47d9b9",
    },
    "eval-messy-mlc": {
        "stdout": "466c333189a11244a68d08896d10e4bbfee5b41f16af18cf0b682f4d223549ae",
    },
}


def case_argv(case, out):
    """The CLI arguments of a golden case, writing its data and outputs under the directory out."""
    data, argv = CASES[case]
    argv = list(argv)
    if data is not None:
        path = out / "data.txt"
        path.write_text(sparse_lines(*data))
        argv += ["--data", str(path)]
    if argv[0] == "train":
        return argv + ["--model-out", str(out / "model.bin"), "--log-out", str(out / "log.csv")]
    return argv + ["--out", str(out / "out.csv")]


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_keep_their_bytes(tmp_path, capsys, case):
    assert main(case_argv(case, tmp_path)) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS[case]}
    assert digests == DIGESTS[case]


@pytest.mark.parametrize("case", [case for case, (_, argv) in CASES.items() if argv[0] == "train"])
def test_train_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, case):
    src = str(Path(vvlearn.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = [sys.executable, "-c", "import sys; from vvlearn.cli import main; sys.exit(main(sys.argv[1:]))"]
        subprocess.run(run + case_argv(case, out), env=env, check=True, capture_output=True)
        outputs.append({name: (out / name).read_bytes() for name in DIGESTS[case]})
    assert outputs[0] == outputs[1]


def messy_lines(text, seed):
    """The rows of text with shuffled feature tokens, CRLF endings, and comment and blank lines between them."""
    rng = generator(seed)
    lines = ["# a header comment", ""]
    for i, line in enumerate(text.splitlines()):
        head, *feats = line.split()
        lines.append(" ".join([head, *(feats[j] for j in rng.permutation(len(feats)))]))
        if i % 7 == 3:
            lines += ["", "# between rows", "   "]
    return "\r\n".join(lines) + "\r\n"


def test_eval_output_keeps_its_bytes(tmp_path, capsys):
    data, argv = CASES["ranking-sparse-theorem"]
    train_path, model = tmp_path / "train.txt", tmp_path / "model.bin"
    train_path.write_text(sparse_lines(*data))
    argv = [*argv, "--data", str(train_path), "--model-out", str(model), "--log-out", str(tmp_path / "log.csv")]
    assert main(argv) == 0
    text = sparse_lines("mlc", 120, 400, 36, 8)
    heads = [line.split()[0].split(",") for line in text.splitlines()]
    assert max(len(h) * (36 - len(h)) for h in heads) > 256  # a row scored on its own block
    eval_path = tmp_path / "eval.txt"
    eval_path.write_bytes(messy_lines(text, 9).encode())
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(eval_path), "--loss", "ranking", "--sigma", "0.05"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == DIGESTS["eval-messy-mlc"]["stdout"]


CHECK_RUNS = {
    "lipschitz": (["--suite", "lipschitz", "--trials", "200", "--seed", "3"], 0,
                  "5967435ec7db8a47b4720c86870cb2ffc1ca6b3a378a85e46f0d4084c5ddb431"),
    "convexity": (["--suite", "convexity", "--trials", "200", "--seed", "3"], 0,
                  "c420027f425540c7a500665d3b71315d04a45a547c5e7fa7a855c14b4d97a2b6"),
    "gradients": (["--suite", "gradients", "--trials", "200", "--seed", "3"], 0,
                  "3ba6f49a1fa7605f942e96dd6d13d1cb2a4ed6b3ca498f6f845e721c509e63d6"),
    "override": (["--suite", "lipschitz", "--trials", "50", "--seed", "1", "--override-lipschitz", "ranking/hinge=0.3"], 3,
                 "6819eda9b4970a05830991e4bafd97102c7e7dde43e1fadcb70a4011bcd1d84a"),
    "override-multiclass": (["--suite", "lipschitz", "--trials", "300", "--seed", "4", "--override-lipschitz",
                             "multinomial_logistic=1.2"], 3,
                            "7fa2c230fe478c8703b9dcc670cedcffaa7829ba00f2b5229bba2f7a02bf06e6"),
}  # fmt: skip


@pytest.mark.parametrize("case", list(CHECK_RUNS))
def test_check_output_keeps_its_bytes(capsys, case):
    argv, code, digest = CHECK_RUNS[case]
    assert main(["check", *argv]) == code
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest
