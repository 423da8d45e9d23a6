"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and
prints a single ``ACCEPTANCE <k> <name>: PASS/FAIL (<elapsed>)`` line
(visible under ``pytest -s``).  Runtime budgets are asserted alongside
the property itself.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
from scipy.stats import spearmanr

import oracles

import vvlearn.checks as checks
from vvlearn.checks import (
    convexity_suite,
    gradient_suite,
    lipschitz_suite,
    sgd_bound_suite,
)
from vvlearn.cli import main
from vvlearn.dataio import parse_sparse_text, synth_gen
from vvlearn.experiments import CurveSpec, run_curve
from vvlearn.losses import LossSpec, standard_loss_specs
from vvlearn.optimizer import StepSchedule
from vvlearn.rademacher import sandwich_check
from vvlearn.regularizers import RegularizerSpec


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number} {name}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict} ({elapsed:.1f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget {budget_s:g}s"


def mlg_ingredients():
    """The experiment objective: multinomial logistic + (0.01/2)||w||_F^2,
    step size 1/(0.01 t + 1)."""
    return (
        LossSpec.multinomial_logistic(),
        RegularizerSpec.frobenius(0.01),
        StepSchedule.experiment(0.01),
    )


def test_01_lipschitz_constants():
    expected = {
        "mc_svm/hinge": 2.0,
        "mc_svm/logistic": 2.0,
        "multinomial_logistic": 2.0,
        "topk_svm/k=2": 2.0,
        "subset/hinge": 1.0,
        "subset/logistic": 1.0,
        "ranking/hinge": 2.0,
        "ranking/logistic": 2.0,
    }
    with criterion(1, "lipschitz-constants", 30):
        assert (checks.D, checks.C, checks.TOL) == (8, 5, 1e-9)
        specs = standard_loss_specs()
        assert {spec.name: spec.lipschitz_inf for spec in specs} == expected
        report = lipschitz_suite(trials=1000, seed=0, specs=specs)
        assert report.failures == [], report.failures[:5]


def test_02_convexity_and_subgradients():
    with criterion(2, "convexity-and-subgradients", 30):
        report = convexity_suite(trials=1000, seed=0)
        assert report.failures == [], report.failures[:5]


def test_03_finite_difference_gradients():
    with criterion(3, "finite-difference-gradients", 10):
        assert (checks.FD_STEP, checks.FD_REL_TOL) == (1e-6, 1e-5)
        report = gradient_suite(trials=100, seed=0)
        assert report.failures == [], report.failures[:5]


def test_04_sgd_iterate_certificate():
    with criterion(4, "sgd-iterate-certificate", 60):
        settings = (checks.SGD_N, checks.SGD_D, checks.SGD_C, checks.SGD_SIGMA, checks.SGD_PASSES, checks.SGD_NOISE)
        assert settings == (2000, 20, 5, 0.01, 10, 0.05)
        report = sgd_bound_suite(seed=0)
        assert report.checks == 10
        assert report.failures == [], report.failures[:5]


def test_05_rademacher_sandwich():
    with criterion(5, "rademacher-sandwich", 60):
        # exhaustive instances, every sign pattern enumerated
        for n, c in [(1, 1), (5, 2), (10, 2), (4, 5), (20, 1)]:
            report = sandwich_check(n=n, c=c, d=4, cap=1.0, sigma=1.0, seed=n, trials=0)
            assert report.passed, (n, c)
            assert all(row.std_error == 0.0 for row in report.rows)
        # monte-carlo instances inside a three-standard-error band
        for n, c in [(50, 2), (100, 4), (400, 4)]:
            report = sandwich_check(
                n=n, c=c, d=6, cap=1.0, sigma=1.0, seed=7 * n, trials=100_000
            )
            assert report.passed, (n * c, [r.__dict__ for r in report.rows])
        # sign-sum expectation floor, enumerated independently
        for m in range(1, 11):
            exact = np.mean(
                [abs(sum(signs)) for signs in itertools.product((-1, 1), repeat=m)]
            )
            assert oracles.mean_abs_sign_sum(m) == exact
            assert exact >= oracles.khintchine_floor(m)


def test_06_plateau_after_few_passes():
    with criterion(6, "plateau-after-few-passes", 180):
        pool = synth_gen(n=2000, d=20, c=5, task="mcc", noise=0.05, seed=0)
        loss, reg, schedule = mlg_ingredients()
        spec = CurveSpec(
            kind="passes", grid=(1, 5, 10), repetitions=10,
            loss=loss, reg=reg, schedule=schedule, seed=0,
        )
        test = run_curve(pool, spec)["test"]
        points = {g: float(np.mean(row)) for g, row in zip(spec.grid, test)}
        print(f"\n  test means by pass count: {points}")
        assert points[5] <= points[1]
        assert abs(points[10] - points[5]) <= 0.1 * (points[1] - points[5]) + 1e-3


def test_07_sample_size_trends():
    with criterion(7, "sample-size-trends", 300):
        pool = synth_gen(n=8000, d=20, c=5, task="mcc", noise=0.05, seed=0)
        loss, reg, schedule = mlg_ingredients()
        spec = CurveSpec(
            kind="gap", grid=(100, 200, 400, 800, 1600, 3200), repetitions=10,
            loss=loss, reg=reg, schedule=schedule, seed=0, passes_per_point=5,
        )
        metrics = run_curve(pool, spec)
        train, test, gap = ([float(np.mean(row)) for row in metrics[k]] for k in ("train", "test", "gap"))
        grid = list(spec.grid)
        rho_train = spearmanr(grid, train).statistic
        rho_test = spearmanr(grid, test).statistic
        rho_gap = spearmanr(grid, gap).statistic
        print(f"\n  spearman rho: train={rho_train:.4f} test={rho_test:.4f} gap={rho_gap:.4f}")
        print(f"  gap means: {[f'{g:.4f}' for g in gap]}")
        assert rho_train >= 0.8
        assert rho_test <= -0.8
        assert rho_gap <= -0.8
        assert all(g > 0 for g in gap)


def test_08_cli_determinism(tmp_path):
    with criterion(8, "cli-determinism", 60):
        train_args = [
            "train", "--synth", "n=1000,d=10,c=4,noise=0.05", "--loss", "mlogistic",
            "--lambda", "0.01", "--passes", "2", "--seed", "11",
        ]
        pairs = []
        for tag in ("a", "b"):
            model = tmp_path / f"model_{tag}.bin"
            log = tmp_path / f"log_{tag}.csv"
            assert main(train_args + ["--model-out", str(model), "--log-out", str(log)]) == 0
            pairs.append((model.read_bytes(), log.read_bytes()))
        assert pairs[0] == pairs[1]

        curve_args = [
            "curve", "--kind", "gap", "--synth", "n=600,d=8,c=3,noise=0.05",
            "--grid", "100,200", "--reps", "3", "--seed", "11",
        ]
        csvs = []
        for tag in ("a", "b"):
            out = tmp_path / f"curve_{tag}.csv"
            assert main(curve_args + ["--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]


def test_09_parser_round_trip(tmp_path):
    with criterion(9, "parser-round-trip", 10):
        rng = np.random.default_rng(123)
        for i in range(100):
            task = "mcc" if i < 50 else "mlc"
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 12))
            c = int(rng.integers(2, 7))
            noise = float(rng.uniform(0.0, 0.4))
            data = synth_gen(n=n, d=d, c=c, task=task, noise=noise, seed=1000 + i)
            path = tmp_path / f"{task}_{i}.txt"
            oracles.write_sparse_text(data, path)
            back = parse_sparse_text(path, task, d=data.d, label_map=data.label_map)
            assert back == data, f"dataset {i} ({task}) changed across write->parse"
