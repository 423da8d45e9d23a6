"""Failure injection for the property suites: each suite reports a broken
property as a counterexample rather than passing over it.

The lipschitz and sgd-bound suites are driven through ``vvlearn check
--override-lipschitz`` in test_cli.py; the convexity and gradients suites
are broken here by patching the quantity each inequality tests.  Each
broken report, and one of lipschitz with overridden constants, must be the
same at every trial block size, and a long lipschitz run shows that the
blocks bound the suite's memory.  The suites score a block in stacked
numpy calls, each pinned here to the per-trial call it replaces, bit for
bit.
"""

import tracemalloc

import numpy as np

import vvlearn.checks as checks
from vvlearn.checks import convexity_suite, gradient_suite, lipschitz_suite
from vvlearn.losses import LossSpec, standard_loss_specs
from vvlearn.regularizers import RegularizerSpec

DEFAULT_BLOCK = checks.TRIAL_BLOCK


def same_at_each_block_size(monkeypatch, run):
    """run()'s report, which must not change with TRIAL_BLOCK at 1, 7 or its default.

    Forty trials leave a partial last block at 7.
    """
    reports = []
    for size in (1, 7, DEFAULT_BLOCK):
        monkeypatch.setattr(checks, "TRIAL_BLOCK", size)
        reports.append(run())
    assert all(report == reports[0] for report in reports[1:])
    return reports[0]


def test_overridden_constants_break_the_lipschitz_bounds(monkeypatch):
    overrides = {"multinomial_logistic": 1.2, "ranking/hinge": 0.3}
    specs = [s.with_lipschitz(overrides[s.name]) if s.name in overrides else s for s in standard_loss_specs()]
    report = same_at_each_block_size(monkeypatch, lambda: lipschitz_suite(40, 4, specs))
    assert {f.split()[0] for f in report.failures} == {"loss=multinomial_logistic", "loss=ranking/hinge"}


def test_concave_loss_breaks_convexity(monkeypatch):
    value = LossSpec.value
    monkeypatch.setattr(LossSpec, "value", lambda self, S, y: -value(self, S, y))
    report = same_at_each_block_size(monkeypatch, lambda: convexity_suite(trials=40, seed=5))
    assert report.checks == 40 * 18
    assert any("convexity broken at theta=" in f for f in report.failures)


def test_scaled_coefficients_break_the_subgradient_inequality(monkeypatch):
    coef = LossSpec.coef
    monkeypatch.setattr(LossSpec, "coef", lambda self, S, y: 3.0 * coef(self, S, y))
    report = same_at_each_block_size(monkeypatch, lambda: convexity_suite(trials=40, seed=5))
    assert any("subgradient inequality broken" in f for f in report.failures)
    assert not any("strong convexity" in f for f in report.failures)


def test_inflated_modulus_breaks_strong_convexity(monkeypatch):
    modulus = RegularizerSpec.strong_convexity.fget
    monkeypatch.setattr(RegularizerSpec, "strong_convexity", property(lambda self: 4.0 * modulus(self)))
    report = convexity_suite(trials=40, seed=5)
    messages = " ".join(report.failures)
    assert "reg=frobenius" in messages and "reg=l2p" in messages
    assert "midpoint strong convexity broken" in messages
    assert "gradient strong convexity broken" in messages
    assert not any(f.startswith("loss=") for f in report.failures)


def test_scaled_coefficients_miss_the_finite_differences(monkeypatch):
    coef = LossSpec.coef
    monkeypatch.setattr(LossSpec, "coef", lambda self, S, y: 1.01 * coef(self, S, y))
    report = same_at_each_block_size(monkeypatch, lambda: gradient_suite(trials=10, seed=5))
    assert report.checks == 20
    assert len(report.failures) == 10
    assert all(f.startswith("multinomial_logistic point=") and "FD mismatch" in f for f in report.failures)


def test_scaled_regularizer_gradient_misses_the_finite_differences(monkeypatch):
    grad = RegularizerSpec.grad
    monkeypatch.setattr(RegularizerSpec, "grad", lambda self, w: 1.01 * grad(self, w))
    report = gradient_suite(trials=10, seed=5)
    assert len(report.failures) == 10
    assert all(f.startswith("l2p(p=") and "FD mismatch" in f for f in report.failures)


def test_trial_blocks_bound_the_memory_of_a_long_run():
    tracemalloc.start()
    try:
        report = lipschitz_suite(20_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.checks == 320_000
    assert peak < 8 * 2**20


def test_stacked_arithmetic_equals_the_per_trial_calls():
    rng = np.random.default_rng(7)
    x, w, coefs = rng.uniform(-5.0, 5.0, (500, 8)), rng.uniform(-5.0, 5.0, (500, 8, 5)), rng.standard_normal((500, 5))
    x[rng.random(x.shape) < 0.3] = 0.0
    outer = x[:, :, None] * coefs[:, None, :]
    assert checks._scores(x, w).tobytes() == np.array([a @ b for a, b in zip(x, w)]).tobytes()
    assert checks._row_norms(x).tobytes() == np.array([np.linalg.norm(a) for a in x]).tobytes()
    assert checks._row_norms(outer).tobytes() == np.array([np.linalg.norm(np.outer(a, c)) for a, c in zip(x, coefs)]).tobytes()
    sums = np.sum(outer * w, axis=(1, 2))
    assert sums.tobytes() == np.array([np.sum(np.outer(a, c) * b) for a, c, b in zip(x, coefs, w)]).tobytes()
