"""Failure injection for the property suites: each suite reports a broken
property as a counterexample rather than passing over it.

The lipschitz and sgd-bound suites are driven through ``vvlearn check
--override-lipschitz`` in test_cli.py; the convexity and gradients suites
are broken here by patching the quantity each inequality tests.
"""

from vvlearn.checks import convexity_suite, gradient_suite
from vvlearn.losses import LossSpec
from vvlearn.regularizers import RegularizerSpec


def test_concave_loss_breaks_convexity(monkeypatch):
    value = LossSpec.value
    monkeypatch.setattr(LossSpec, "value", lambda self, S, y: -value(self, S, y))
    report = convexity_suite(trials=40, seed=5)
    assert report.checks == 40 * 18
    assert any("convexity broken at theta=" in f for f in report.failures)


def test_scaled_coefficients_break_the_subgradient_inequality(monkeypatch):
    coef = LossSpec.coef
    monkeypatch.setattr(LossSpec, "coef", lambda self, S, y: 3.0 * coef(self, S, y))
    report = convexity_suite(trials=40, seed=5)
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
    report = gradient_suite(trials=10, seed=5)
    assert report.checks == 20
    assert len(report.failures) == 10
    assert all(f.startswith("multinomial_logistic point=") and "FD mismatch" in f for f in report.failures)


def test_scaled_regularizer_gradient_misses_the_finite_differences(monkeypatch):
    grad = RegularizerSpec.grad
    monkeypatch.setattr(RegularizerSpec, "grad", lambda self, w: 1.01 * grad(self, w))
    report = gradient_suite(trials=10, seed=5)
    assert len(report.failures) == 10
    assert all(f.startswith("l2p(p=") and "FD mismatch" in f for f in report.failures)
