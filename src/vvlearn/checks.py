"""Randomized property suites for losses, regularizers, and the optimizer.

These are the same checks the command-line ``check`` subcommand runs:
Lipschitz continuity in the max norm on scores (with the registered
constants), convexity and the subgradient inequality, finite-difference
gradient agreement, and the SGD iterate-norm certificate.  Each suite
returns a report with counterexample descriptions rather than raising,
so callers can print failures and choose an exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import inf_norm_diff
from .dataio import synth_gen
from .losses import LossSpec, standard_loss_specs
from .optimizer import CertificateError, StepSchedule, TrainConfig, train
from .regularizers import RegularizerSpec
from .seeding import derive_seed, generator

SUITE_NAMES = ("lipschitz", "convexity", "gradients", "sgd-bound")


@dataclass
class SuiteReport:
    suite: str
    checks: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.passed:
            return f"{self.suite}: PASS ({self.checks} checks)"
        return f"{self.suite}: FAIL ({len(self.failures)} of {self.checks} checks)"


def _random_triple(rng: np.random.Generator, d: int, c: int):
    """Two weight matrices and a dense input, entries uniform in [-5, 5]."""
    w1 = rng.uniform(-5.0, 5.0, size=(d, c))
    w2 = rng.uniform(-5.0, 5.0, size=(d, c))
    x = rng.uniform(-5.0, 5.0, size=d)
    x[rng.random(d) < 0.3] = 0.0  # keep zero features in the mix
    return w1, w2, x


def _random_labels(rng: np.random.Generator, c: int) -> tuple[np.ndarray, np.ndarray]:
    """One-row label arrays: a class id, and a sign row holding both signs."""
    y = np.array([rng.integers(0, c)])
    signs = 2 * rng.integers(0, 2, size=c, dtype=np.int8) - 1
    while np.all(signs == signs[0]):
        signs = 2 * rng.integers(0, 2, size=c, dtype=np.int8) - 1
    return y, signs[None, :]


def _value(spec: LossSpec, scores: np.ndarray, labels: np.ndarray) -> float:
    return float(spec.value(scores[None, :], labels)[0])


def lipschitz_suite(
    trials: int = 1000,
    seed: int = 0,
    d: int = 8,
    c: int = 5,
    tol: float = 1e-9,
    specs: list[LossSpec] | None = None,
) -> SuiteReport:
    """Check |value(w) - value(w')| <= L * max-norm score gap, plus the
    induced weight-space bound ||subgrad||_F <= L * ||x||_2."""
    specs = standard_loss_specs() if specs is None else specs
    rng = generator(seed)
    failures: list[str] = []
    checks = 0
    for trial in range(trials):
        w1, w2, x = _random_triple(rng, d, c)
        y, signs = _random_labels(rng, c)
        s1, s2 = x @ w1, x @ w2
        gap = inf_norm_diff(s1, s2)
        x_norm = float(np.linalg.norm(x))
        for spec in specs:
            labels = signs if spec.is_multilabel else y
            diff = abs(_value(spec, s1, labels) - _value(spec, s2, labels))
            checks += 1
            if diff > spec.lipschitz_inf * gap + tol:
                failures.append(
                    f"loss={spec.name} trial={trial}: value gap {diff:.9g} exceeds "
                    f"L*score_gap = {spec.lipschitz_inf:.3g}*{gap:.9g} + {tol:g}"
                )
            grad_norm = float(np.linalg.norm(np.outer(x, spec.coef(s1[None, :], labels)[0])))
            checks += 1
            if grad_norm > spec.lipschitz_inf * x_norm + tol:
                failures.append(
                    f"loss={spec.name} trial={trial}: subgradient norm {grad_norm:.9g} "
                    f"exceeds L*||x|| = {spec.lipschitz_inf * x_norm:.9g} + {tol:g}"
                )
    return SuiteReport("lipschitz", checks, failures)


def _random_regularizer(rng: np.random.Generator) -> RegularizerSpec:
    sigma = float(rng.uniform(0.1, 2.0))
    if rng.random() < 0.5:
        return RegularizerSpec.frobenius(sigma)
    return RegularizerSpec.l2p(sigma, float(rng.uniform(1.05, 2.0)))


def convexity_suite(
    trials: int = 1000,
    seed: int = 0,
    d: int = 8,
    c: int = 5,
    tol: float = 1e-9,
    specs: list[LossSpec] | None = None,
) -> SuiteReport:
    """Convexity and the subgradient inequality for every loss, and the
    strong-convexity inequalities for both regularizers."""
    specs = standard_loss_specs() if specs is None else specs
    rng = generator(seed)
    failures: list[str] = []
    checks = 0
    for trial in range(trials):
        w1, w2, x = _random_triple(rng, d, c)
        y, signs = _random_labels(rng, c)
        theta = float(rng.uniform(0.0, 1.0))
        mid = theta * w1 + (1.0 - theta) * w2
        s1, s2, s_mid = x @ w1, x @ w2, x @ mid
        for spec in specs:
            labels = signs if spec.is_multilabel else y
            v1, v2 = _value(spec, s1, labels), _value(spec, s2, labels)
            checks += 1
            if _value(spec, s_mid, labels) > theta * v1 + (1.0 - theta) * v2 + tol:
                failures.append(
                    f"loss={spec.name} trial={trial}: convexity broken at theta={theta:.6g}"
                )
            grad = np.outer(x, spec.coef(s1[None, :], labels)[0])
            lhs = v1 + float(np.sum(grad * (w2 - w1)))
            checks += 1
            if v2 < lhs - tol:
                failures.append(
                    f"loss={spec.name} trial={trial}: subgradient inequality broken "
                    f"({v2:.9g} < {lhs:.9g} - {tol:g})"
                )

        reg = _random_regularizer(rng)
        mu = reg.strong_convexity
        gap = reg.norm(w1 - w2)
        mid_val = reg.value(0.5 * (w1 + w2))
        bound = 0.5 * reg.value(w1) + 0.5 * reg.value(w2) - mu / 8.0 * gap**2
        checks += 1
        if mid_val > bound + tol:
            failures.append(
                f"reg={reg.name} trial={trial}: midpoint strong convexity broken "
                f"({mid_val:.9g} > {bound:.9g} + {tol:g})"
            )
        lhs = (
            reg.value(w1)
            + float(np.sum(reg.grad(w1) * (w2 - w1)))
            + mu / 2.0 * gap**2
        )
        checks += 1
        if reg.value(w2) < lhs - tol:
            failures.append(
                f"reg={reg.name} trial={trial}: gradient strong convexity broken "
                f"({reg.value(w2):.9g} < {lhs:.9g} - {tol:g})"
            )
    return SuiteReport("convexity", checks, failures)


def central_difference(function, w: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of w."""
    grad = np.zeros_like(w, dtype=np.float64)
    for idx in np.ndindex(w.shape):
        bump = np.zeros_like(w, dtype=np.float64)
        bump[idx] = step
        grad[idx] = (function(w + bump) - function(w - bump)) / (2.0 * step)
    return grad


def gradient_suite(
    points: int = 100,
    seed: int = 0,
    d: int = 6,
    c: int = 4,
    step: float = 1e-6,
    rel_tol: float = 1e-5,
) -> SuiteReport:
    """Finite-difference agreement for the smooth gradients.

    Checks the multinomial logistic subgradient and the group (2, p)
    regularizer gradient at random points against central differences;
    error is measured relative to max(1, ||fd||).
    """
    rng = generator(seed)
    failures: list[str] = []
    checks = 0
    loss = LossSpec.multinomial_logistic()
    for point in range(points):
        w = rng.uniform(-2.0, 2.0, size=(d, c))
        x = rng.uniform(-1.0, 1.0, size=d)
        labels = np.array([int(rng.integers(0, c))])
        fd = central_difference(lambda v: _value(loss, x @ v, labels), w, step)
        grad = np.outer(x, loss.coef((x @ w)[None, :], labels)[0])
        err = float(np.linalg.norm(grad - fd))
        checks += 1
        if err > rel_tol * max(1.0, float(np.linalg.norm(fd))):
            failures.append(
                f"multinomial_logistic point={point}: FD mismatch {err:.3g}"
            )
    for point in range(points):
        p = float(rng.uniform(1.1, 2.0))
        sigma = float(rng.uniform(0.1, 2.0))
        reg = RegularizerSpec.l2p(sigma, p)
        w = rng.uniform(-2.0, 2.0, size=(d, c))
        while float(np.min(np.linalg.norm(w, axis=0))) < 0.1:
            w = rng.uniform(-2.0, 2.0, size=(d, c))  # keep FD away from the origin kink
        fd = central_difference(reg.value, w, step)
        err = float(np.linalg.norm(reg.grad(w) - fd))
        checks += 1
        if err > rel_tol * max(1.0, float(np.linalg.norm(fd))):
            failures.append(f"l2p(p={p:.4g}) point={point}: FD mismatch {err:.3g}")
    return SuiteReport("gradients", checks, failures)


def sgd_bound_suite(
    seed: int = 0,
    n: int = 2000,
    d: int = 20,
    c: int = 5,
    sigma: float = 0.01,
    passes: int = 10,
    noise: float = 0.05,
) -> SuiteReport:
    """Train every loss under the theorem schedule and verify that all
    iterates respect the certified norm bound L * kappa / sigma."""
    specs = standard_loss_specs(k=2) + [LossSpec.topk_svm(3), LossSpec.topk_svm(4)]
    mcc = synth_gen(n, d, c, "mcc", noise, derive_seed(seed, 21))
    mlc = synth_gen(n, d, c, "mlc", noise, derive_seed(seed, 22))
    failures: list[str] = []
    checks = 0
    for i, spec in enumerate(specs):
        data = mlc if spec.is_multilabel else mcc
        config = TrainConfig(
            loss=spec,
            reg=RegularizerSpec.frobenius(sigma),
            schedule=StepSchedule.theorem(sigma),
            total_steps=passes * n,
            seed=derive_seed(seed, 23, i),
            record_every=n,
        )
        checks += 1
        try:
            _, records = train(data, config)
        except CertificateError as err:
            failures.append(f"loss={spec.name}: {err}")
            continue
        bound = spec.lipschitz_inf * data.kappa / sigma + 1e-9
        worst = max(record.iterate_frobenius_norm for record in records)
        if worst > bound:
            failures.append(
                f"loss={spec.name}: recorded norm {worst:.9g} above bound {bound:.9g}"
            )
    return SuiteReport("sgd-bound", checks, failures)


def run_suite(
    name: str,
    trials: int = 1000,
    seed: int = 0,
    specs: list[LossSpec] | None = None,
) -> SuiteReport:
    """Run one named suite; ``trials`` maps onto each suite's own knob."""
    if name == "lipschitz":
        return lipschitz_suite(trials=trials, seed=seed, specs=specs)
    if name == "convexity":
        return convexity_suite(trials=trials, seed=seed, specs=specs)
    if name == "gradients":
        return gradient_suite(points=max(1, min(trials, 1000)), seed=seed)
    if name == "sgd-bound":
        return sgd_bound_suite(seed=seed)
    raise ValueError(f"unknown suite {name!r}")
