"""Randomized property suites for losses, regularizers, and the optimizer.

These are the same checks the command-line ``check`` subcommand runs:
Lipschitz continuity in the max norm on scores (with the registered
constants), convexity and the subgradient inequality, finite-difference
gradient agreement, and the SGD iterate-norm certificate.  Each suite
takes ``(trials, seed, specs)``, runs at the fixed settings below, and
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

# The loss and convexity suites draw (D, C) weight matrices and length-D
# inputs, and allow each inequality a slack of TOL.
D, C, TOL = 8, 5, 1e-9
# The gradient suite compares (FD_D, FD_C) gradients at min(trials,
# FD_MAX_POINTS) points with central differences of step FD_STEP, to within
# FD_REL_TOL relative to max(1, ||fd||).
FD_D, FD_C, FD_STEP, FD_REL_TOL, FD_MAX_POINTS = 6, 4, 1e-6, 1e-5, 1000
# The SGD suite trains on SGD_N synthetic examples (SGD_D features, SGD_C
# components, label noise SGD_NOISE) for SGD_PASSES passes at strength SGD_SIGMA.
SGD_N, SGD_D, SGD_C, SGD_SIGMA, SGD_PASSES, SGD_NOISE = 2000, 20, 5, 0.01, 10, 0.05


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


def _random_triple(rng: np.random.Generator):
    """Two (D, C) weight matrices and a dense input, entries uniform in [-5, 5]."""
    w1 = rng.uniform(-5.0, 5.0, size=(D, C))
    w2 = rng.uniform(-5.0, 5.0, size=(D, C))
    x = rng.uniform(-5.0, 5.0, size=D)
    x[rng.random(D) < 0.3] = 0.0  # keep zero features in the mix
    return w1, w2, x


def _random_labels(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One-row label arrays: a class id, and a sign row holding both signs."""
    y = np.array([rng.integers(0, C)])
    signs = 2 * rng.integers(0, 2, size=C, dtype=np.int8) - 1
    while np.all(signs == signs[0]):
        signs = 2 * rng.integers(0, 2, size=C, dtype=np.int8) - 1
    return y, signs[None, :]


def _value(spec: LossSpec, scores: np.ndarray, labels: np.ndarray) -> float:
    return float(spec.value(scores[None, :], labels)[0])


def lipschitz_suite(trials: int = 1000, seed: int = 0, specs: list[LossSpec] | None = None) -> SuiteReport:
    """Check |value(w) - value(w')| <= L * max-norm score gap, plus the
    induced weight-space bound ||subgrad||_F <= L * ||x||_2."""
    specs = standard_loss_specs() if specs is None else specs
    rng = generator(seed)
    failures: list[str] = []
    for trial in range(trials):
        w1, w2, x = _random_triple(rng)
        y, signs = _random_labels(rng)
        s1, s2 = x @ w1, x @ w2
        gap = inf_norm_diff(s1, s2)
        x_norm = float(np.linalg.norm(x))
        for spec in specs:
            labels = signs if spec.is_multilabel else y
            diff = abs(_value(spec, s1, labels) - _value(spec, s2, labels))
            if diff > spec.lipschitz_inf * gap + TOL:
                failures.append(
                    f"loss={spec.name} trial={trial}: value gap {diff:.9g} exceeds "
                    f"L*score_gap = {spec.lipschitz_inf:.3g}*{gap:.9g} + {TOL:g}"
                )
            grad_norm = float(np.linalg.norm(np.outer(x, spec.coef(s1[None, :], labels)[0])))
            if grad_norm > spec.lipschitz_inf * x_norm + TOL:
                failures.append(
                    f"loss={spec.name} trial={trial}: subgradient norm {grad_norm:.9g} "
                    f"exceeds L*||x|| = {spec.lipschitz_inf * x_norm:.9g} + {TOL:g}"
                )
    return SuiteReport("lipschitz", 2 * len(specs) * trials, failures)


def _random_regularizer(rng: np.random.Generator) -> RegularizerSpec:
    sigma = float(rng.uniform(0.1, 2.0))
    if rng.random() < 0.5:
        return RegularizerSpec.frobenius(sigma)
    return RegularizerSpec.l2p(sigma, float(rng.uniform(1.05, 2.0)))


def convexity_suite(trials: int = 1000, seed: int = 0, specs: list[LossSpec] | None = None) -> SuiteReport:
    """Convexity and the subgradient inequality for every loss, and the
    strong-convexity inequalities for both regularizers."""
    specs = standard_loss_specs() if specs is None else specs
    rng = generator(seed)
    failures: list[str] = []
    for trial in range(trials):
        w1, w2, x = _random_triple(rng)
        y, signs = _random_labels(rng)
        theta = float(rng.uniform(0.0, 1.0))
        mid = theta * w1 + (1.0 - theta) * w2
        s1, s2, s_mid = x @ w1, x @ w2, x @ mid
        for spec in specs:
            labels = signs if spec.is_multilabel else y
            v1, v2 = _value(spec, s1, labels), _value(spec, s2, labels)
            if _value(spec, s_mid, labels) > theta * v1 + (1.0 - theta) * v2 + TOL:
                failures.append(f"loss={spec.name} trial={trial}: convexity broken at theta={theta:.6g}")
            lhs = v1 + float(np.sum(np.outer(x, spec.coef(s1[None, :], labels)[0]) * (w2 - w1)))
            if v2 < lhs - TOL:
                failures.append(
                    f"loss={spec.name} trial={trial}: subgradient inequality broken "
                    f"({v2:.9g} < {lhs:.9g} - {TOL:g})"
                )

        reg = _random_regularizer(rng)
        mu = reg.strong_convexity
        gap = reg.norm(w1 - w2)
        mid_val = reg.value(0.5 * (w1 + w2))
        bound = 0.5 * reg.value(w1) + 0.5 * reg.value(w2) - mu / 8.0 * gap**2
        if mid_val > bound + TOL:
            failures.append(
                f"reg={reg.name} trial={trial}: midpoint strong convexity broken "
                f"({mid_val:.9g} > {bound:.9g} + {TOL:g})"
            )
        lhs = reg.value(w1) + float(np.sum(reg.grad(w1) * (w2 - w1))) + mu / 2.0 * gap**2
        if reg.value(w2) < lhs - TOL:
            failures.append(
                f"reg={reg.name} trial={trial}: gradient strong convexity broken "
                f"({reg.value(w2):.9g} < {lhs:.9g} - {TOL:g})"
            )
    return SuiteReport("convexity", (2 * len(specs) + 2) * trials, failures)


def central_difference(function, w: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of w."""
    grad = np.zeros_like(w, dtype=np.float64)
    for idx in np.ndindex(w.shape):
        bump = np.zeros_like(w, dtype=np.float64)
        bump[idx] = step
        grad[idx] = (function(w + bump) - function(w - bump)) / (2.0 * step)
    return grad


def gradient_suite(trials: int = 100, seed: int = 0, specs: list[LossSpec] | None = None) -> SuiteReport:
    """Finite-difference agreement for the smooth gradients.

    Checks the multinomial logistic subgradient and the group (2, p)
    regularizer gradient at random points against central differences.
    ``specs`` is unused: no registered constant enters these checks.
    """
    rng = generator(seed)
    failures: list[str] = []
    points = min(trials, FD_MAX_POINTS)
    loss = LossSpec.multinomial_logistic()
    for point in range(points):
        w = rng.uniform(-2.0, 2.0, size=(FD_D, FD_C))
        x = rng.uniform(-1.0, 1.0, size=FD_D)
        labels = np.array([int(rng.integers(0, FD_C))])
        fd = central_difference(lambda v: _value(loss, x @ v, labels), w, FD_STEP)
        grad = np.outer(x, loss.coef((x @ w)[None, :], labels)[0])
        err = float(np.linalg.norm(grad - fd))
        if err > FD_REL_TOL * max(1.0, float(np.linalg.norm(fd))):
            failures.append(f"multinomial_logistic point={point}: FD mismatch {err:.3g}")
    for point in range(points):
        p = float(rng.uniform(1.1, 2.0))
        sigma = float(rng.uniform(0.1, 2.0))
        reg = RegularizerSpec.l2p(sigma, p)
        w = rng.uniform(-2.0, 2.0, size=(FD_D, FD_C))
        while float(np.min(np.linalg.norm(w, axis=0))) < 0.1:
            w = rng.uniform(-2.0, 2.0, size=(FD_D, FD_C))  # keep FD away from the origin kink
        fd = central_difference(reg.value, w, FD_STEP)
        err = float(np.linalg.norm(reg.grad(w) - fd))
        if err > FD_REL_TOL * max(1.0, float(np.linalg.norm(fd))):
            failures.append(f"l2p(p={p:.4g}) point={point}: FD mismatch {err:.3g}")
    return SuiteReport("gradients", 2 * points, failures)


def sgd_bound_suite(trials: int = 1000, seed: int = 0, specs: list[LossSpec] | None = None) -> SuiteReport:
    """Train every loss, the standard eight and top-k for k = 3, 4, under
    the theorem schedule; ``train`` certifies every iterate against the
    norm bound L * kappa / sigma and raises on the first breach.

    A loss in ``specs`` replaces the run's loss of the same name, so an
    overridden constant is the one certified.  ``trials`` is unused: the
    suite is ten fixed runs.
    """
    given = {spec.name: spec for spec in specs or ()}
    runs = standard_loss_specs() + [LossSpec.topk_svm(3), LossSpec.topk_svm(4)]
    mcc = synth_gen(SGD_N, SGD_D, SGD_C, "mcc", SGD_NOISE, derive_seed(seed, 21))
    mlc = synth_gen(SGD_N, SGD_D, SGD_C, "mlc", SGD_NOISE, derive_seed(seed, 22))
    failures: list[str] = []
    for i, spec in enumerate(given.get(run.name, run) for run in runs):
        config = TrainConfig(
            loss=spec,
            reg=RegularizerSpec.frobenius(SGD_SIGMA),
            schedule=StepSchedule.theorem(SGD_SIGMA),
            total_steps=SGD_PASSES * SGD_N,
            seed=derive_seed(seed, 23, i),
            record_every=SGD_N,
        )
        try:
            train(mlc if spec.is_multilabel else mcc, config)
        except CertificateError as err:
            failures.append(f"loss={spec.name}: {err}")
    return SuiteReport("sgd-bound", len(runs), failures)


SUITES = {
    "lipschitz": lipschitz_suite,
    "convexity": convexity_suite,
    "gradients": gradient_suite,
    "sgd-bound": sgd_bound_suite,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, trials: int = 1000, seed: int = 0, specs: list[LossSpec] | None = None) -> SuiteReport:
    """Run one named suite with ``trials`` random draws (the SGD suite takes none)."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](trials, seed, specs)
