"""Randomized property suites for losses, regularizers, and the optimizer.

These are the same checks the command-line ``check`` subcommand runs:
Lipschitz continuity in the max norm on scores (with the registered
constants), convexity and the subgradient inequality, finite-difference
gradient agreement, and the SGD iterate-norm certificate.  Each suite
takes ``(trials, seed, specs)``, runs at the fixed settings below, and
returns a report with counterexample descriptions rather than raising,
so callers can print failures and choose an exit code.  The Lipschitz and
convexity suites score their trials in blocks of at most ``TRIAL_BLOCK``,
one call per loss kernel and block, and report the same at any block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import squared_norms
from .dataio import synth_gen
from .losses import LossSpec, standard_loss_specs
from .optimizer import CertificateError, StepSchedule, TrainConfig, train
from .regularizers import RegularizerSpec
from .seeding import derive_seed, generator

# The loss and convexity suites draw (D, C) weight matrices and length-D
# inputs, allow each inequality a slack of TOL, and score their trials in
# blocks of at most TRIAL_BLOCK, one loss call per block.
D, C, TOL, TRIAL_BLOCK = 8, 5, 1e-9, 1000
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


def _random_trial(rng: np.random.Generator):
    """Two (D, C) weight matrices and a dense input, entries uniform in [-5, 5],
    a class id, and a sign row holding both signs."""
    w1 = rng.uniform(-5.0, 5.0, size=(D, C))
    w2 = rng.uniform(-5.0, 5.0, size=(D, C))
    x = rng.uniform(-5.0, 5.0, size=D)
    x[rng.random(D) < 0.3] = 0.0  # keep zero features in the mix
    y = int(rng.integers(0, C))
    signs = 2 * rng.integers(0, 2, size=C, dtype=np.int8) - 1
    while np.all(signs == signs[0]):
        signs = 2 * rng.integers(0, 2, size=C, dtype=np.int8) - 1
    return w1, w2, x, y, signs


def _trial_blocks(rng: np.random.Generator, trials: int, draw):
    """(first, parts) for each block of at most TRIAL_BLOCK trials from trial first on, each part of
    draw(rng) stacked over them; trials draw in order, so the stream is the same at every block size."""
    for first in range(0, trials, TRIAL_BLOCK):
        draws = [draw(rng) for _ in range(min(TRIAL_BLOCK, trials - first))]
        yield first, map(np.array, zip(*draws))


def _scores(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x[i] @ w[i] for every trial i, bit for bit: numpy takes each stacked product as the lone one."""
    return (x[:, None, :] @ w)[:, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a[i]) for every i, bit for bit: both take the root of one BLAS dot per row."""
    return np.sqrt(squared_norms(a.reshape(len(a), -1)))


def lipschitz_suite(trials: int = 1000, seed: int = 0, specs: list[LossSpec] | None = None) -> SuiteReport:
    """Check |value(w) - value(w')| <= L * max-norm score gap, plus the
    induced weight-space bound ||subgrad||_F <= L * ||x||_2."""
    specs = standard_loss_specs() if specs is None else specs
    bounds = np.array([spec.lipschitz_inf for spec in specs])
    failures: list[str] = []
    for first, (w1, w2, x, y, signs) in _trial_blocks(generator(seed), trials, _random_trial):
        s1, s2 = _scores(x, w1), _scores(x, w2)
        gaps, x_norms = np.max(np.abs(s1 - s2), axis=1), _row_norms(x)
        diffs, grad_norms = np.empty((2, len(x), len(specs)))  # (trial, loss)
        for k, spec in enumerate(specs):  # one value pair and one coef call per loss
            labels = signs if spec.is_multilabel else y
            diffs[:, k] = np.abs(spec.value(s1, labels) - spec.value(s2, labels))
            grad_norms[:, k] = _row_norms(x[:, :, None] * spec.coef(s1, labels)[:, None, :])
        broken = np.stack([diffs > bounds * gaps[:, None] + TOL, grad_norms > bounds * x_norms[:, None] + TOL], axis=2)
        for i, k, grad in np.argwhere(broken).tolist():  # trial, then loss, value first
            name, bound, trial = specs[k].name, specs[k].lipschitz_inf, first + i
            if not grad:
                failures.append(
                    f"loss={name} trial={trial}: value gap {diffs[i, k]:.9g} exceeds "
                    f"L*score_gap = {bound:.3g}*{gaps[i]:.9g} + {TOL:g}"
                )
            else:
                failures.append(
                    f"loss={name} trial={trial}: subgradient norm {grad_norms[i, k]:.9g} "
                    f"exceeds L*||x|| = {bound * x_norms[i]:.9g} + {TOL:g}"
                )
    return SuiteReport("lipschitz", 2 * len(specs) * trials, failures)


def _random_regularizer(rng: np.random.Generator) -> RegularizerSpec:
    sigma = float(rng.uniform(0.1, 2.0))
    if rng.random() < 0.5:
        return RegularizerSpec.frobenius(sigma)
    return RegularizerSpec.l2p(sigma, float(rng.uniform(1.05, 2.0)))


def _convexity_trial(rng: np.random.Generator):
    """A lipschitz trial, then a chord parameter theta and a regularizer."""
    return *_random_trial(rng), float(rng.uniform(0.0, 1.0)), _random_regularizer(rng)


def convexity_suite(trials: int = 1000, seed: int = 0, specs: list[LossSpec] | None = None) -> SuiteReport:
    """Convexity and the subgradient inequality for every loss, and the
    strong-convexity inequalities for both regularizers."""
    specs = standard_loss_specs() if specs is None else specs
    failures: list[str] = []
    for first, (w1, w2, x, y, signs, theta, regs) in _trial_blocks(generator(seed), trials, _convexity_trial):
        t = theta[:, None, None]
        s1, s2, s_mid = (_scores(x, w) for w in (w1, w2, t * w1 + (1.0 - t) * w2))
        v2, lhs = np.empty((2, len(x), len(specs)))  # (trial, loss)
        above = np.empty(v2.shape, dtype=bool)  # the midpoint's value above the chord
        for k, spec in enumerate(specs):  # one value call per score matrix and one coef call per loss
            labels = signs if spec.is_multilabel else y
            v1, v2[:, k], v_mid = (spec.value(s, labels) for s in (s1, s2, s_mid))
            lhs[:, k] = v1 + np.sum(x[:, :, None] * spec.coef(s1, labels)[:, None, :] * (w2 - w1), axis=(1, 2))
            above[:, k] = v_mid > theta * v1 + (1.0 - theta) * v2[:, k] + TOL
        broken = np.stack([above, v2 < lhs - TOL], axis=2)
        for i, (a, b, reg) in enumerate(zip(w1, w2, regs)):  # the trial's two weight matrices
            trial = first + i
            for k, sub in np.argwhere(broken[i]).tolist():  # loss, convexity first
                if not sub:
                    failures.append(f"loss={specs[k].name} trial={trial}: convexity broken at theta={theta[i]:.6g}")
                else:
                    failures.append(
                        f"loss={specs[k].name} trial={trial}: subgradient inequality broken "
                        f"({v2[i, k]:.9g} < {lhs[i, k]:.9g} - {TOL:g})"
                    )

            mu = reg.strong_convexity
            gap = reg.norm(a - b)
            mid_val = reg.value(0.5 * (a + b))
            bound = 0.5 * reg.value(a) + 0.5 * reg.value(b) - mu / 8.0 * gap**2
            if mid_val > bound + TOL:
                failures.append(
                    f"reg={reg.name} trial={trial}: midpoint strong convexity broken "
                    f"({mid_val:.9g} > {bound:.9g} + {TOL:g})"
                )
            lhs_reg = reg.value(a) + float(np.sum(reg.grad(a) * (b - a))) + mu / 2.0 * gap**2
            if reg.value(b) < lhs_reg - TOL:
                failures.append(
                    f"reg={reg.name} trial={trial}: gradient strong convexity broken "
                    f"({reg.value(b):.9g} < {lhs_reg:.9g} - {TOL:g})"
                )
    return SuiteReport("convexity", (2 * len(specs) + 2) * trials, failures)


def central_difference(function, w: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of w; ``function`` maps a stack of
    matrices shaped like w to their values, and is called once, on every bumped matrix."""
    bumps = step * np.eye(w.size).reshape(w.size, *w.shape)
    values = function(np.concatenate([w + bumps, w - bumps]))
    return ((values[: w.size] - values[w.size :]) / (2.0 * step)).reshape(w.shape)


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
        label = int(rng.integers(0, FD_C))
        fd = central_difference(lambda ws: loss.value(x @ ws, np.full(len(ws), label)), w, FD_STEP)
        grad = np.outer(x, loss.coef((x @ w)[None, :], np.array([label]))[0])
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
