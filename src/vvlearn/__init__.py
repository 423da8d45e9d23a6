"""Regularized linear models for multiclass and multilabel problems.

The package bundles sparse linear prediction over a CSR dataset, a family
of convex losses computed on score matrices with certified Lipschitz
constants, two strongly convex regularizers, a certified SGD trainer,
Rademacher complexity estimators, a sparse text data format,
learning-curve experiment drivers, and randomized property check suites.
"""

from .core import frobenius_norm, inf_norm_diff, l2p_norm, predict
from .dataio import (
    Dataset,
    ParseError,
    normalize_rows,
    parse_sparse_text,
    split,
    subsample,
    synth_gen,
    write_sparse_text,
)
from .experiments import (
    CurvePoint,
    CurveSpec,
    default_samplesize_grid,
    emit_csv,
    run_gap_curve,
    run_passes_curve,
    run_samplesize_curve,
)
from .losses import BaseLoss, HINGE, LOGISTIC, LossSpec, standard_loss_specs
from .optimizer import (
    CertificateError,
    RunRecord,
    StepSchedule,
    TrainConfig,
    evaluate_mean_loss,
    evaluate_objective,
    sgd_step,
    train,
)
from .rademacher import (
    ExtendedSample,
    RademacherEstimate,
    SandwichReport,
    SandwichRow,
    estimate_complexity,
    identical_pair_sample,
    khintchine_floor,
    mean_abs_sign_sum,
    sandwich_check,
    sup_ball,
    write_report_csv,
)
from .regularizers import RegularizerSpec
from .checks import SUITE_NAMES, SuiteReport, central_difference, run_suite
from .seeding import derive_seed, generator

__version__ = "0.1.0"

__all__ = [
    "BaseLoss",
    "CertificateError",
    "CurvePoint",
    "CurveSpec",
    "Dataset",
    "ExtendedSample",
    "HINGE",
    "LOGISTIC",
    "LossSpec",
    "ParseError",
    "RademacherEstimate",
    "RegularizerSpec",
    "RunRecord",
    "SUITE_NAMES",
    "SandwichReport",
    "SandwichRow",
    "StepSchedule",
    "SuiteReport",
    "TrainConfig",
    "central_difference",
    "default_samplesize_grid",
    "derive_seed",
    "emit_csv",
    "estimate_complexity",
    "evaluate_mean_loss",
    "evaluate_objective",
    "frobenius_norm",
    "generator",
    "identical_pair_sample",
    "inf_norm_diff",
    "khintchine_floor",
    "l2p_norm",
    "mean_abs_sign_sum",
    "normalize_rows",
    "parse_sparse_text",
    "predict",
    "run_gap_curve",
    "run_passes_curve",
    "run_samplesize_curve",
    "run_suite",
    "sandwich_check",
    "sgd_step",
    "split",
    "standard_loss_specs",
    "subsample",
    "sup_ball",
    "synth_gen",
    "train",
    "write_report_csv",
    "write_sparse_text",
]
