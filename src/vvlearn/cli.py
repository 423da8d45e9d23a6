"""Command-line interface.

Subcommands: train, eval, curve, rademacher, check.  Exit codes are 0 on
success, 1 for usage errors (bad or contradictory flags), 2 for data or
parse errors (unreadable files, malformed lines, dimension mismatches),
and 3 when a property check or certificate fails.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .checks import SUITE_NAMES, run_suite
from .dataio import Dataset, ParseError, normalize_rows, parse_sparse_text, synth_gen, write_lines
from .experiments import (
    CurveSpec,
    default_samplesize_grid,
    emit_csv,
    run_gap_curve,
    run_passes_curve,
    run_samplesize_curve,
)
from .losses import HINGE, LOGISTIC, LossSpec, standard_loss_specs
from .optimizer import (
    CertificateError,
    StepSchedule,
    TrainConfig,
    evaluate_mean_loss,
    train,
)
from .rademacher import sandwich_check, write_report_csv
from .regularizers import RegularizerSpec

MODEL_MAGIC = "vvlearn-model"
MODEL_VERSION = 1

_LOSS_CHOICES = ("mc_svm", "mlogistic", "topk", "subset", "ranking")


class UsageError(Exception):
    """Bad or contradictory command-line flags (exit 1)."""


class DataError(Exception):
    """Unusable data or model artifacts (exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Model container: one ASCII header line, then column-major float64 payload.


def save_model(path, w: np.ndarray, task: str, metadata: dict | None = None) -> None:
    """Write a weight matrix with its task kind and free-form metadata."""
    w = np.asarray(w, dtype=np.float64)
    fields = [MODEL_MAGIC, str(MODEL_VERSION), task, str(w.shape[0]), str(w.shape[1])]
    for key, value in sorted((metadata or {}).items()):
        token = f"{key}={value}"
        if any(ch.isspace() for ch in token):
            raise ValueError(f"metadata token {token!r} must not contain whitespace")
        fields.append(token)
    with open(path, "wb") as handle:
        handle.write((" ".join(fields) + "\n").encode("ascii"))
        handle.write(w.astype("<f8").tobytes(order="F"))


def load_model(path) -> tuple[np.ndarray, str, dict]:
    """Read a model container back; returns (weights, task, metadata)."""
    with open(path, "rb") as handle:
        header = handle.readline().decode("ascii", errors="replace").rstrip("\n")
        payload = handle.read()
    parts = header.split()
    if len(parts) < 5 or parts[0] != MODEL_MAGIC:
        raise DataError(f"{path}: not a model file")
    if parts[1] != str(MODEL_VERSION):
        raise DataError(f"{path}: unsupported model version {parts[1]}")
    task = parts[2]
    if task not in ("mcc", "mlc"):
        raise DataError(f"{path}: unknown task kind {task!r}")
    if not (parts[3].isdecimal() and parts[4].isdecimal()):  # also rejects signs
        raise DataError(f"{path}: malformed dimensions in header")
    d, c = int(parts[3]), int(parts[4])
    metadata = {}
    for token in parts[5:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise DataError(f"{path}: malformed metadata token {token!r}")
        metadata[key] = value
    if len(payload) != 8 * d * c:
        raise DataError(
            f"{path}: payload holds {len(payload)} bytes, expected {8 * d * c}"
        )
    w = np.frombuffer(payload, dtype="<f8").reshape((d, c), order="F").copy()
    return w, task, metadata


# ---------------------------------------------------------------------------
# Flag helpers.


def _parse_synth_spec(text: str, default_task: str) -> Dataset:
    known = {"n", "d", "c", "noise", "task", "seed"}
    values: dict[str, str] = {}
    for item in text.split(","):
        key, sep, value = item.partition("=")
        if not sep or key not in known:
            raise UsageError(f"bad --synth entry {item!r}; keys are {sorted(known)}")
        values[key] = value
    for required in ("n", "d", "c"):
        if required not in values:
            raise UsageError(f"--synth needs {required}=")
    return synth_gen(
        n=int(values["n"]),
        d=int(values["d"]),
        c=int(values["c"]),
        task=values.get("task", default_task),
        noise=float(values.get("noise", 0.0)),
        seed=int(values.get("seed", 0)),
    )


def _loss_from_flags(args) -> LossSpec:
    base = HINGE if args.base == "hinge" else LOGISTIC
    if args.loss == "mc_svm":
        return LossSpec.mc_svm(base)
    if args.loss == "mlogistic":
        return LossSpec.multinomial_logistic()
    if args.loss == "topk":
        return LossSpec.topk_svm(args.k)
    if args.loss == "subset":
        return LossSpec.subset(base)
    return LossSpec.ranking(base)


def _reg_from_flags(args, strength: float) -> RegularizerSpec:
    if args.reg == "frobenius":
        return RegularizerSpec.frobenius(strength)
    return RegularizerSpec.l2p(strength, args.p)


def _strength_and_schedule(args, default_lambda: float | None = None):
    sigma, lam = args.sigma, args.lam
    if sigma is not None and lam is not None:
        raise UsageError("--sigma and --lambda are mutually exclusive")
    if sigma is None and lam is None:
        if default_lambda is None:
            raise UsageError("exactly one of --sigma or --lambda is required")
        lam = default_lambda
    if sigma is not None:
        return sigma, StepSchedule.theorem(sigma)
    return lam, StepSchedule.experiment(lam)


def _check_task_compatible(loss_name: str, loss: LossSpec, task: str) -> None:
    needs = "mlc" if loss.is_multilabel else "mcc"
    if task != needs:
        raise UsageError(f"--loss {loss_name} needs task {needs!r}, got {task!r}")


def _check_labels(loss: LossSpec, data: Dataset) -> None:
    """Reject labels the loss cannot take before any work starts."""
    try:
        loss.check_labels(data.y, data.c)
    except ValueError as err:
        raise DataError(str(err)) from None


def _load_training_data(args, loss: LossSpec) -> Dataset:
    if (args.data is None) == (args.synth is None):
        raise UsageError("exactly one of --data or --synth is required")
    if args.synth is not None:
        data = _parse_synth_spec(args.synth, args.task)
    else:
        data = parse_sparse_text(args.data, args.task)
    _check_task_compatible(args.loss, loss, data.task)
    _check_labels(loss, data)
    if args.normalize:
        data = normalize_rows(data)
    return data


def _write_log_csv(records, destination) -> None:
    lines = ["step,empirical_objective,holdout_objective,iterate_frobenius_norm"]
    for record in records:
        holdout = "" if record.holdout_objective is None else f"{record.holdout_objective:.17g}"
        lines.append(
            f"{record.step},{record.empirical_objective:.17g},{holdout},"
            f"{record.iterate_frobenius_norm:.17g}"
        )
    write_lines(destination, lines)


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_train(args) -> int:
    if (args.steps is None) == (args.passes is None):
        raise UsageError("exactly one of --steps or --passes is required")
    loss = _loss_from_flags(args)
    strength, schedule = _strength_and_schedule(args)
    reg = _reg_from_flags(args, strength)
    data = _load_training_data(args, loss)
    n = len(data)
    total_steps = args.steps if args.steps is not None else args.passes * n
    record_every = args.record_every if args.record_every else n
    config = TrainConfig(
        loss=loss,
        reg=reg,
        schedule=schedule,
        total_steps=total_steps,
        seed=args.seed,
        record_every=record_every,
    )
    w, records = train(data, config)
    metadata = {
        "loss": loss.name.replace("/", ":"),
        "reg": reg.name,
        "strength": repr(strength),
        "schedule": schedule.kind,
        "seed": str(args.seed),
        "steps": str(total_steps),
        "normalize": "true" if args.normalize else "false",
    }
    save_model(args.model_out, w, data.task, metadata)
    _write_log_csv(records, args.log_out)
    final = records[-1]
    print(
        f"trained {total_steps} steps on {n} examples: "
        f"objective={final.empirical_objective:.17g} model={args.model_out}"
    )
    return 0


def _cmd_eval(args) -> int:
    w, task, _ = load_model(args.model)
    loss = _loss_from_flags(args)
    strength, _ = _strength_and_schedule(args, default_lambda=0.01)
    reg = _reg_from_flags(args, strength)
    data = parse_sparse_text(args.data, task, d=w.shape[0], c=w.shape[1])
    _check_labels(loss, data)
    if args.normalize:
        data = normalize_rows(data)
    mean_loss = evaluate_mean_loss(w, data, loss)
    objective = mean_loss + reg.value(w)  # evaluate_objective, scoring the data once
    print(f"objective={objective:.17g} loss={mean_loss:.17g}")
    return 0


def _cmd_curve(args) -> int:
    kind = {"passes": "passes", "samplesize": "sample_size", "gap": "gap"}[args.kind]
    loss = _loss_from_flags(args)
    strength, schedule = _strength_and_schedule(args, default_lambda=0.01)
    reg = _reg_from_flags(args, strength)
    data = _load_training_data(args, loss)
    if args.grid is not None:
        try:
            grid = tuple(int(g) for g in args.grid.split(","))
        except ValueError:
            raise UsageError(f"--grid must be comma-separated integers, got {args.grid!r}") from None
    elif kind == "passes":
        raise UsageError("--grid is required for --kind passes")
    else:
        available = int(args.train_fraction * len(data))
        try:
            grid = default_samplesize_grid(available)
        except ValueError as err:
            raise DataError(str(err)) from None
    if kind != "passes" and grid and grid[-1] > int(args.train_fraction * len(data)):
        raise DataError(
            f"grid value {grid[-1]} exceeds the available training pool of "
            f"{int(args.train_fraction * len(data))}"
        )
    spec = CurveSpec(
        kind=kind,
        grid=grid,
        repetitions=args.reps,
        loss=loss,
        reg=reg,
        schedule=schedule,
        seed=args.seed,
        train_fraction=args.train_fraction,
        passes_per_point=args.passes_per_point,
    )
    runner = {
        "passes": run_passes_curve,
        "sample_size": run_samplesize_curve,
        "gap": run_gap_curve,
    }[kind]
    points = runner(data, spec)
    emit_csv(points, args.out)
    print(f"wrote {len(points)} curve points to {args.out}")
    return 0


def _cmd_rademacher(args) -> int:
    report = sandwich_check(
        n=args.n,
        c=args.c,
        d=args.d,
        cap=args.lambda_cap,
        sigma=args.sigma,
        seed=args.seed,
        trials=args.trials,
        random_samples=args.random_samples,
        lower_scale=args.inflate_lower,
    )
    write_report_csv(report, args.out)
    print(
        f"nc={args.n * args.c} lower={report.lower_bound:.6g} "
        f"upper={report.upper_bound:.6g}"
    )
    for row in report.rows:
        print(
            f"  {row.label}: estimate={row.estimate:.6g} std_error={row.std_error:.3g} "
            f"{'ok' if row.passed else 'FAIL'}"
        )
    if not report.passed:
        print("sandwich check failed", file=sys.stderr)
        return 3
    return 0


def _cmd_check(args) -> int:
    specs = standard_loss_specs()
    if args.override_lipschitz:
        name, sep, value = args.override_lipschitz.partition("=")
        if not sep:
            raise UsageError("--override-lipschitz takes name=value")
        matches = [s for s in specs if s.name == name]
        if not matches:
            raise UsageError(
                f"no loss named {name!r}; known: {[s.name for s in specs]}"
            )
        specs = [s.with_lipschitz(float(value)) if s.name == name else s for s in specs]
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    failed = False
    for name in names:
        report = run_suite(name, trials=args.trials, seed=args.seed, specs=specs)
        print(report.summary())
        for failure in report.failures[:10]:
            print(f"  counterexample: {failure}")
        if len(report.failures) > 10:
            print(f"  ... and {len(report.failures) - 10} more")
        failed = failed or not report.passed
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_loss_flags(sub, loss_required: bool, default_loss: str | None = None):
    sub.add_argument(
        "--loss", choices=_LOSS_CHOICES, required=loss_required, default=default_loss
    )
    sub.add_argument("--base", choices=("hinge", "logistic"), default="hinge")
    sub.add_argument("--k", type=int, default=2, help="top-k truncation for --loss topk")
    sub.add_argument("--reg", choices=("frobenius", "l2p"), default="frobenius")
    sub.add_argument("--p", type=float, default=1.5, help="group-norm exponent for --reg l2p")
    sub.add_argument("--sigma", type=float, help="regularizer strength; selects the 1/(t*sigma) schedule")
    sub.add_argument("--lambda", dest="lam", type=float, help="regularizer strength; selects the 1/(lambda*t+1) schedule")


def _add_data_flags(sub):
    sub.add_argument("--data", help="path to a sparse text dataset")
    sub.add_argument("--synth", help="synthetic data spec, e.g. n=1000,d=10,c=5,noise=0.05")
    sub.add_argument("--task", choices=("mcc", "mlc"), default="mcc")
    sub.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="scale inputs to unit norm (default on)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vvlearn", description=__doc__)
    commands = parser.add_subparsers(dest="command")

    sub = commands.add_parser("train", help="run SGD and save the model")
    _add_data_flags(sub)
    _add_loss_flags(sub, loss_required=True)
    sub.add_argument("--steps", type=int, help="total SGD steps")
    sub.add_argument("--passes", type=int, help="passes over the data (n steps each)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--record-every", type=int, default=0, help="record cadence in steps (default: one pass)")
    sub.add_argument("--model-out", default="model.bin")
    sub.add_argument("--log-out", default="train_log.csv")
    sub.set_defaults(handler=_cmd_train)

    sub = commands.add_parser("eval", help="evaluate a saved model on a dataset")
    sub.add_argument("--model", required=True)
    sub.add_argument("--data", required=True)
    _add_loss_flags(sub, loss_required=False, default_loss="mlogistic")
    sub.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="scale inputs to unit norm (default on)",
    )
    sub.set_defaults(handler=_cmd_eval)

    sub = commands.add_parser("curve", help="learning-curve experiments")
    sub.add_argument("--kind", choices=("passes", "samplesize", "gap"), required=True)
    _add_data_flags(sub)
    _add_loss_flags(sub, loss_required=False, default_loss="mlogistic")
    sub.add_argument("--grid", help="comma-separated grid values")
    sub.add_argument("--reps", type=int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--train-fraction", type=float, default=0.8)
    sub.add_argument("--passes-per-point", type=int, default=5)
    sub.add_argument("--out", default="curve.csv")
    sub.set_defaults(handler=_cmd_curve)

    sub = commands.add_parser("rademacher", help="complexity estimates against the analytic band")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--c", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--lambda-cap", dest="lambda_cap", type=float, default=1.0)
    sub.add_argument("--sigma", type=float, default=1.0)
    sub.add_argument("--trials", type=int, default=10000, help="0 enumerates exactly (needs n*c <= 20)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--random-samples", type=int, default=2)
    sub.add_argument("--out", default="rademacher.csv")
    sub.add_argument("--inflate-lower", type=float, default=1.0, help=argparse.SUPPRESS)
    sub.set_defaults(handler=_cmd_rademacher)

    sub = commands.add_parser("check", help="randomized property suites")
    sub.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    sub.add_argument("--trials", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--override-lipschitz", help=argparse.SUPPRESS)
    sub.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits through here
        return 0 if exc.code in (0, None) else 1
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    if getattr(args, "handler", None) is None:
        print("usage error: a subcommand is required (see --help)", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (DataError, ParseError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except CertificateError as err:
        print(f"property failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:  # a flag value the library rejects
        print(f"usage error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
