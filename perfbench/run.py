"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  Each workload calls ``vvlearn.cli.main(argv)`` in
process on inputs generated from ``--seed`` (see workloads.py and
README.md).  One untimed iteration comes first and fixes the reference
outputs; then iterations repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over the timed iterations, and the median set-up time of several fresh
interpreter processes, both in calibrated seconds (see calibration.py).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of BENCHMARK.json; the tracer module is imported only
then.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 means the
program or the benchmark definition is not there; 1 is a harness error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-sparse-mlc", "curve-passes", "rademacher-sandwich")
MIN_ITERATIONS = 3
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 120
# Each calibration point repeats the reference task for this share of an
# iteration: one ~0.1 s sample is as noisy as a ~6 s iteration is.
CALIBRATION_SHARE = 0.1


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-failure",
        action="store_true",
        help="make the first call of the first iteration fail, to show failures are counted",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _workdir(tag: str) -> Path:
    path = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def _setup(args, work: Path):
    """Import the CLI and generate the workload's inputs: the timed set-up."""
    import vvlearn.cli
    import workloads

    return vvlearn.cli, workloads.WORKLOADS[args.workload](work, args.seed)


def _setup_probe(args) -> int:
    work = _workdir("probe")
    try:
        start = perf_counter()
        _setup(args, work)
        print(perf_counter() - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _setup_seconds(args) -> float:
    """Set-up time in a fresh interpreter: import plus input generation."""
    probe = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_PROBE_TIMEOUT_S,
        check=True,
    )
    return float(probe.stdout.split()[-1])


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    return fn()
    except OSError:
        pass
    return None


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
        "src_lines": src_lines,
    }


class Runner:
    """Runs iterations of a workload and counts failed operations."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self._reference = [None] * len(workload.ops)
        self.last_wall = None

    def iteration(self, tracer=None, extra_first: list[str] = ()) -> float:
        """Run every op once, traced if a tracer is given; returns the seconds inside main."""
        wall = 0.0
        for k, op in enumerate(self.workload.ops):
            for path in op.outputs:
                path.unlink(missing_ok=True)
            argv = op.argv + list(extra_first if k == 0 else ())
            if tracer is not None:
                tracer.install()
            try:
                seconds, error = self._call(argv)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            wall += seconds
            self.attempted += 1
            error = error or self._verify(k, op)
            if error:
                self.failures.append(f"{' '.join(argv)}: {error}")
        self.last_wall = wall
        return wall

    def _call(self, argv):
        captured = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.cli.main(argv)
        except Exception as err:  # a crashing call is a failed op, not a failed benchmark
            return perf_counter() - start, f"raised {type(err).__name__}: {err}"
        seconds = perf_counter() - start
        if code != 0:
            tail = captured.getvalue().strip().splitlines()[-1:]
            return seconds, f"exit code {code} {tail}"
        return seconds, None

    def _verify(self, k, op):
        """Check the first good outputs; later ones must match them byte for byte."""
        try:
            outputs = [path.read_bytes() for path in op.outputs]
        except OSError as err:
            return f"missing output: {err}"
        digest = hashlib.sha256(b"\0".join(hashlib.sha256(o).digest() for o in outputs)).hexdigest()
        if self._reference[k] is None:
            try:
                problems = op.check(outputs)
            except Exception as err:  # unreadable outputs fail the check
                problems = [f"check raised {type(err).__name__}: {err}"]
            if problems:
                return "; ".join(problems)
            self._reference[k] = digest
            return None
        if digest != self._reference[k]:
            return "outputs differ from the first run with the same seed"
        return None


def _until(seconds: float, step) -> None:
    """Call step(i) at least MIN_ITERATIONS times and until `seconds` pass.

    The last step may start only if at least half of it fits before the
    deadline, so a run overshoots its window by at most half a step.
    """
    start = perf_counter()
    deadline = start + seconds
    count = 0
    while count < MIN_ITERATIONS or perf_counter() + 0.5 * (perf_counter() - start) / count < deadline:
        step(count)
        count += 1


def _end_to_end(args, runner) -> tuple[dict, dict]:
    """Medians of calibrated times: each iteration over the reference task
    times measured right before and after it, each set-up probe over the
    one right before it (see calibration.py)."""
    import calibration

    window = CALIBRATION_SHARE * runner.last_wall  # from the warm-up

    def task():
        return calibration.mean_time(runner.workload.reference, window)

    walls, wall_refs = [], [task()]
    setup, setup_refs = [], []

    def probe(ref):
        # Each probe is calibrated by the task time taken just before it.
        setup_refs.append(ref)
        setup.append(_setup_seconds(args))

    def step(i):
        walls.append(runner.iteration())
        wall_refs.append(task())
        # Set-up probes run between the first iterations, so that they sample
        # the machine's speed across the window rather than in one burst.
        if i < SETUP_PROBES:
            probe(wall_refs[-1])

    _until(args.seconds, step)
    while len(setup) < SETUP_PROBES:  # fewer iterations than probes
        probe(task())
    wall_ref_s = calibration.REFERENCE_S[runner.workload.reference]
    walls_cal = [wall_ref_s * w * 2 / (a + b) for w, a, b in zip(walls, wall_refs, wall_refs[1:])]
    setup_cal = [wall_ref_s * s / r for s, r in zip(setup, setup_refs)]
    work = runner.workload.work_per_iteration
    metrics = {
        "wall_s": statistics.median(walls_cal),
        "setup_s": statistics.median(setup_cal),
        "work_per_s": statistics.median(work / w for w in walls_cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "wall_s": walls,
        "setup_s": setup,
        "task_s_before_setup": setup_refs,
        f"{runner.workload.reference.__name__}_s": wall_refs,
        f"{runner.workload.work_name}_per_iteration": work,
    }
    return metrics, samples


def _per_layer(args, runner) -> tuple[dict, dict]:
    import tracer as tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []

    def pair(i):
        # Alternate which side goes first, so drift affects both alike.
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_side:
                tracer.begin(i)
                traced.append(runner.iteration(tracer))
            else:
                untraced.append(runner.iteration())

    _until(args.seconds, pair)
    n = len(traced)
    metrics = {name: value / n for name, value in tracer.metrics().items()}
    metrics["traced_wall_s"] = statistics.fmean(traced)
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    self_sum = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    metrics["trace_unattributed_s"] = metrics["traced_wall_s"] - self_sum
    if "optimizer.evaluate_objective.total_s" in metrics and "cli.main.total_s" in metrics:
        metrics["optimizer.eval_share"] = metrics["optimizer.evaluate_objective.total_s"] / metrics["cli.main.total_s"]
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write_spans(out / f"spans-{args.workload}.jsonl")  # one file per workload bounds disk use
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced, "notes": tracer.notes}
    return metrics, samples


def _run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    import workloads

    inject = workloads.INJECTED_FAILURE.get(args.workload, []) if args.inject_failure else []
    if args.inject_failure and not inject:
        print(f"no failure injection defined for {args.workload}", file=sys.stderr)
        return 2
    work = _workdir(args.workload)
    try:
        cli, workload = _setup(args, work)
        runner = Runner(cli, workload)
        runner.iteration(extra_first=inject)  # warm-up; fixes the reference outputs
        measure = _per_layer if args.trace else _end_to_end
        measured, samples = measure(args, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, missing = {}, []
    for name, unit in wanted.items():
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": unit}
        else:
            missing.append(name)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": _machine(),
        "samples": samples,
        "missing": missing,
        "failures": runner.failures,
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("machine", json.dumps(record["machine"]))
    print("samples", json.dumps(samples))
    for name in missing:
        print(f"missing metric {name}: its wrap target is gone")
    for failure in runner.failures[:10]:
        print("failed op:", failure)
    failed = len(runner.failures)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "vvlearn" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no vvlearn sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    # Pin BLAS threads before numpy loads; one thread keeps timings steady on a
    # shared machine, and the workloads' matrix products are small.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return _setup_probe(args) if args.setup_probe else _run(args)
    except Exception:  # harness error: no result line, nonzero exit
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
