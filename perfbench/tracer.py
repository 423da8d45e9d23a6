"""Outside-in tracer for the traced benchmark run.

The tracer replaces public functions of the vvlearn modules with wrappers
that record one span per call (id, parent id, layer, start, end) and
accumulate per-layer call counts, self time and inclusive time.  A layer's
self time is its span's duration minus the durations of its child spans;
since calls nest, the self times of all layers under ``cli.main`` add up
to the duration of ``cli.main``.

Functions are wrapped where callers look them up: a module that did
``from .core import predict`` calls its own binding, so each layer lists
every module attribute that leads to it.  A target that no longer exists
(renamed or removed by a later change) is skipped and reported; a layer
with no target left is reported as missing instead of failing the run.
The program's code is never edited; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from time import perf_counter


def _path_size(args, result):
    source = args["source"]
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


# layer -> (wrap targets as "module:attribute[.attribute]", {counter: fn(args, result)})
LAYERS = {
    "cli.main": (["vvlearn.cli:main"], {}),
    "cli.save_model": (["vvlearn.cli:save_model"], {}),
    "optimizer.train": (
        ["vvlearn.cli:train", "vvlearn.experiments:train", "vvlearn.optimizer:train"],
        {"optimizer.steps": lambda a, r: a["config"].total_steps},
    ),
    "optimizer.evaluate_objective": (
        ["vvlearn.cli:evaluate_objective", "vvlearn.optimizer:evaluate_objective"],
        {"optimizer.evaluate_objective.examples": lambda a, r: len(a["data"])},
    ),
    "losses.coef": (["vvlearn.losses:LossSpec.coef"], {}),
    "losses.value": (["vvlearn.losses:LossSpec.value"], {}),
    "core.predict": (["vvlearn.losses:predict", "vvlearn.core:predict"], {}),
    "core.frobenius_norm": (
        ["vvlearn.optimizer:frobenius_norm", "vvlearn.regularizers:frobenius_norm", "vvlearn.core:frobenius_norm"],
        {},
    ),
    "regularizers.grad": (["vvlearn.regularizers:RegularizerSpec.grad"], {}),
    "rademacher.sandwich_check": (["vvlearn.cli:sandwich_check", "vvlearn.rademacher:sandwich_check"], {}),
    "rademacher.estimate_complexity": (
        ["vvlearn.rademacher:estimate_complexity"],
        {"rademacher.sign_vectors": lambda a, r: r.trials},
    ),
    "dataio.parse_sparse_text": (
        ["vvlearn.cli:parse_sparse_text", "vvlearn.dataio:parse_sparse_text"],
        {"dataio.parse_sparse_text.rows": lambda a, r: len(r), "dataio.parse_sparse_text.bytes": _path_size},
    ),
    "dataio.normalize_rows": (
        ["vvlearn.cli:normalize_rows", "vvlearn.dataio:normalize_rows"],
        {"dataio.normalize_rows.rows": lambda a, r: len(a["dataset"])},
    ),
    "dataio.synth_gen": (["vvlearn.cli:synth_gen", "vvlearn.dataio:synth_gen"], {}),
    "dataio.split": (["vvlearn.experiments:split", "vvlearn.dataio:split"], {}),
    "experiments.run_passes_curve": (
        ["vvlearn.cli:run_passes_curve", "vvlearn.experiments:run_passes_curve"],
        {},
    ),
    "experiments.emit_csv": (["vvlearn.cli:emit_csv", "vvlearn.experiments:emit_csv"], {}),
}


def _resolve(target: str):
    """(owner, attribute, function) for "module:attr.attr", or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    """Per-layer span recorder; install() around traced calls only."""

    def __init__(self):
        self.notes: list[str] = []
        self.stats: dict[str, list[float]] = {}  # layer -> [calls, self_s, total_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._bindings = []  # (owner, attribute, original, wrapper)
        for layer, (targets, counters) in LAYERS.items():
            counters = dict(counters)  # shared by the layer's wrappers; _count may drop entries
            found = [(t, _resolve(t)) for t in targets]
            for target, hit in found:
                if hit is None:
                    self.notes.append(f"wrap target {target} not found")
            resolved = [hit for _, hit in found if hit is not None]
            if not resolved:
                continue
            self.stats[layer] = [0, 0.0, 0.0]
            self.counts.update(dict.fromkeys(counters, 0))
            for owner, attr, fn in resolved:
                self._bindings.append((owner, attr, fn, self._wrap(layer, fn, counters)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def begin(self, trace_id: int) -> None:
        """Start a new trace; only the latest trace's spans are kept."""
        self.trace_id = trace_id
        self.spans.clear()

    def metrics(self) -> dict[str, float]:
        """Accumulated `<layer>.calls`, `.self_s`, `.total_s` and counters."""
        out = dict(self.counts)
        for layer, (calls, self_s, total_s) in self.stats.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.total_s"] = total_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, parent, layer, start, end in self.spans:
                record = {"trace": self.trace_id, "span": span_id, "parent": parent, "name": layer, "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")

    def _count(self, counters, signature, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs).arguments
        for name, counter in list(counters.items()):
            try:
                self.counts[name] += counter(bound, result)
            except (KeyError, AttributeError, TypeError) as err:
                # The function's arguments or result changed shape.
                self.notes.append(f"counter {name} dropped: {type(err).__name__}: {err}")
                del counters[name]
                self.counts.pop(name, None)

    def _wrap(self, layer, fn, counters):
        stat = self.stats[layer]
        stack = self._stack
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_span += 1
            frame = [self._next_span, 0.0]  # span id, time spent in child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                stat[2] += duration
                if parent is not None:
                    parent[1] += duration
                parent_id = None if parent is None else parent[0]
                self.spans.append((frame[0], parent_id, layer, start, end))
            if counters:
                self._count(counters, signature, args, kwargs, result)
            return result

        return traced
