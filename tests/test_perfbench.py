"""Each benchmark workload, run once through the CLI and checked by its own output checks.

The checks in ``perfbench/workloads.py`` call the library directly
(``evaluate_objective(w, data, loss, reg)``, ``parse_sparse_text(path, "mlc")``
and ``normalize_rows``), so a change to that surface fails here, not only
in a benchmark run.  Likewise every layer of ``perfbench/tracer.py`` must
find at least one of its wrap targets, so renaming a traced function such
as ``train``, ``evaluate_objective`` or ``run_passes_curve`` fails here.
The modules are imported as they are and never modified.
"""

import importlib
import sys
from pathlib import Path

import pytest

from vvlearn.cli import main

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def load_perfbench(name):
    sys.path.insert(0, PERFBENCH)  # workloads imports its sibling module calibration
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


WORKLOADS = load_perfbench("workloads").WORKLOADS
tracer = load_perfbench("tracer")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_passes_its_checks(tmp_path, name):
    workload = WORKLOADS[name](tmp_path, 1)
    for op in workload.ops:
        assert main(op.argv) == 0
        assert op.check([path.read_bytes() for path in op.outputs]) == []


@pytest.mark.parametrize("layer", sorted(tracer.LAYERS))
def test_every_traced_layer_resolves_a_wrap_target(layer):
    targets, _ = tracer.LAYERS[layer]
    assert any(tracer._resolve(target) for target in targets), f"layer {layer} wraps none of {targets}"
