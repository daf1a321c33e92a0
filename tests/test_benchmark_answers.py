"""The benchmark's graded answers, in process: an engine change that breaks
an answer the benchmark grades (a return shape, a result field) fails here,
not only in a benchmark run.  ``perfbench/workloads.py`` is imported as it
is and only read."""

import importlib.util
import sys
from pathlib import Path

import pytest

import diffeolin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    """The module, loaded from its file; its sibling ``inputs`` is imported
    by name while it loads and leaves ``sys.modules`` again afterwards."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        patch.setitem(sys.modules, "workloads", module)
        # Recorded as absent, so that leaving the context drops the copy
        # of ``inputs`` that the load imports.
        patch.setitem(sys.modules, "inputs", None)
        patch.delitem(sys.modules, "inputs")
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, ops", [("Tensor64", 4), ("PlotQueries", 40)])
def test_every_benchmark_answer_of_pass_0_grades_ok(workloads, tmp_path, name, ops):
    """At ``--size toy`` and seed 7, pass 0 of each graded workload answers
    every op as its reference says."""
    workload = getattr(workloads, name)(diffeolin, 7, "toy", str(tmp_path))
    graded = [(op.kind, workloads.grade(op.call(), op.expected)) for op in workload.passes[0]]
    assert len(graded) == ops
    assert [g for g in graded if g[1] != "ok"] == []
