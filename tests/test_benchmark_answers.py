"""The benchmark's graded answers, in process: an engine change that breaks
an answer the benchmark grades (a return shape, a result field) fails here,
not only in a benchmark run.  ``perfbench/workloads.py`` is imported as it
is and only read."""

import hashlib
import importlib.util
import json
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


def _sha256_prefix(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, prefix", [("Tensor64", "28bdf37bbca50abc"),
                                          ("PlotQueries", "350677c374a574cf")])
def test_pass_0_at_full_size_answers_the_pinned_digest(workloads, tmp_path, name, prefix):
    """At ``--size full`` and seed 1, the answers of pass 0 hash to the
    digest that ``perfbench/run.py`` reports: a change to any answer text
    fails here, not only in a benchmark run."""
    workload = getattr(workloads, name)(diffeolin, 1, "full", str(tmp_path))
    texts = [workloads.answer_text(op.call()) for op in workload.passes[0]]
    assert _sha256_prefix("\n".join(texts)) == prefix


def test_the_verify_document_answers_the_pinned_digest(workloads, capsys):
    """``--json verify`` through the CLI, digested as the benchmark digests
    it: every ``elapsed`` dropped, the exit code kept."""
    import diffeolin.cli

    code = diffeolin.cli.main(["--json", "verify"])
    doc = json.loads(capsys.readouterr().out)
    doc["exit_code"] = code
    assert _sha256_prefix(workloads.verify_digest_text(doc)) == "6ffa21894721f825"
