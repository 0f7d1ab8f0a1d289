"""One in-process pass of every benchmark workload, against its output gate.

The benchmark runs each workload in worker processes and gates its answers
on perfbench/expected.json; a library change that breaks what a workload
reads (for example the HS classification objects of structure-n4) shows up
here, in the test suite, and not only as a refused benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_each_workload_is_ok(name):
    work = workloads.WORKLOADS[name](7, EXPECTED)
    work.setup()
    rows = work.run_pass(0)
    assert len(rows) == work.operations
    assert [(op, detail) for op, ok, detail in rows if not ok] == []


def test_a_traced_structure_pass_is_ok():
    tracer = load("tracer").Tracer()
    work = workloads.WORKLOADS["structure-n4"](7, EXPECTED)
    work.setup()
    tracer.install()
    try:
        rows = work.run_pass(0)
    finally:
        tracer.uninstall()
    assert [(op, detail) for op, ok, detail in rows if not ok] == []
    assert tracer.totals()["analysis.hs_classify"]["calls"] == 2
