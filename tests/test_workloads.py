"""One in-process pass of every benchmark workload, against its output gate.

The benchmark runs each workload in worker processes and gates its answers
on perfbench/expected.json; a library change that breaks what a workload
reads (for example the HS classification objects of structure-n4) shows up
here, in the test suite, and not only as a refused benchmark run.  The pp
solver's work on the pp-query-n4 and registry-n3 traffic is pinned too, so
a change to that work shows up here before any timing does.
"""

import collections
import contextlib
import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from uaforge import catalog, logic

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


@contextlib.contextmanager
def solver_calls():
    """The outermost calls of each stage of the pp solver made in the block;
    every call of _members, and the cuts: the calls of _holds from _solve."""
    counts = dict.fromkeys(("_compile", "_solve", "_run_step", "_image", "_members", "cuts"), 0)
    depth = collections.Counter()  # _run_step, _image and _members call themselves

    def spy(name, real):
        def call(*args):
            if name == "_holds":
                counts["cuts"] += sys._getframe(1).f_code.co_name == "_solve"
            else:
                counts[name] += name == "_members" or not depth[name]
            depth[name] += 1
            try:
                return real(*args)
            finally:
                depth[name] -= 1

        return call

    with contextlib.ExitStack() as stack:
        for name in ("_compile", "_solve", "_run_step", "_image", "_members", "_holds"):
            stack.enter_context(mock.patch.object(logic, name, spy(name, getattr(logic, name))))
        yield counts


# each k draws x from one orbit of the atom permutations, which fix phi(k, 4),
# so every pass of every seed makes the same calls
@pytest.mark.parametrize("seed", (1, 7, 27, 41, 53))
def test_a_pp_query_pass_makes_the_pinned_solver_calls(seed):
    work = workloads.WORKLOADS["pp-query-n4"](seed, EXPECTED)
    work.setup()
    with solver_calls() as counts:
        rows = work.run_pass(0)
    assert all(ok for _op, ok, _detail in rows)
    assert counts == {
        "_compile": 6, "_solve": 21, "_run_step": 11, "_image": 17, "_members": 322, "cuts": 8
    }


def test_a_registry_pass_makes_the_pinned_solver_calls():
    # a registry pass starts with an empty catalog memo, as each benchmark pass does
    work = workloads.WORKLOADS["registry-n3"](7, EXPECTED)
    with mock.patch.dict(catalog._memo, clear=True), solver_calls() as counts:
        rows = work.run_pass(0)
    assert all(ok for _op, ok, _detail in rows)
    assert counts == {
        "_compile": 39, "_solve": 39, "_run_step": 91, "_image": 0, "_members": 0, "cuts": 10
    }
