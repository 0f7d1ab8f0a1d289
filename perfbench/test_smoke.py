"""Smoke test of the benchmark itself (about two minutes):

    python3 -m pytest perfbench/test_smoke.py

Every workload, run for the shortest time (one pass per worker), must print
each metric BENCHMARK.json names with its unit; a wrong expected answer must
fail the gate; a directory without the library must be refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def copy_checkout(dest: Path, with_library: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_library:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_with_its_unit(workload, trace):
    proc, result = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        # the bypasses each workload is meant to show
        values = {name: m["value"] for name, m in result["metrics"].items()}
        if workload == "structure-n4":
            assert values["logic.eval_exists_decomposed.calls"] == 0
        if workload == "pp-query-n4":
            assert values["analysis.homs.calls"] == 0
            assert values["congruences.congruence_lattice.calls"] == 0


@pytest.mark.parametrize("workload, section, key, wrong", [
    ("registry-n3", "registry-n3", "S3.FSI-AN", "FSI classes have sizes [2, 3, 5]"),
    ("structure-n4", "structure-n4", "subalgebras", 15),
])
def test_wrong_expected_answer_fails_the_gate(tmp_path, workload, section, key, wrong):
    root = copy_checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected[section][key] = wrong
    path.write_text(json.dumps(expected))
    proc, result = run(root, workload)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_wrong_pp_verdict_fails_the_gate(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    work = workloads.PPQueryN4(seed=7, expected={})
    work.setup()
    # x = {0,1} has two atoms, so phi(1,4) relates it to e; claim it does not
    e = work.A4.index_of("e")
    monkeypatch.setattr(workloads, "draw_pp_pass",
                        lambda seed, index, A4: [{"k": 1, "x": 3, "y": e, "expected": False}])
    ((_op, ok, _detail),) = work.run_pass(0)
    assert not ok


def test_refuses_a_directory_without_the_library(tmp_path):
    root = copy_checkout(tmp_path, with_library=False)
    proc, result = run(root, "registry-n3")
    assert proc.returncode != 0
    assert result is None
