"""The library names the benchmark under perfbench/ calls must keep resolving."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(module: str, attr: str) -> None:
    obj = importlib.import_module(f"uaforge.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)


def test_benchmark_surface_resolves():
    # <module>.<attr> uses in the workloads, for modules imported from uaforge
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "uaforge"
        for alias in node.names
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert used, "no library calls found in the workloads"
    # the tracer's wrapped functions and the modules it patches
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    consts = {
        target.id: ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("TARGETS", "CALLER_MODULES")
    }
    assert consts["TARGETS"] and consts["CALLER_MODULES"]
    for module, attr in sorted(used | set(consts["TARGETS"])):
        _resolve(module, attr)
    for module in consts["CALLER_MODULES"]:
        importlib.import_module(f"uaforge.{module}")
