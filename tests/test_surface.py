"""Checks on the library source: the names the benchmark under perfbench/ calls
must keep resolving, and no module imports a name it does not read."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def test_every_import_is_read():
    # __init__.py imports to re-export; every other module reads what it imports
    for path in sorted((ROOT / "src" / "uaforge").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - read, f"{path.name} imports {sorted(imported - read)} unread"
