"""Checks on the library source: the names the benchmark under perfbench/ calls
must keep resolving, each module imports only the layers below it and no name
it does not read, and the README's library tour runs."""

import ast
import importlib
import re
import sys
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


# the layers, lowest first; __init__.py imports none of them
LAYERS = (
    "partitions", "core", "congruences", "formulas", "logic", "analysis", "catalog", "claims", "cli"
)


def _imports(name: str) -> tuple[set, set]:
    """The uaforge modules and the top-level outside modules that name imports."""
    tree = ast.parse((ROOT / "src" / "uaforge" / f"{name}.py").read_text())
    own = {
        node.module or alias.name  # "from . import catalog" names the module itself
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    outside = {
        (node.module if isinstance(node, ast.ImportFrom) else alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and not node.level
        for alias in node.names
    }
    return own, outside


def test_modules_import_only_lower_layers():
    for rank, name in enumerate(LAYERS):
        imported = _imports(name)[0]
        assert imported <= set(LAYERS[:rank]), f"{name} imports {sorted(imported - set(LAYERS[:rank]))}"


def test_formulas_imports_only_the_standard_library_and_core():
    # the reference evaluator is the pp solver's oracle: it imports neither
    # the solver nor numpy, and no module reads its private names
    own, outside = _imports("formulas")
    assert own == {"core"}
    assert outside <= sys.stdlib_module_names, sorted(outside - sys.stdlib_module_names)
    private = {
        (path.name, alias.name)
        for path in sorted((ROOT / "src" / "uaforge").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "formulas"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert not private, sorted(private)


def test_every_import_is_read():
    # every module reads what it imports, so no module, __init__.py included, re-exports
    for path in sorted((ROOT / "src" / "uaforge").glob("*.py")):
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


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "no python block in README.md"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
