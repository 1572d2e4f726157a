"""The traced benchmark's use of the package, read from its source.

`bench/layers.py` times the package's functions one layer at a time, and
the tests run none of it.  Every `<module>.<name>` it reads on a qdepth
module must still exist, or the traced run breaks while the suite passes.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def qdepth_uses(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for each `from qdepth.module import name` and each
    attribute read on a module bound by `from qdepth import module`."""
    bound = {}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qdepth":
            bound.update({a.asname or a.name: a.name for a in node.names})
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("qdepth.")):
            module = node.module.split(".", 1)[1]
            uses.update((module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            uses.add((bound[node.value.id], node.attr))
    return uses


def missing(uses) -> list[str]:
    return [f"{module}.{name}" for module, name in sorted(uses)
            if not hasattr(importlib.import_module(f"qdepth.{module}"), name)]


def test_every_name_the_traced_run_reads_exists():
    uses = qdepth_uses(ast.parse(LAYERS.read_text(), "layers.py"))
    assert {module for module, _ in uses} == {
        "cnf", "gvs", "linear", "optimize", "product", "schedule"}
    assert ("schedule", "native3_report") in uses
    assert missing(uses) == []


def test_reader_sees_a_deleted_name():
    tree = ast.parse("from qdepth import schedule as s\n"
                     "from qdepth.optimize import solve_ip_exact\n"
                     "def f(g):\n"
                     "    return s.no_such_function(g), s.color_edges(g)\n")
    uses = qdepth_uses(tree)
    assert uses == {("schedule", "no_such_function"),
                    ("schedule", "color_edges"),
                    ("optimize", "solve_ip_exact")}
    assert missing(uses) == ["schedule.no_such_function"]
