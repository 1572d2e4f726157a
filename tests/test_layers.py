"""The package's two layers, read from the source without importing it.

The structure layer reads every depth from integer graphs; the oracle layer
builds the exact polynomials that check it (see `qdepth.cli`).  No
structure module may import an oracle module, at module level or inside a
function, and oracle modules import what they need at the top.
"""

import ast
from pathlib import Path

import pytest

import qdepth

SRC = Path(qdepth.__file__).parent
STRUCTURE = ("cnf", "product", "graph", "reports", "schedule", "greedy",
             "ipmodel", "optimize", "cli", "__init__", "__main__")
ORACLES = ("pubo", "linear", "gvs")


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), f"{module}.py")


def qdepth_imports(tree: ast.AST) -> set[str]:
    """The qdepth modules an import statement anywhere in the tree names,
    relative (`from .pubo import x`, `from . import pubo`) or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "qdepth." + base if base else "qdepth"
            names = [base] if base != "qdepth" else [
                f"qdepth.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "qdepth" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_every_module_is_in_one_layer():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    assert modules == sorted(STRUCTURE + ORACLES)


@pytest.mark.parametrize("module", STRUCTURE)
def test_structure_module_imports_no_oracle(module):
    assert qdepth_imports(parse(module)) & set(ORACLES) == set()


@pytest.mark.parametrize("module", ORACLES)
def test_oracle_module_imports_at_the_top(module):
    tree = parse(module)
    top = {id(node) for node in tree.body}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and id(node) not in top]
    assert nested == []
    assert "TYPE_CHECKING" not in {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_import_reader_sees_every_form():
    tree = ast.parse("import qdepth.pubo\n"
                     "def f():\n"
                     "    from . import gvs\n"
                     "    from .linear import x\n"
                     "    from qdepth.graph import y\n"
                     "    import json\n")
    assert qdepth_imports(tree) == {"pubo", "gvs", "linear", "graph"}
