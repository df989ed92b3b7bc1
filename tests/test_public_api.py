import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nclab"


def _referenced(tree: ast.AST) -> set[str]:
    """The names and attribute names that code in ``tree`` reads or imports
    (docstrings and other strings do not count)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _src_references(module: str, name: str) -> bool:
    """Whether code in ``src/`` other than the package's re-exports and the
    definition of ``name`` in ``module`` refers to ``name``."""
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        if path.stem == module:
            tree.body = [node for node in tree.body if getattr(node, "name", None) != name]
        if name in _referenced(tree):
            return True
    return False


@pytest.mark.parametrize("module", ["scenario", "prediction", "controller", "analysis",
                                    "allocation", "simulator"])
def test_every_public_name_is_reached(module):
    # a public name is reached when the program uses it, an acceptance
    # criterion checks it, or the benchmark measures it; any other is an
    # unused path
    acceptance = _referenced(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "bench").rglob("*.py")))
    unreached = [name for name in importlib.import_module(f"nclab.{module}").__all__
                 if name not in acceptance and not re.search(rf"\b{name}\b", bench)
                 and not _src_references(module, name)]
    assert unreached == []
