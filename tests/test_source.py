"""Source checks that need no linter: every import in the package is read,
and every function, class, method and property it defines is read somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ltgcd"
READERS = [path for top in ("src", "tests", "perfbench", "scripts")
           for path in sorted((ROOT / top).rglob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names an import binds that no expression in the module reads;
    ``__future__`` imports are directives, not names."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_definitions(package: list[str], readers: list[str]) -> list[str]:
    """Functions, classes, methods and properties defined in the ``package``
    sources (dunders aside) that no ``readers`` source reads as a name, an
    attribute or an imported name."""
    defined = {
        node.name
        for tree in map(ast.parse, package)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    read = set()
    for tree in map(ast.parse, readers):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(defined - read)


def test_detects_an_unread_definition():
    package = (
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def unused_method(self): pass\n"
        "def helper(): pass\n"
        "def unused(): pass\n"
    )
    reader = "from pkg import Box\nhelper()\nBox().size\n"
    assert unread_definitions([package], [reader]) == ["unused", "unused_method"]


def test_every_definition_is_read():
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_definitions(package, [path.read_text() for path in READERS]) == []
