"""Source checks that need no linter: every import in the package is read,
every function, class, method and property it defines is read somewhere, one
function loads npz files, one starts a process pool and one forks the draw
process, one training loop draws the views and ``train_one`` wraps it, one
class declares the loss terms, a dataset holds its known/unknown split only
in its arrays, and importing the CLI loads no scipy module."""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from ltgcd.data import EmbeddingDataset

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


def readers_of(source: str, targets: set[str]) -> set[tuple[str, str]]:
    """``(target, function)`` for each dotted name of ``targets`` (such as
    ``np.load``) that ``source`` reads, by its whole dotted name or its last
    parts; ``function`` is the innermost enclosing one, ``""`` at module level.
    Imports bind names and are not reads."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = ast.unparse(node)
            found.update((t, function) for t in targets
                         if dotted == t or dotted.endswith("." + t))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return found


def test_detects_readers_of_a_dotted_name():
    source = (
        "import concurrent.futures\n"
        "import numpy as np\n"
        "def load(p):\n"
        "    def inner():\n"
        "        return np.load(p), np.loadtxt(p)\n"
        "    return inner\n"
        "pool = concurrent.futures.ProcessPoolExecutor\n"
    )
    assert readers_of(source, {"np.load", "ProcessPoolExecutor"}) == {
        ("np.load", "inner"), ("ProcessPoolExecutor", "")}


def test_one_npz_reader_and_one_pool():
    # the README promises one checked npz reader, one process pool and one
    # other process: the helper that _DrawAhead forks
    starters = {"ProcessPoolExecutor", "os.fork", "os.forkpty", "Process", "Popen",
                "subprocess.run", "os.system", "os.posix_spawn"}
    found = {(path.stem, *use) for path in sorted(PACKAGE.glob("*.py"))
             for use in readers_of(path.read_text(), {"np.load", *starters})}
    assert found == {("data", "np.load", "read_npz"), ("harness", "ProcessPoolExecutor", "sweep"),
                     ("harness", "os.fork", "__init__")}


def test_one_training_loop():
    # train_one is a group of one, so only train_group makes views and steps;
    # their random draws come from one routine, called by the loop in this
    # process or by the helper into its ring, and make_views only takes them
    source = (PACKAGE / "harness.py").read_text()
    assert readers_of(source, {"make_views", "draw_views"}) == {
        ("make_views", "train_group"), ("draw_views", "train_group"), ("draw_views", "_draw")}
    assert readers_of((PACKAGE / "data.py").read_text(), {"draw_views"}) == set()
    (train_one,) = [node for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.FunctionDef) and node.name == "train_one"]
    assert [ast.unparse(node) for node in train_one.body[1:]] == [
        "return train_group(data, [hp])[0]"]


def test_loss_terms_are_declared_once():
    # a batch's breakdown and an epoch's log extend one declaration of the terms
    declared = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        declared.setdefault(stmt.target.id, []).append(node.name)
    terms = ("l_ins", "l_sup", "h_prior", "h_uniform", "l_overall")
    assert {term: declared.get(term) for term in terms} == dict.fromkeys(terms, ["Losses"])


def test_one_copy_of_the_split():
    # the dataset npz is the whole dataset and the known classes are the
    # labeled rows' classes, so no manifest is parsed and no field repeats them
    tree = ast.parse((PACKAGE / "data.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "json" not in modules
    assert [f.name for f in fields(EmbeddingDataset)] == [
        "points", "labels", "is_labeled", "num_classes"]


def test_cli_import_loads_no_scipy():
    # scipy.optimize alone costs a process about 48 MB; the package needs none of it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    modules = subprocess.run(
        [sys.executable, "-c", "import ltgcd.cli, sys; print(*sys.modules, sep='\\n')"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "ltgcd.evaluation" in modules
    assert [m for m in modules if m.startswith("scipy")] == []
