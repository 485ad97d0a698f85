"""Every module of the package uses the names it imports.

An import that no code reads is dead weight, and after a refactor it hides
which module still depends on which. An import kept on purpose, because a
hook reads the name from outside the module, says ``noqa`` on its line.
``__init__.py`` is left out: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graspmap"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def annotations(tree: ast.AST) -> list[ast.AST]:
    """The annotation expressions of a module: of arguments, returns and
    annotated assignments."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return [a for a in found if a is not None]


def unused_imports(source: str) -> list[str]:
    """'line: name' of each imported name the module never reads, unless the
    line importing it says noqa. A name read only inside a quoted annotation
    counts as read."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported += [(alias.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names
                         if alias.name != "*" and "noqa" not in lines[alias.lineno - 1]]
    quoted = [ast.parse(c.value, mode="eval") for a in annotations(tree)
              for c in ast.walk(a) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    used = {n.id for t in (tree, *quoted) for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [f"{line}: {name}" for line, name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_the_check_finds_an_unused_import_and_honours_noqa():
    source = ("import math\nimport os  # noqa: F401 -- read elsewhere\n"
              "from numpy import array, zeros\nfrom . import geometry as geo\n"
              "x = zeros(3)\ny: 'geo.Pose'\n\"\"\"math\"\"\"\n")
    assert unused_imports(source) == ["1: math", "3: array"]
