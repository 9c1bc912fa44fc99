"""No module of the package imports a name it never uses, and no private
helper outlives its callers.

No linter ships with the project, so this walks each module's syntax tree:
every name bound by an import must be read somewhere in the module, or be
listed in its ``__all__`` (a re-export); every module-level ``_name``
function or class must be read somewhere in the package outside its own
definition.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import medlitenet

PACKAGE = Path(medlitenet.__file__).parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport re\nre.compile('x')\n") == [
        "os (line 1)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _read_names(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def dead_private_helpers(sources: dict) -> list:
    """The ``module.name`` of each module-level ``_name`` function or class
    of ``sources`` (module name to source) that no module reads, not
    counting reads inside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_read_names(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}.{node.name}" for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and reads[node.name] == _read_names(node)[node.name])


def test_the_check_sees_a_dead_private_helper():
    sources = {"a": "def _used(): pass\ndef _dead(): pass\n"
                    "def _recursive(): return _recursive()\nclass _Kept: pass\n",
               "b": "from a import _used\nimport a\n_used()\na._Kept()\n"}
    assert dead_private_helpers(sources) == ["a._dead", "a._recursive"]


def test_no_dead_private_helpers():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert dead_private_helpers(sources) == []
