"""No module of the package imports a name it never uses.

No linter ships with the project, so this walks each module's syntax tree:
every name bound by an import must be read somewhere in the module, or be
listed in its ``__all__`` (a re-export).
"""

import ast
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
