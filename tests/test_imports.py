"""Static checks on the package sources: no module imports a name it never
uses.  A name listed in a module's __all__ counts as used (a re-export);
__init__.py is left out, since all its imports are re-exports."""

import ast
from pathlib import Path

import pytest

from k3lat import _exact as ex

PACKAGE = Path(ex.__file__).resolve().parent


def imported_names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    assert sorted(imported_names(tree) - used) == []
