"""Static checks on the package sources: no module imports a name it never
uses, and no module-level function, class or constant goes unreferenced.
A name listed in a module's __all__ counts as used (a re-export);
__init__.py is left out of the import check, since all its imports are
re-exports, and its imports count as references."""

import ast
from pathlib import Path

import pytest

from k3lat import _exact as ex

PACKAGE = Path(ex.__file__).resolve().parent


def parse(path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def imported_names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def exported_names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def defined_names(tree) -> set:
    """The functions, classes and constants defined at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("__")}


def referenced_names(tree) -> set:
    """Names read, attributes read, names imported from a module and names
    exported by __all__."""
    names = exported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(name):
    tree = parse(PACKAGE / name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used - exported_names(tree)) == []


def test_every_definition_is_referenced():
    trees = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(referenced_names, trees.values()))
    unused = [f"{name}:{defined}" for name, tree in trees.items()
              for defined in sorted(defined_names(tree) - referenced)]
    assert unused == []
