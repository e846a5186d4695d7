"""Static checks on the package sources: no module imports a name it never
uses, and no module-level function, class or constant goes unreferenced;
every cache is bounded or listed, and README.md names each one; no form is
built past FiniteQuadraticForm's checks outside fqf.py; and on the tests:
no helper of conftest.py is left without a test.
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


def test_every_conftest_helper_is_used():
    # an oracle whose last test is deleted must go with it: every function
    # or class in conftest.py is read, imported or taken as a fixture
    # argument by some test module; an UPPER_CASE constant may serve
    # conftest alone
    tests = Path(__file__).resolve().parent
    conftest = parse(tests / "conftest.py")
    used = {name for name in referenced_names(conftest) if name.isupper()}
    for path in sorted(tests.glob("test_*.py")):
        tree = parse(path)
        used |= referenced_names(tree)
        used.update(a.arg for node in ast.walk(tree) if isinstance(node, ast.arguments)
                    for a in node.args + node.kwonlyargs)
    assert sorted(defined_names(conftest) - used) == []


def unchecked_form_uses(tree):
    """Line numbers of every use of fqf._from_sorted (by name, attribute or
    import) and of every FiniteQuadraticForm.__new__ or __new__ call with
    FiniteQuadraticForm as its first argument."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_from_sorted" or (
                isinstance(node, ast.Attribute) and node.attr == "_from_sorted"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and any(
                a.name == "_from_sorted" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "__new__" and (
                getattr(node.value, "id", None) == "FiniteQuadraticForm"
                or getattr(node.value, "attr", None) == "FiniteQuadraticForm"):
            yield node.lineno
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__"
              and node.args and getattr(node.args[0], "id", None) == "FiniteQuadraticForm"):
            yield node.lineno


def test_unchecked_forms_only_inside_fqf():
    # fqf builds forms from components it keeps sorted and unique without
    # the sort and duplicate check; every other module and test goes
    # through FiniteQuadraticForm(...), which checks outside input
    tests = Path(__file__).resolve().parent
    paths = sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py"))
    found = {f"{path.parent.name}/{path.name}": list(unchecked_form_uses(parse(path)))
             for path in paths}
    assert found.pop("k3lat/fqf.py"), "no use found in fqf.py: the scan is broken"
    assert {name: lines for name, lines in found.items() if lines} == {}


# Caches that may grow without a maxsize, each with why its keys are few.
UNBOUNDED_CACHES = {
    "rootsys._build": "one datum per (kind, rank); the rank is capped by MAX_BUILD_RANK",
    "rootsys._disc_lifts": "one entry per label of a datum that _build made",
    "prootpair._search_universe": "one universe per datum that _build made",
}


def cache_decorators(tree):
    """(function name, maxsize node or None) for every lru_cache or cache
    decorator in a module; a bare @lru_cache has the bounded default."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "cache":
                yield node.name, ast.Constant(None)
            elif name == "lru_cache":
                size = ast.Constant(128)
                if call and call.args:
                    size = call.args[0]
                for kw in call.keywords if call else ():
                    if kw.arg == "maxsize":
                        size = kw.value
                yield node.name, size


def test_every_cache_is_bounded_or_listed():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for func, size in cache_decorators(parse(path)):
            bounded = (isinstance(size, ast.Constant) and isinstance(size.value, int)
                       and not isinstance(size.value, bool))
            found[f"{path.stem}.{func}"] = bounded
    assert found, "no cache found: the decorator scan is broken"
    assert sorted(k for k, bounded in found.items() if not bounded) == sorted(UNBOUNDED_CACHES)


def test_readme_names_every_cache():
    # the README's list of process caches names each as `module.function`
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    names = [f"{path.stem}.{func}" for path in sorted(PACKAGE.glob("*.py"))
             for func, _ in cache_decorators(parse(path))]
    assert names, "no cache found: the decorator scan is broken"
    assert [name for name in names if f"`{name}`" not in readme] == []


# The functions of math that take and give ints; every other name is real.
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
# The Gauss-sum oracle is the package's floating-point computation; the only
# other float literals are acceptance.py's wall-clock budgets (0.0, 1.0) and
# the probability of one random draw (0.4).
FLOAT_EXEMPT_FUNCTIONS = {"fqf.brute_force_tau"}
FLOAT_LITERALS = {"acceptance": ["0.0", "0.4", "1.0"]}


def float_uses(node):
    """Every float or complex literal, float( or complex( call, use of cmath
    and real-valued name of math under node, as source-like text."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, (float, complex)):
            yield repr(sub.value)
        elif isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in ("float", "complex"):
            yield f"{sub.func.id}("
        elif isinstance(sub, ast.Import):
            yield from (f"import {a.name}" for a in sub.names if a.name == "cmath")
        elif isinstance(sub, ast.ImportFrom) and sub.module in ("cmath", "math"):
            yield from (f"from {sub.module} import {a.name}" for a in sub.names
                        if sub.module == "cmath" or a.name not in INTEGER_MATH)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and (
                sub.value.id == "cmath" or sub.value.id == "math"
                and sub.attr not in INTEGER_MATH):
            yield f"{sub.value.id}.{sub.attr}"


def test_floating_point_only_where_listed():
    found, exempt = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            uses = list(float_uses(node))
            if f"{path.stem}.{getattr(node, 'name', '')}" in FLOAT_EXEMPT_FUNCTIONS:
                exempt += uses
            elif uses:
                found.setdefault(path.stem, []).extend(uses)
    # the scan sees the exempt oracle's floats, so an empty result is no accident
    assert {"import cmath", "float(", "math.sqrt", "1j"} <= set(exempt)
    assert {name: sorted(uses) for name, uses in found.items()} == FLOAT_LITERALS
