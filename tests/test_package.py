import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import bmlandscape

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(bmlandscape.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_defined_in_their_module(name):
    # the benchmark tracer wraps what __all__ names and skips a stale name
    # silently, so each listed name must be a function, class or constant of
    # the module itself
    module = importlib.import_module(f"bmlandscape.{name}")
    for attr in getattr(module, "__all__", ()):
        assert attr in vars(module), f"{module.__name__}.__all__ names missing {attr!r}"
        obj = vars(module)[attr]
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, f"{attr!r} is defined in {obj.__module__}"


def test_private_functions_are_used_outside_their_own_def():
    # a deletion can leave behind a helper that only its own body mentions;
    # a use is a name, attribute or import of it anywhere in the package
    source = pathlib.Path(bmlandscape.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in source.glob("*.py")]
    used = {}
    for tree in trees:
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            used.setdefault(name, set()).add(id(node))
    unused = [
        fn.name
        for tree in trees
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") and not fn.name.startswith("__")
        and not used.get(fn.name, set()) - {id(node) for node in ast.walk(fn)}
    ]
    assert unused == []


def test_constants_are_read_outside_their_own_assignment():
    # a deleted use can leave behind a floor or tolerance that nothing reads;
    # a read is a loaded name or an attribute anywhere in the package, so an
    # import alone does not count
    source = pathlib.Path(bmlandscape.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in source.glob("*.py")]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    constants = [
        target.id
        for tree in trees
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
    ]
    assert "ZERO_RTOL" in constants
    assert [name for name in constants if name not in read] == []


def test_overflow_rule_is_written_once():
    # matkernel.overflow_checked silences, tests and raises for every value
    # that may overflow; the trial engine silences overflow on its own, as a
    # diverging trial is an outcome it reports, not an error
    source = pathlib.Path(bmlandscape.__file__).parent
    found = set()
    for path in source.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        tops = ast.parse(text).body
        for match in re.finditer(r"overflows\s+float64|np\.errstate", text):
            line = text.count("\n", 0, match.start()) + 1
            owner = [getattr(node, "name", "") for node in tops if node.lineno <= line <= node.end_lineno]
            found.add((path.stem, *owner, re.sub(r"\s+", " ", match.group())))
    assert found == {
        ("matkernel", "overflow_checked", "overflows float64"),
        ("matkernel", "overflow_checked", "np.errstate"),
        ("dynamics", "_run_batch", "np.errstate"),
    }


def test_small_tolerances_are_named_constants():
    # a float below 1e-6 in the package is a tolerance or a floor: it is
    # written once, as a module constant, and ZERO_RTOL is the one zero test
    source = pathlib.Path(bmlandscape.__file__).parent
    loose, named = [], set()
    for path in source.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {
            id(node): stmt
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for node in ast.walk(stmt)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-6:
                stmt = top.get(id(node))
                if stmt is None:
                    loose.append(f"{path.stem}:{node.lineno}: {node.value!r}")
                else:
                    named.update(t.id for t in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]))
    assert loose == []
    assert named == {"ZERO_RTOL", "PINV_TOL_SCALE", "STATIONARY_TOL", "FEASIBILITY_TOL"}
