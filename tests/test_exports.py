"""Every name a `cantorshift` module exports resolves, a class or function
is exported only by the module that defines it, and every name the
package re-exports is exported by one of its modules, so a deleted
function cannot stay listed in an `__all__` or behind the package.  Read
from the source with `ast`: every name a module imports is used there or
exported, and every private module-level function or class is referenced
outside its own definition, so deleting a route cannot leave its imports
or helpers behind."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import cantorshift

SUBMODULES = sorted(info.name for info in
                    pkgutil.iter_modules(cantorshift.__path__, "cantorshift."))


def _exports(module):
    """The module's `__all__`, or else the public names it defines."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {attr for attr, obj in vars(module).items()
            if not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__}


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_package_reexports_are_module_exports():
    # Some names are resolved on first use, so every listed name is read
    # with getattr here: a misspelt lazy entry fails in any test order.
    modules = [importlib.import_module(name) for name in SUBMODULES]
    public = [attr for attr in dir(cantorshift) if not attr.startswith("_")
              and not isinstance(getattr(cantorshift, attr), types.ModuleType)]
    assert sorted(public) == sorted(cantorshift.__all__)
    assert len(public) > 50
    star = {}
    exec("from cantorshift import *", star)
    assert star.keys() - {"__builtins__"} == set(public)
    assert not hasattr(cantorshift, "no_such_name")
    for attr in public:
        homes = [m for m in modules if attr in _exports(m)]
        assert homes, f"cantorshift.{attr} is exported by no module"
        assert all(getattr(m, attr) is getattr(cantorshift, attr) for m in homes), attr


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_have_one_home(name):
    """A class or function is exported by the module that defines it, so
    each exported name has one home."""
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ())
            if getattr(getattr(module, attr), "__module__", name) != name] == []


SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(cantorshift.__file__).parent.glob("*.py"))}


def _names_read(tree):
    """Every name, attribute and imported name that appears in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _module_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("stem", sorted(set(SOURCES) - {"__init__"}))
def test_imports_are_used(stem):
    tree = SOURCES[stem]
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - used - _module_all(tree)) == []


def test_private_definitions_are_referenced():
    # the names read by each top-level statement of each module; a
    # definition's own statement does not count as a reference to it
    reads = [(stem, node, _names_read(node)) for stem, tree in SOURCES.items()
             for node in tree.body]
    unused = [f"{stem}.{node.name}" for stem, node, _ in reads
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and not any(node.name in names for _, other, names in reads if other is not node)]
    assert unused == []
