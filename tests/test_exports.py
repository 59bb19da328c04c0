"""Every name a `cantorshift` module exports resolves, a class or function
is exported only by the module that defines it, and every name the
package re-exports is exported by one of its modules, so a deleted
function cannot stay listed in an `__all__` or behind the package."""

import importlib
import pkgutil
import types

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
