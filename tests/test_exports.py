"""Every public name a module lists in ``__all__`` exists, and the package
re-exports only names its modules make public. ``import sabrkit`` alone
misses a stale string in ``__all__``."""

import importlib
import inspect
import pkgutil

import pytest

import sabrkit

MODULES = [importlib.import_module(f"sabrkit.{info.name}")
           for info in pkgutil.iter_modules(sabrkit.__path__)]


def public_names(module) -> set[str]:
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {name for name in vars(module) if not name.startswith("_")}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_exist(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_package_reexports_only_public_names():
    public = set().union(*map(public_names, MODULES))
    reexported = {name for name, obj in vars(sabrkit).items()
                  if not name.startswith("_") and not inspect.ismodule(obj)}
    assert reexported <= public, sorted(reexported - public)
