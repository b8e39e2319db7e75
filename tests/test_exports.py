"""Every public name a module lists in ``__all__`` exists, and the package
re-exports only names its modules make public. ``import sabrkit`` alone
misses a stale string in ``__all__``. Every function the benchmark in
``perfbench/`` calls or rebinds by name exists too, so a deletion fails here
and not only in a benchmark run."""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

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


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def _entry_id(entry) -> str:
    return f"{entry[0].__name__}.{entry[1]}"


@pytest.mark.parametrize("entry", WORKLOADS.PUBLIC, ids=_entry_id)
def test_benchmark_public_function_exists(entry):
    module, attr = entry[:2]
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize("entry", WORKLOADS.INTERNAL, ids=_entry_id)
def test_benchmark_internal_call_exists(entry):
    # The span name starts with the module and name of the function the
    # calling module imported, e.g. datagen's price_from_terminals is
    # mc.price_from_terminals.
    module, attr, span = entry[:3]
    owner, name = span.split(".")[:2]
    fn = getattr(module, attr, None)
    assert callable(fn)
    assert fn is getattr(importlib.import_module(f"sabrkit.{owner}"), name)
