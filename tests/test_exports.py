"""The package namespace matches the modules' ``__all__`` lists, so deletions leave no stale export."""

import importlib
import pkgutil
import types

import dpvote


def _module_exports():
    for info in pkgutil.iter_modules(dpvote.__path__):
        module = importlib.import_module(f"dpvote.{info.name}")
        if hasattr(module, "__all__"):
            yield module, module.__all__


def test_every_listed_name_resolves():
    for module, names in _module_exports():
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists undefined names {missing}"


def test_package_reexports_exactly_the_union_of_module_exports():
    listed = {name for _, names in _module_exports() for name in names}
    public = {name for name, value in vars(dpvote).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == listed
