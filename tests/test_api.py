"""Public names: every export resolves, and the package re-exports only them."""

import importlib
import pkgutil

import pytest

import srlab

MODULES = sorted(f"srlab.{m.name}" for m in pkgutil.iter_modules(srlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.__all__ names missing {export!r}"


def test_package_reexports_only_module_exports():
    exported = {export: importlib.import_module(name)
                for name in MODULES
                for export in getattr(importlib.import_module(name), "__all__", ())}
    public = [n for n in vars(srlab) if not n.startswith("_")
              and not isinstance(getattr(srlab, n), type(srlab))]
    for name in public:
        assert name in exported, f"srlab.{name} is in no module's __all__"
        assert getattr(srlab, name) is getattr(exported[name], name)
