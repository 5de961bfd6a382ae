"""Public names: every export resolves, and the package re-exports only them."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import srlab
from srlab.config import RunConfig

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


def settable_values():
    """(config fields, public values): every field of every RunConfig section,
    and the parameters of each function and the fields of each dataclass
    named in a module's __all__ (RunConfig's own fields are the sections)."""
    config = sum(len(dataclasses.fields(getattr(RunConfig(), f.name)))
                 for f in dataclasses.fields(RunConfig))
    public = 0
    for name in MODULES:
        module = importlib.import_module(name)
        for obj in (getattr(module, e) for e in getattr(module, "__all__", ())):
            if obj is RunConfig:
                continue
            if dataclasses.is_dataclass(obj):
                public += len(dataclasses.fields(obj))
            elif inspect.isfunction(obj):
                public += len(inspect.signature(obj).parameters)
    return config, public


def test_settable_value_count():
    # lower it when a change removes a settable value; a rise needs a reason
    assert settable_values() == (41, 156)


def test_public_name_count():
    # the names in the srlab modules' __all__; lower it when a change
    # removes one, a rise needs a reason
    assert sum(len(getattr(importlib.import_module(name), "__all__", ()))
               for name in MODULES) == 49
