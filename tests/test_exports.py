"""Every name that loopspace and its library modules export resolves, so a
deletion cannot leave a dangling entry in an ``__all__``."""

import importlib
import pkgutil

import pytest

import loopspace

# cli and __main__ are entry points and export nothing
MODULES = ["loopspace"] + [
    "loopspace." + info.name
    for info in pkgutil.iter_modules(loopspace.__path__)
    if info.name not in {"cli", "__main__"}
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    names = module.__all__
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)
