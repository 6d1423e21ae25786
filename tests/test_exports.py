"""Every name that loopspace and its library modules export resolves, so a
deletion cannot leave a dangling entry in an ``__all__``; the runtime
imports nothing outside the standard library; and every error class it
defines for unusable input derives from the one InputError that the
command line turns into exit 2."""

import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import loopspace
from loopspace.checks import InputError

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


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in sorted(pathlib.Path(loopspace.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names
                        if n.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_value_error_is_an_input_error():
    defined = [
        cls
        for info in pkgutil.iter_modules(loopspace.__path__)
        if info.name != "__main__"
        for cls in vars(importlib.import_module("loopspace." + info.name)).values()
        if isinstance(cls, type) and cls.__module__ == "loopspace." + info.name
    ]
    errors = [cls for cls in defined if issubclass(cls, ValueError)]
    assert len(errors) >= 10
    assert [cls for cls in errors if not issubclass(cls, InputError)] == []
