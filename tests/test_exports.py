"""Every name that loopspace and its library modules export resolves, so a
deletion cannot leave a dangling entry in an ``__all__``; and the runtime
imports nothing outside the standard library."""

import ast
import importlib
import pathlib
import pkgutil
import sys

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
