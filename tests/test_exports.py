"""Every name that loopspace and its library modules export resolves, so a
deletion cannot leave a dangling entry in an ``__all__``; the runtime
imports nothing outside the standard library, and no module of it imports
a private name of another; every error class it defines for unusable
input derives from the one InputError that the command line turns into
exit 2; every file error that names a line is a LineError; and
tests/reference.py imports no combination helper and no word reducer,
so that it stays an independent oracle for them."""

import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import loopspace
from loopspace.checks import InputError, LineError
from loopspace.goldman import FatGraphError, parse_fat_graph
from loopspace.models import ModelError, parse_model
from loopspace.structures import StructureError, parse_structure_file

SOURCES = sorted(pathlib.Path(loopspace.__file__).parent.glob("*.py"))

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
    for path in SOURCES:
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


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.partition(".")[0] == "loopspace"
            ):
                private += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []


def _reference_uses(helpers):
    """The names among helpers that tests/reference.py imports from
    loopspace or reads as an attribute."""
    tree = ast.parse((pathlib.Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    shared = [a.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("loopspace")
              for a in node.names if a.name in helpers]
    return shared + [node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr in helpers]


def test_reference_imports_no_combination_helper():
    # tests/reference.py is the oracle for the combination arithmetic of
    # loopspace.checks, so it keeps its own add and apply
    assert _reference_uses({"add_into", "apply_map"}) == []


def test_reference_imports_no_word_reducer():
    # reference_bracket reduces and rotates its terms on int letters, so it
    # takes no reducer or canonicaliser of rank strings from loopspace.goldman
    helpers = {"cyclic_reduce", "_reduce", "_least_rotation"}
    assert _reference_uses(helpers) == []


@pytest.mark.parametrize("parse, family, text, line", [
    (parse_model, ModelError, "gen x 2\n\ngen x 3\n", 3),
    (parse_model, ModelError, "gen x 2\ngen y 3\nd y = x\n", 3),
    (parse_structure_file, StructureError, "basis a 0\n# c\nproduct a c = a\n", 3),
    (parse_structure_file, StructureError, "basis a 0\nproduct a a = 1/0*a\n", 2),
    (parse_fat_graph, FatGraphError, "generators a\nsurface\n", 2),
    (parse_fat_graph, FatGraphError, "generators a\ngenerators b\n", 2),
    (parse_fat_graph, FatGraphError, "# none\ngenerators\n", 2),
    (parse_fat_graph, FatGraphError, "generators a b-c\ncyclic-order a a^-\n", 1),
    (parse_fat_graph, FatGraphError, "generators a\ncyclic-order a a^- b\n", 2),
], ids=["model duplicate", "model d degree", "struct unknown name", "struct zero denominator",
        "surface unrecognized", "surface second line", "surface empty", "surface bad name",
        "surface unknown letter"])
def test_file_errors_are_line_errors(parse, family, text, line):
    # each file format's line errors share LineError's line attribute and
    # message prefix, and stay errors of their own module
    with pytest.raises(LineError) as err:
        parse(text)
    assert isinstance(err.value, family)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")
