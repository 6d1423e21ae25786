"""The benchmark's tracing targets name attributes that exist.

bench/tracing.py wraps (module, attribute) pairs of the package by name;
a renamed function would make ``--trace 1`` fail.  The file is read as
source, not imported, since install() rebinds module attributes.
"""

import ast
import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def _targets():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("bench/tracing.py has no TARGETS list")


def test_targets_listed():
    assert _targets()


@pytest.mark.parametrize("module, attr", _targets())
def test_target_resolves(module, attr):
    mod = importlib.import_module("loopspace." + module)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        # install() takes a method from its class's own namespace
        assert name in vars(getattr(mod, owner_name))
    else:
        assert callable(getattr(mod, name))
