"""The benchmark's tracing targets name attributes that exist.

bench/tracing.py wraps (module, attribute) pairs of the package by name;
a renamed function would make ``--trace 1`` fail.  The file is read as
source, not imported, since install() rebinds module attributes; a traced
run happens in a subprocess.
"""

import ast
import importlib
import os
import subprocess
import sys

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


def test_traced_homology_commands_count(data_path):
    # the tracer reads .entries of every slice it sees and wraps
    # CochainComplex.cohomology; a traced betti and gysin must run and
    # count both
    bench = os.path.dirname(TRACING)
    model = data_path("s2.min")
    script = (
        f"import sys; sys.path.insert(0, {bench!r})\n"
        "import tracing\n"
        "from loopspace import cli\n"
        "tracer = tracing.install()\n"
        f"codes = [cli.main(['betti', '--space', 'string', '--model', {model!r}, '--cutoff', '6']),\n"
        f"         cli.main(['gysin', '--model', {model!r}, '--cutoff', '6'])]\n"
        "counts = tracer.counts\n"
        "print(codes, counts['homology.CochainComplex.slice.nnz'],\n"
        "      counts['homology.CochainComplex.cohomology.calls'])\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    codes, nnz, calls = run.stdout.splitlines()[-1].rsplit(" ", 2)
    assert codes == "[0, 0]"
    assert int(nnz) > 0 and int(calls) > 0


def test_input_generator_self_test():
    # bench/gen.py builds the benchmark's inputs with parse_model,
    # loop_model, equivariant_model, betti_table and parse_structure_file;
    # its self-test checks them against the fixtures
    gen = os.path.join(os.path.dirname(TRACING), "gen.py")
    run = subprocess.run([sys.executable, gen], capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "self-test: pass"
