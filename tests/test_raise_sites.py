"""Every raise statement in src/loopspace is reached by a golden row that
exits 2, or is named in UNREACHABLE with the reason no command reaches it.
The library guards that no command reaches still raise their InputError
subclass with their message when called directly.

The sites are read from the modules' syntax trees.  The exit-2 rows of
test_golden.CLI_GOLDEN run under sys.settrace, which records the lines
executed in the package's own frames.  A new raise fails this test until
a golden row reaches it or UNREACHABLE says why none can.
"""

import ast
import functools
import os
import sys

import pytest

import loopspace
from loopspace.gca import AlgebraError, Derivation, GradedAlgebra
from loopspace.goldman import FatGraph, FatGraphError
from loopspace.homology import ChainMap, ChainMapError, CochainComplex, ComplexError, induced_map
from loopspace.structures import BasisSpace, StructureError, StructureTable

from test_golden import CLI_GOLDEN, _golden_streams

PACKAGE = os.path.dirname(loopspace.__file__)

# (module, a fragment of the raise statement's source): why no command
# reaches it.  Each fragment names exactly one site.
UNREACHABLE = {
    ("coderivations.py", "no coderivation components given"):
        "verify coderivations passes one component per arity, and the arity list is never empty",
    ("coderivations.py", "components disagree on shifted degrees"):
        "every component comes from the same string_brackets call, on one sbasis",
    ("coderivations.py", "need words of length at least 3"):
        "the CLI rejects --word-len below 3 before any check runs",
    ("coderivations.py", "bracket is not graded antisymmetric"):
        "verify coderivations runs this only after string_brackets passed its arity-2 symmetry",
    ("gca.py", "invalid generator name"):
        "model files check each name before the algebra is built, and derived names stay valid",
    ("gca.py", "degree must be >= 1"):
        "model files reject degrees below 2, and barred generators lose only one degree",
    ("gca.py", "duplicate generator name"):
        "model files reject duplicates, barred collisions and the reserved u first",
    ("gca.py", "element does not belong to this algebra"):
        "transfer is only called with elements of its own algebra",
    ("gca.py", "changes degree under transfer"):
        "transfer only targets algebras that extend its own with the same degrees",
    ("gca.py", "empty element expression"):
        "a d line's right side keeps a character that is not whitespace",
    ("gca.py", "operands live in different algebras"):
        "the CLI combines only elements of one algebra",
    ("gca.py", "is not an element"):
        "derivation values come from the algebra's own parser",
    ("gca.py", "value for {name!r} lives in"):
        "derivation values come from the algebra's own parser",
    ("gca.py", "derivations apply to elements"):
        "the CLI applies derivations only to elements",
    ("gca.py", "element lives in a different algebra"):
        "the CLI applies a derivation only to elements of its own algebra",
    ("goldman.py", "unknown half-edge"):
        "parse_fat_graph reads every cyclic-order token as a letter of a declared generator",
    ("goldman.py", "surface needs at least one generator"):
        "an empty generators line is rejected first, with its line number",
    ("goldman.py", "rays fail to diverge"):
        "reduced rays that agree past m + n letters share a root, and then the strands "
        "also agree backward, a visit the bracket skips",
    ("goldman.py", "words live on different surfaces"):
        "the CLI reads both words on one surface",
    ("homology.py", "differential lives on a different algebra"):
        "every complex is built from its own algebra's differential",
    ("homology.py", "differential must have degree +1"):
        "a d line off its degree is rejected when the model loads",
    ("homology.py", "raise ComplexError(bad)"):
        "a d that does not square to zero is rejected when the model loads, and the loop, "
        "string and based differentials built from it square to zero",
    ("homology.py", "monomial has a"):
        "the Gysin maps send each degree into the degree their shift names",
    ("homology.py", "cocycle is not a cocycle"):
        "each map is checked to be a chain map before its induced maps are read",
    ("linalg.py", "outside {nrows}x{ncols}"):
        "slices are built from basis indices inside their own dimensions",
    ("models.py", "fails {where}"):
        "the loop and string models built from a loaded model pass validate_model",
    ("models.py", "chain condition fails in degree"):
        "the Gysin maps commute with the differentials by construction",
    ("structures.py", "raise StructureError(problem)"):
        "the structure-file parser checks every name before the space is built",
    ("structures.py", "structure has no product table"):
        "each check that multiplies requires the product table first",
    ("structures.py", "max arity must be at least 2"):
        "the CLI rejects arities below 2 before any check runs",
}


@functools.cache
def raise_sites():
    """{(module file name, line): the lines of the raise statement} for
    every raise in the package, read from the syntax trees."""
    sites = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                text = fh.read()
            lines = text.splitlines()
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Raise):
                    sites[name, node.lineno] = "\n".join(lines[node.lineno - 1:node.end_lineno])
    return sites


def executed_lines(rows, tmp_path, capsys):
    """{(module file name, line)} executed in the package by the rows."""
    lines = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if os.path.dirname(frame.f_code.co_filename) == PACKAGE else None

    before = sys.gettrace()
    for k, (inp, argv, code, *_) in enumerate(rows):
        work = tmp_path / str(k)
        work.mkdir()
        sys.settrace(on_call)
        try:
            got = _golden_streams(inp, argv, work, capsys)[0]
        finally:
            sys.settrace(before)
        assert got == code, argv
    return lines


def test_unreachable_names_one_site_each():
    sites = raise_sites()
    for (module, fragment), reason in UNREACHABLE.items():
        hits = [line for (name, line), text in sites.items()
                if name == module and fragment in text]
        assert len(hits) == 1, (module, fragment, hits)
        assert reason and "\n" not in reason


def test_every_raise_site_is_reached_or_unreachable(tmp_path, capsys):
    sites = raise_sites()
    lines = executed_lines([row for row in CLI_GOLDEN if row[2] == 2], tmp_path, capsys)
    listed = {(module, line) for (module, line), text in sites.items()
              if any(m == module and f in text for m, f in UNREACHABLE)}
    reached = sites.keys() & lines
    assert not reached & listed, sorted(reached & listed)
    missing = sorted(site for site in sites if site not in reached | listed)
    assert not missing, [f"{m}:{line}: {sites[m, line].splitlines()[0].strip()}"
                         for m, line in missing]


X2 = GradedAlgebra([("x", 2), ("y", 3)])
X4 = GradedAlgebra([("x", 4)])


def _non_cocycle_image():
    # x is a cocycle of degree 2, and its image y has d y = x^2
    cx = CochainComplex(X2, Derivation(X2, 1, {"y": "x^2"}))
    x, y = X2.gen("x"), X2.gen("y")
    f = ChainMap(cx, cx, 1, lambda m: dict(y.terms) if m in x.terms else {}, name="shift")
    induced_map(f, 2)


GUARDS = {
    "transfer foreign element": (
        lambda: X4.transfer(X2.gen("x"), X2), AlgebraError,
        "element does not belong to this algebra"),
    "transfer changes degree": (
        lambda: X2.transfer(X2.gen("x"), X4), AlgebraError,
        "generator 'x' changes degree under transfer"),
    "sum across algebras": (
        lambda: X2.gen("x") + X4.gen("x"), AlgebraError,
        "operands live in different algebras"),
    "derivation value not an element": (
        lambda: Derivation(X2, 1, {"y": 5}), AlgebraError,
        "value for 'y' is not an element"),
    "derivation value elsewhere": (
        lambda: Derivation(X2, 2, {"x": X4.gen("x")}), AlgebraError,
        "value for 'x' lives in a different algebra"),
    "derivation of a non-element": (
        lambda: Derivation(X2, 1)(5), AlgebraError,
        "derivations apply to elements"),
    "derivation of a foreign element": (
        lambda: Derivation(X2, 1)(X4.gen("x")), AlgebraError,
        "element lives in a different algebra"),
    "unknown half-edge": (
        lambda: FatGraph(["a"], [1, -1, 2]), FatGraphError,
        "unknown half-edge 2 in cyclic order"),
    "surface without generators": (
        lambda: FatGraph([], []), FatGraphError,
        "surface needs at least one generator"),
    "differential elsewhere": (
        lambda: CochainComplex(X2, Derivation(X4, 1)), ComplexError,
        "differential lives on a different algebra"),
    "differential off degree +1": (
        lambda: CochainComplex(X2, Derivation(X2, 0)), ComplexError,
        "differential must have degree +1, got 0"),
    "image of a cocycle not a cocycle": (
        _non_cocycle_image, ChainMapError,
        "shift: image of a degree-2 cocycle is not a cocycle"),
    "duplicate basis name": (
        lambda: BasisSpace([("a", 0), ("a", 1)]), StructureError,
        "duplicate basis name 'a'"),
    "product without a table": (
        lambda: StructureTable(BasisSpace([("a", 0)])).mult({"a": 1}, {"a": 1}),
        StructureError, "structure has no product table"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_library_guards_raise_their_input_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
