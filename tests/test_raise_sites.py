"""Every raise statement in src/loopspace is reached by a golden row that
exits 2, or is named in UNREACHABLE with the reason no command reaches it.

The sites are read from the modules' syntax trees.  The exit-2 rows of
test_golden.CLI_GOLDEN run under sys.settrace, which records the lines
executed in the package's own frames.  A new raise fails this test until
a golden row reaches it or UNREACHABLE says why none can.
"""

import ast
import functools
import os
import sys

import loopspace

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
