"""Golden reports: the sha256 of stdout and the exit code of a fixed slice
of `betti` and `gysin` commands on the four model fixtures, and of
`verify string-brackets` and `verify coderivations` on the two
marked-point structure files and on one mutant of the torus file.  Every
other subcommand is pinned by stdout, stderr and exit code in CLI_GOLDEN:
`goldman` and `jacobi-fuzz` on the three surfaces, `loop-model` and
`string-model` on the four models, `verify bv` and `verify gerstenhaber`
on every structure file and on the 40-element circle table, two tables
whose first failure is an arity-3 law late in the walk, three edits of
the circle table whose first failure has a nonzero right side, the same
five with fractional constants, five tables that each fail one degree line, and one
command per unusable input that exits 2; `verify string-brackets` and
`verify coderivations` on one table with fractional components whose m2
and m3 fail to anticommute, on the 40-element circle table and the torus
file at higher arities, and on one table whose graded symmetry fails
first at arity 4; `betti --space string` and `gysin` on
s2xs3 and cp2 rescaled to rational differentials, and `string-model` on
the rescaled s2xs3, whose printed d keeps its fractions; and one
commented model, structure and surface file, each of which must report
as its fixture does.

The betti and gysin digests were recorded before the sparse derivation
and chain-map kernels replaced GradedElement arithmetic on the homology
path; the three deeper gysin digests before verify_chain_map read the
cached differential slices; the twelve cutoff 0-2 gysin digests before
each chain map was verified only through the degrees its induced maps
read; the verify digests before the marked-point
and coderivation checks returned one CheckReport and evaluated each
operation once.  Any change to
the report bytes of these commands fails here.  Regenerate a digest only
for a deliberate report change, and say why.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from conftest import circle_structure

from loopspace.cli import main

GOLDEN = [
    ("betti loop s2.min 10", "de502297adb71c81b3f4c774d9c6ecd3ff5b3e12f6b975a0b278df2a1fa8ea74"),
    ("betti string s2.min 10", "de502297adb71c81b3f4c774d9c6ecd3ff5b3e12f6b975a0b278df2a1fa8ea74"),
    ("betti based s2.min 10", "de502297adb71c81b3f4c774d9c6ecd3ff5b3e12f6b975a0b278df2a1fa8ea74"),
    ("betti loop s3.min 10", "283889f26ea1df598f754824db2fa68b7c2b55e305555615951daf4cbc526b3d"),
    ("betti string s3.min 10", "538a2396cd77ff7143a037d68d394c20230c3581e324b4f25575a61cc621091e"),
    ("betti based s3.min 10", "856000f72edad22ea83aa0c0aa0569bd0e6526ac8938a1877ed876f0123b12c2"),
    ("betti loop cp2.min 10", "de502297adb71c81b3f4c774d9c6ecd3ff5b3e12f6b975a0b278df2a1fa8ea74"),
    ("betti string cp2.min 10", "de502297adb71c81b3f4c774d9c6ecd3ff5b3e12f6b975a0b278df2a1fa8ea74"),
    ("betti based cp2.min 10", "eabcc943161501d8cd0ca65383f36c50288d840cc4cb76cb25dacf7b905c0797"),
    ("betti loop s2xs3.min 10", "6ebc872fb4ff56a70ba1ccd6100f00a84f93cecb67ecd55acd55deb9643980a2"),
    ("betti string s2xs3.min 10", "5043e295e90a5175781ed72c3a3cede6288a9001f793aab173f14052af5ef128"),
    ("betti based s2xs3.min 10", "5043e295e90a5175781ed72c3a3cede6288a9001f793aab173f14052af5ef128"),
    ("gysin s2.min 8", "b577f56ca79ebbe1f570c4c65021db29a25458895fa9abdd31405b4dadefa9d5"),
    ("gysin s3.min 8", "98ad4125b191b09235e8fdd2f13cb1aff43117eba88a5dd71b74fe9531572256"),
    ("gysin cp2.min 8", "b577f56ca79ebbe1f570c4c65021db29a25458895fa9abdd31405b4dadefa9d5"),
    ("gysin s2xs3.min 8", "b5ec065c11641eacabdfb2e2d5389d6a0a2b3acc8c2e4340afe5ec0100e6a6eb"),
    # at the benchmark's depth, where the chain maps read slices past cutoff + 1
    ("gysin s2.min 16", "dafd2ccb85d225a8d79f3739dededf2e34ddc76f72655149de64a9cd5e35b16b"),
    ("gysin cp2.min 12", "222f3f1d7bd5f641ac405e6ff19de75cb2b7e76b9977661a4644855f2d37f3e1"),
    ("gysin s2xs3.min 12", "63e0f9f8eabef983a342198d80461a284b8c07e7fa9a49c7c83a95c2af8f5ba4"),
    # at the smallest cutoffs, where multiplication by u reads nothing
    ("gysin s2.min 0", "e7bf4a9053f04db78ea15a6f1d88cb1dd1ab1808c4bc6c77bebd410fb305b243"),
    ("gysin s2.min 1", "45a77ec78e56b95677e4afcc80ff2e3bac5324e412cc12ea9173b4ddad245c60"),
    ("gysin s2.min 2", "3898370b4274c5a5cac06c9fb19d4b61219d4d5ce9723de3ce0ae777f4349b16"),
    ("gysin s3.min 0", "e7bf4a9053f04db78ea15a6f1d88cb1dd1ab1808c4bc6c77bebd410fb305b243"),
    ("gysin s3.min 1", "7c23babe261f3ee2b58524f356769243cfba8d5c2ae0865ba19f3b5beaad7ca0"),
    ("gysin s3.min 2", "2d230eb089ab5523cf3fdb824611ff9a1137a2db88fdd13bee872b13ba241012"),
    ("gysin cp2.min 0", "e7bf4a9053f04db78ea15a6f1d88cb1dd1ab1808c4bc6c77bebd410fb305b243"),
    ("gysin cp2.min 1", "45a77ec78e56b95677e4afcc80ff2e3bac5324e412cc12ea9173b4ddad245c60"),
    ("gysin cp2.min 2", "3898370b4274c5a5cac06c9fb19d4b61219d4d5ce9723de3ce0ae777f4349b16"),
    ("gysin s2xs3.min 0", "e7bf4a9053f04db78ea15a6f1d88cb1dd1ab1808c4bc6c77bebd410fb305b243"),
    ("gysin s2xs3.min 1", "45a77ec78e56b95677e4afcc80ff2e3bac5324e412cc12ea9173b4ddad245c60"),
    ("gysin s2xs3.min 2", "1a8be62d52518dc958fa5d6af5930cbe22f7a92967d344d58111ed7cf49f50dc"),
]


def _argv(key, data_path):
    words = key.split()
    if words[0] == "betti":
        _, space, model, cutoff = words
        return ["betti", "--space", space, "--model", data_path(model), "--cutoff", cutoff]
    _, model, cutoff = words
    return ["gysin", "--model", data_path(model), "--cutoff", cutoff]


@pytest.mark.parametrize("key, digest", GOLDEN, ids=[k for k, _ in GOLDEN])
def test_golden_report(key, digest, data_path, capsys):
    code = main(_argv(key, data_path))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (what, structure file, extra options, exit code, digest)
VERIFY_GOLDEN = [
    ("string-brackets", "circle.struct", "", 0,
     "255c37f4dca0621cb8ae5787e1ccd0ab993b0f03757e5e648f243931998d4085"),
    ("string-brackets", "circle.struct", "--arities 2,3,4", 0,
     "255c37f4dca0621cb8ae5787e1ccd0ab993b0f03757e5e648f243931998d4085"),
    ("string-brackets", "torus_bracket.struct", "", 0,
     "ddee7b4edc5497546f4a66a401447a5740378331b63a5fedfe07a8e00a63f14d"),
    ("string-brackets", "torus_bracket.struct", "--arities 2,3,4", 0,
     "ddee7b4edc5497546f4a66a401447a5740378331b63a5fedfe07a8e00a63f14d"),
    # arity 2 only, where graded symmetry rests on bracket antisymmetry
    ("string-brackets", "circle.struct", "--arities 2", 0,
     "255c37f4dca0621cb8ae5787e1ccd0ab993b0f03757e5e648f243931998d4085"),
    ("string-brackets", "torus_bracket.struct", "--arities 2", 0,
     "ddee7b4edc5497546f4a66a401447a5740378331b63a5fedfe07a8e00a63f14d"),
    ("coderivations", "circle.struct", "", 0,
     "c889fa04a5a4d094f5ffe06a67930a7c98339774b50e266bd63885cc44a2589e"),
    ("coderivations", "circle.struct", "--arities 2,3,4", 0,
     "60f38a2e3eda9f5ceaa593579bb571f7a24026bbf4429257d9aaa5047cb1a292"),
    ("coderivations", "circle.struct", "--arities 3", 0,
     "abda1ea8940b3b4cf2b96e679586818cebb8480561d8dd267744353197d25e41"),
    ("coderivations", "circle.struct", "--arities 2", 0,
     "47365e2fc517892d3ade4fa6cde29215876b7ea88de44e31f5e1ccf868e6bf53"),
    ("coderivations", "circle.struct", "--word-len 5", 0,
     "dd276ea5ba5cee4db0a540924091fd961551f2a82da7800521f6e72a84d6080d"),
    ("coderivations", "torus_bracket.struct", "", 0,
     "c889fa04a5a4d094f5ffe06a67930a7c98339774b50e266bd63885cc44a2589e"),
    ("coderivations", "torus_bracket.struct", "--arities 2,3,4", 0,
     "60f38a2e3eda9f5ceaa593579bb571f7a24026bbf4429257d9aaa5047cb1a292"),
    ("coderivations", "torus_bracket.struct", "--arities 3", 0,
     "abda1ea8940b3b4cf2b96e679586818cebb8480561d8dd267744353197d25e41"),
    ("coderivations", "torus_bracket.struct", "--word-len 5", 0,
     "dd276ea5ba5cee4db0a540924091fd961551f2a82da7800521f6e72a84d6080d"),
    ("string-brackets", "symmetry mutant", "", 1,
     "a492cc15b45868c1c3afbde02e12301b1386aecd17a2d8635e0cc34188e371bf"),
    # the mutant's broken operation has arity 3, so at arity 2 it passes
    ("string-brackets", "symmetry mutant", "--arities 2", 0,
     "ddee7b4edc5497546f4a66a401447a5740378331b63a5fedfe07a8e00a63f14d"),
    ("coderivations", "symmetry mutant", "", 1,
     "c8dd9207c62f1f00e104d49ca098dc7e12dfa16e2b17cc55c8a9e6f486343899"),
]

# The torus file with one degree -3 class Z = Y_1_1 * X_0_1 that erases to
# T: the bracket is unchanged, but the arity-3 operation takes
# (S_1_0, S_0_1, S_0_1) to T, and an odd input repeated must give zero.
SYMMETRY_MUTANT = (
    "basis Z -3\n"
    "sbasis T -3\n"
    "product Y_1_1 X_0_1 = Z\n"
    "E Z = T\n"
)


def _write_mutant(data_path, tmp_path):
    with open(data_path("torus_bracket.struct"), encoding="utf-8") as fh:
        text = fh.read() + SYMMETRY_MUTANT
    path = tmp_path / "mutant.struct"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "what, structure, options, code, digest", VERIFY_GOLDEN,
    ids=[" ".join(filter(None, row[:3])) for row in VERIFY_GOLDEN],
)
def test_golden_verify_report(what, structure, options, code, digest,
                              data_path, tmp_path, capsys):
    if structure == "symmetry mutant":
        path = _write_mutant(data_path, tmp_path)
    else:
        path = data_path(structure)
    assert main(["verify", what, "--structure", str(path), *options.split()]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_symmetry_mutant_witness(data_path, tmp_path, capsys):
    path = _write_mutant(data_path, tmp_path)
    assert main(["verify", "string-brackets", "--structure", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[5] == ("check inputs are graded symmetric: "
                        "FAIL op(S_0_1 S_1_0 S_0_1) = -T, expected 0")



# Sixteen basis names with no structure, ahead of the names that fail, so
# that a table's first failing tuple comes late in the walk.
PADDING = "".join(f"basis p_{i} 0\n" for i in range(16))
# An antisymmetric bracket that is not Lie, failing Jacobi at two last
# names, and a delta of order three on Q[x,y,z]/(x^2,y^2,z^2).
LATE_JACOBI = PADDING + (
    "basis x -1\nbasis y -1\nbasis z -1\nbasis w -1\nproduct x x = 0\n"
    "bracket x y = x\nbracket y x = -x\nbracket y w = y\nbracket w y = -y\n"
    "bracket y z = y\nbracket z y = -y\n"
)
THIRD_ORDER_DELTA = PADDING + (
    "basis x 0\nbasis y 0\nbasis z 0\nbasis xy 0\nbasis xz 0\nbasis yz 0\n"
    "basis xyz 0\nbasis w 1\n"
    "product x y = xy\nproduct y x = xy\nproduct x z = xz\nproduct z x = xz\n"
    "product y z = yz\nproduct z y = yz\nproduct x yz = xyz\nproduct yz x = xyz\n"
    "product y xz = xyz\nproduct xz y = xyz\nproduct z xy = xyz\nproduct xy z = xyz\n"
    "delta xyz = w\n"
)

# Marked-point operations m2 and m3, with fractional components, whose
# string-bracket checks pass but which fail to anticommute on s s s s:
# m3(s,s,s) is a multiple of t, and m2(s,t) is a multiple of w.
RATIONAL_M2_M3 = (
    "basis a 0\nbasis a2 0\nbasis a3 0\nbasis u 1\nbasis v 1\n"
    "sbasis s -1\nsbasis t 0\nsbasis w 1\n"
    "product a a = a2\nproduct a a2 = a3\nproduct a2 a = a3\n"
    "product a u = v\nproduct u a = v\n"
    "E a3 = 2/3*t\nE v = w\nM s = a\nM t = -5/7*u\ndelta a3 = -10/21*u\n"
)

# Marked-point operations that are graded symmetric through arity 3 and
# fail first at arity 4, on a pair whose own product is zero: M(s s r s)
# stops at a2 * b = 0, while its swap s s s r reaches x = a a a b, which
# erases to t.  The walk meets s s r s first, since r precedes s.
LATE_ARITY_4 = (
    "basis a 2\nbasis b 2\nbasis a2 4\nbasis a3 6\nbasis x 8\n"
    "sbasis r 1\nsbasis s 1\nsbasis u 4\nsbasis t 8\n"
    "product a a = a2\nproduct a2 a = a3\nproduct a3 b = x\n"
    "E a2 = u\nE x = t\nM s = a\nM r = b\n"
)


# s2xs3.min and cp2.min with x rescaled by a non-integer rational, as in
# the benchmark's generated models, so that every differential slice has
# a denominator to clear.
RESCALED_S2XS3 = "gen x 2\ngen y 3\ngen z 3\nd y = -128/49*x^2\n"
RESCALED_CP2 = "gen x 2\ngen y 5\nd y = -384/125*x^3\n"


def _scaled(text, factors):
    """text with the one-term right side of every line of a kind in
    factors multiplied by that kind's factor."""
    lines = []
    for line in text.splitlines():
        kind = line.split()[0]
        if kind in factors and not line.endswith(" = 0"):
            lhs, rhs = line.split(" = ")
            coeff, _, name = rhs.rpartition("*")
            if not coeff and name.startswith("-"):
                coeff, name = "-1", name[1:]
            line = f"{lhs} = {Fraction(coeff or 1) * factors[kind]}*{name}"
        lines.append(line + "\n")
    return "".join(lines)


def _circle_with(entries):
    """circle_structure(4) with the right side of each entry named in
    entries, by its left side, replaced."""
    lines = []
    for line in circle_structure(4).splitlines():
        lhs = line.partition(" = ")[0]
        lines.append(f"{lhs} = {entries[lhs]}\n" if lhs in entries else line + "\n")
    return "".join(lines)


# Edits of the winding-4 circle whose first failing tuple has a nonzero
# right side: delta(A_4) = 2*T_0 on all three deviation laws, and two
# antisymmetric bracket pairs that break the Jacobi identity and the
# Leibniz rule.
DELTA_EDIT = _circle_with({"delta A_4": "2*T_0"})
JACOBI_EDIT = _circle_with({"bracket T_2 A_0": "2*T_3", "bracket A_0 T_2": "-2*T_3"})
LEIBNIZ_EDIT = _circle_with({"bracket A_3 A_1": "-A_4", "bracket A_1 A_3": "A_4"})


# A product table alone: every check that needs another table, or an
# sbasis, rejects it.
NO_TABLES = "basis a 0\nproduct a a = a\n"


# One file of each format with a comment-only line, a comment after a
# declaration and blank lines: s2xs3.min, ext_odd_bad.struct and torus.fat.
COMMENTED_MODEL = (
    "# product of the two\n\ngen x 2  # the class of S^2\n"
    "# y kills x^2, z is the class of S^3\ngen y 3\ngen z 3\n\n"
    "d y = x^2 # the only relation\n\n"
)
COMMENTED_STRUCT = (
    "# the bracket entry lands in the wrong degree\n\nbasis one 0\n"
    "basis e -1  # odd\n\nproduct one one = one\nproduct one e = e\n"
    "product e one = e\n# degree -2, where degree 0 is declared\n"
    "bracket e e = one   # wrong\ndelta e = one\n"
)
COMMENTED_SURFACE = (
    "# the torus\n\ngenerators a b  # two bands\n\n"
    "cyclic-order a b a^- b^- # counterclockwise\n"
)


# Inputs written to a temporary file {f}: the 40-element circle table; the
# two tables whose first failure is an arity-3 law late in the walk, as
# they are and with their constants scaled by non-integer rationals, so
# that the witness coefficients are fractions; three edits of the circle
# table whose first failure has a nonzero right side, the same two ways; a
# marked-point table whose
# m2 and m3, with fractional components, fail to anticommute; the
# 40-element circle table and a table whose graded symmetry fails first
# at arity 4, for the marked-point operations; five
# structure tables that each fail one degree line, the unusable inputs of
# the README's exit-2 list, structure-file errors, structure and surface
# files that are not UTF-8, element expressions in a model's d line, all
# but one of them malformed, a d line off its degree, and surface files
# whose generators or cyclic-order line is wrong, further exit-2 paths of
# the three file formats and the checks, numerals past the digit limit,
# and one commented file of each format.  None leaves {f} unwritten.
INPUTS = {
    "circle 19 bv": circle_structure(19),
    "circle 19 gerstenhaber": circle_structure(19),
    "circle 19 string-brackets": circle_structure(19),
    "circle 19 coderivations": circle_structure(19),
    "late arity-4 symmetry": LATE_ARITY_4,
    "late jacobi": LATE_JACOBI,
    "third-order delta": THIRD_ORDER_DELTA,
    "rational late jacobi": _scaled(LATE_JACOBI, {"bracket": Fraction(2, 3)}),
    "rational third-order delta": _scaled(
        THIRD_ORDER_DELTA, {"product": Fraction(2, 3), "delta": Fraction(-5, 7)}),
    "circle delta edit": DELTA_EDIT,
    "circle jacobi edit": JACOBI_EDIT,
    "circle leibniz edit": LEIBNIZ_EDIT,
    "rational circle delta edit": _scaled(
        DELTA_EDIT, {"product": Fraction(2, 3), "delta": Fraction(-5, 7)}),
    "rational circle jacobi edit": _scaled(JACOBI_EDIT, {"bracket": Fraction(2, 3)}),
    "rational circle leibniz edit": _scaled(
        LEIBNIZ_EDIT, {"product": Fraction(-3, 4), "bracket": Fraction(2, 3)}),
    "rational m2 m3 string-brackets": RATIONAL_M2_M3,
    "rational m2 m3 coderivations": RATIONAL_M2_M3,
    "rescaled s2xs3 betti": RESCALED_S2XS3,
    "rescaled s2xs3 gysin": RESCALED_S2XS3,
    "rescaled s2xs3 string-model": RESCALED_S2XS3,
    "rescaled cp2 betti": RESCALED_CP2,
    "rescaled cp2 gysin": RESCALED_CP2,
    "product degree": "basis a 0\nbasis b 1\nproduct a a = b\nbracket a a = 0\n",
    "bracket degree": "basis a 0\nbasis b 1\nproduct a a = a\nbracket a b = a\n",
    "delta degree": "basis a 0\nbasis b 2\nproduct a a = a\ndelta a = b\n",
    "E degree": "basis a 0\nbasis e -1\nsbasis s -1\nproduct a a = a\nE a = s\nM s = a\n",
    "M degree": "basis a 0\nbasis e -1\nsbasis s -1\nproduct a a = a\nE e = s\nM s = e\n",
    "missing file": None,
    "not utf-8": b"gen x 2\n\xff\n",
    "parse error": "gen x 2\nhello\n",
    "degree below 2": "gen x 1\n",
    "d squared at load": "gen x 2\ngen y 3\ngen z 4\nd x = y\nd y = z\n",
    "unknown generator": "gen x 2\ngen y 3\nd y = q^2\n",
    "invalid generator name": "gen x 2\ngen y-z 3\n",
    "struct bad name": "basis a 0\nbasis a-b 0\n",
    "struct unknown name": "basis a 0\nproduct a c = a\n",
    "struct zero denominator": "basis a 0\nproduct a a = 1/0*a\n",
    "struct consecutive signs": "basis a 0\nproduct a a = a + - a\n",
    "struct no equals": "basis a 0\nproduct a a a\n",
    "struct not utf-8": b"basis a 0\n\xff\n",
    "surface not utf-8": b"generators a\n\xff\n",
    "d dangling star": "gen x 2\ngen y 3\nd y = 2*\n",
    "d dangling caret": "gen x 2\ngen y 3\nd y = x^\n",
    "d zero denominator": "gen x 2\ngen y 3\nd y = 1/0*x^2\n",
    "d sign after star": "gen x 2\ngen y 3\nd y = x*+x\n",
    "d slash after name": "gen x 2\ngen y 3\nd y = x/2\n",
    "d dangling sign": "gen x 2\ngen y 3\nd y = x +\n",
    "d juxtaposed coefficient": "gen x 2\ngen y 3\nd y = 2x^2\n",
    "d off its degree": "gen x 2\ngen y 3\nd y = x\n",
    "surface bad name": "generators a b-c\ncyclic-order a b-c a^- b-c^-\n",
    "surface duplicate name": "generators a a\ncyclic-order a a^- a a^-\n",
    "surface unknown generator": "generators a b\ncyclic-order a b c a^- b^-\n",
    "surface duplicate half-edge": "generators a b\ncyclic-order a a b a^- b^-\n",
    "surface missing half-edge":
        "# torus, one half-edge short\ngenerators a b\ncyclic-order a b a^-\n",
    "duplicate differential": "gen x 2\ngen y 3\nd y = x^2\nd y = x^2\n",
    "barred name collision": "gen x 3\ngen xb 2\n",
    "reserved u gysin": "gen u 2\n",
    "reserved u string-model": "gen u 2\n",
    "surface empty generators": "generators\ncyclic-order a a^-\n",
    "struct basis without degree": "basis a\n",
    "struct product of one": "basis a 0\nproduct a = a\n",
    "bv without delta": NO_TABLES,
    "gerstenhaber without bracket": NO_TABLES,
    "string-brackets without sbasis": NO_TABLES,
    "coderivations without sbasis": NO_TABLES,
    "string-brackets without E and M": "basis a 0\nsbasis s 0\nproduct a a = a\n",
    "string-brackets without product": "basis a 0\nsbasis s 0\nE a = s\nM s = a\n",
    "model long degree": "gen x 2\ngen y " + "1" * 5000 + "\n",
    "struct long coefficient": "basis a 0\nproduct a a = " + "1" * 5000 + "*a\n",
    "model duplicate generator": "gen x 2\ngen x 3\n",
    "surface second generators line": "generators a\ngenerators b\ncyclic-order a a^-\n",
    "d unexpected character": "gen x 2\ngen y 3\nd y = x$\n",
    "struct no basis lines": "sbasis s -1\n",
    "d slash before name": "gen x 2\ngen y 3\nd y = 1/x\n",
    "d for undeclared generator": "gen x 2\nd y = x\n",
    "surface unrecognized declaration": "generators a\nedges a a^-\n",
    "surface missing generators": "cyclic-order a a^-\n",
    "struct unreadable term": "basis a 0\nproduct a a = $\n",
    "struct unknown name in value": "basis a 0\nproduct a a = c\n",
    "struct dangling sign": "basis a 0\nproduct a a = a +\n",
    "struct empty combination": "basis a 0\nproduct a a =\n",
    "struct bad degree": "basis a x\n",
    "struct unrecognized declaration": "basis a 0\nfrob a\n",
    "struct E without sbasis": "basis a 0\nE a = a\n",
    "struct duplicate entry": "basis a 0\nproduct a a = a\nproduct a a = a\n",
    "model comments": COMMENTED_MODEL,
    "struct comments": COMMENTED_STRUCT,
    "surface comments": COMMENTED_SURFACE,
}

EMPTY = hashlib.sha256(b"").hexdigest()

# cyclically reduced words of 40 and 60 letters on genus2.fat
LONG_40 = (
    "a a b c a^- b d^- d^- b a b^- c^- d^- a b c^- a^- d d c^- b^- a^- c^- "
    "d^- b d^- a^- d^- b c a d a c^- d^- d^- c^- d^- a^- c"
)
LONG_60 = (
    "a a a b^- d^- b^- d^- c^- c^- b c b d d c^- a d^- b^- c d^- c^- d b^- "
    "b^- a a d a d^- b^- a d b a b^- a d^- b c^- a b a a d c^- d^- b a a c^- "
    "c^- a d^- c d a c^- d^- d^- d^-"
)


def _genus2_word(seed, length):
    """A cyclically reduced word of exactly length letters on genus2.fat,
    drawn from random.Random(seed)."""
    rng = random.Random(seed)
    alphabet = [t for g in "abcd" for t in (g, g + "^-")]

    def inverse(t):
        return t[:-2] if t.endswith("^-") else t + "^-"

    word = []
    while len(word) < length:
        banned = {inverse(word[-1])} if word else set()
        if len(word) == length - 1:
            banned.add(inverse(word[0]))
        word.append(rng.choice([t for t in alphabet if t not in banned]))
    return " ".join(word)


# words of 60 and 120 letters, the lengths of the benchmark's bracket pair
GENUS2_60 = _genus2_word(60, 60)
GENUS2_120 = _genus2_word(120, 120)

# (input from INPUTS or None, command with {d} for tests/data, {f} for the
# input and {t} for the temporary directory, exit code, sha256 of stdout,
# sha256 of stderr); both streams are hashed with the paths put back as
# placeholders.  Recorded before one Model class replaced the three model
# classes and one degree witness the two in structures; the long-word
# goldman rows and the max-len 10 fuzz before Goldman combinations were
# keyed by rank strings; the circle 19, late jacobi and third-order delta
# rows before the identities were evaluated a row of last names at a time;
# the rational rows before the checkers cleared denominators; the
# rescaled model rows before the homology path did; the structure-file,
# not UTF-8 and d-line rows before one InputError carried the exit-2
# contract and the element parser became one pass.  The invalid
# generator name row pins the line that declares the name, where the
# message once read line 0; the d off its degree and surface rows pin
# the line that their messages once left out.  The two long-numeral rows
# pin the line that names a number past the digit limit, where a
# traceback once exited 1.  The marked-point rows at arities up to 4 and
# 5 were recorded before the operations were tabulated over nonzero
# prefix products only; the 60- and 120-letter goldman rows, the max-len
# 16 fuzz and the near-power rows before the bracket read its crossing
# signs from per-surface rows; the circle edit rows before combinations
# were accumulated in place; the wraparound and commented-file rows before
# one reducer, one printer and one comment rule served every module.
CLI_GOLDEN = [
    (None, ("goldman", "--surface", "{d}/torus.fat", "--a", "a", "--b", "b"), 0,
     "288f69638b6c9900107d54c50e65c9008f4fa0e9a3ba68f533f0461c8695a9e5",
     EMPTY),
    (None, ("goldman", "--surface", "{d}/torus.fat", "--a", "a b a", "--b", "b a^-"), 0,
     "b42b79b5bad3942e224fd8b88b1ce26eeaa10d5bc0a5c11791fa14811875f272",
     EMPTY),
    (None, ("goldman", "--surface", "{d}/torus.fat", "--a", "a b", "--b", "a^- b^-"), 0,
     EMPTY,
     EMPTY),
    (None, ("jacobi-fuzz", "--surface", "{d}/torus.fat"), 0,
     "9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
     EMPTY),
    (None, ("jacobi-fuzz", "--surface", "{d}/torus.fat", "--trials", "30", "--max-len", "4", "--seed", "3"), 0,
     "9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
     EMPTY),
    (None, ("goldman", "--surface", "{d}/annulus.fat", "--a", "a", "--b", "a^-"), 0,
     EMPTY,
     EMPTY),
    (None, ("goldman", "--surface", "{d}/annulus.fat", "--a", "a a", "--b", "a"), 0,
     EMPTY,
     EMPTY),
    (None, ("jacobi-fuzz", "--surface", "{d}/annulus.fat"), 0,
     "9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
     EMPTY),
    (None, ("jacobi-fuzz", "--surface", "{d}/annulus.fat", "--trials", "30", "--max-len", "4", "--seed", "3"), 0,
     "9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
     EMPTY),
    (None, ("goldman", "--surface", "{d}/genus2.fat", "--a", "a b c", "--b", "c d"), 0,
     "19c413852786b8b2158ebc373f1ee8bc574b49a4dda09fa7d79d1ac1d879c7fe",
     EMPTY),
    (None, ("goldman", "--surface", "{d}/genus2.fat", "--a", "a c", "--b", "b d^-"), 0,
     "e760c7ce23ef85a96e551752c936118f9b25c5696d3c58e340b94026d377f91d",
     EMPTY),
    (None, ("jacobi-fuzz", "--surface", "{d}/genus2.fat"), 0,
     "9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
     EMPTY),
    (None, ("jacobi-fuzz", "--surface", "{d}/genus2.fat", "--trials", "30", "--max-len", "4", "--seed", "3"), 0,
     "9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
     EMPTY),
    # long words, where most terms are sliced from the two keys
    (None, ("goldman", "--surface", "{d}/genus2.fat", "--a", LONG_40, "--b", LONG_60), 0,
     "df5c34837f4720fc4d6878631553047967fe9a54fa1f9163ae67951ea710875c",
     EMPTY),
    (None, ("goldman", "--surface", "{d}/genus2.fat", "--a", LONG_60, "--b", LONG_40), 0,
     "f1cb168489a053863a8c2f810a677a7d925a9e160e8c5193d254ced2269523ee",
     EMPTY),
    (None, ("jacobi-fuzz", "--surface", "{d}/genus2.fat", "--trials", "100", "--max-len", "10"), 0,
     "9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2",
     EMPTY),
    # words of 60 and 120 letters in both orders, a fuzz out to 16 letters,
    # and near-powers whose shared run spans a whole word, so that the term
    # is reduced whole
    (None, ("goldman", "--surface", "{d}/genus2.fat", "--a", GENUS2_60, "--b", GENUS2_120), 0,
     "371b25155c4aeab6a5af632fdd68a3fb8f2148dfa39130a45d6f8cb9542f75b6", EMPTY),
    (None, ("goldman", "--surface", "{d}/genus2.fat", "--a", GENUS2_120, "--b", GENUS2_60), 0,
     "7103fc685bf7e2d4bfb4523e4f1a5bc5670c959eda284496ade663a47976737e", EMPTY),
    (None, ("jacobi-fuzz", "--surface", "{d}/genus2.fat", "--trials", "20", "--max-len", "16",
            "--seed", "1"), 0,
     "9f56e761d79bfdb34304a012586cb04d16b435ef6130091a97702e559260a2f2", EMPTY),
    (None, ("goldman", "--surface", "{d}/genus2.fat", "--a", "a a a a a b", "--b", "a^- a^- a^-"), 0,
     "863731b24a84c936db64e40ac20a10fe1199d3e1be0c2e3b84c34f472d9c591e", EMPTY),
    (None, ("goldman", "--surface", "{d}/genus2.fat", "--a", "a^- a^- a^-", "--b", "a a a a a b"), 0,
     "63651a133536344be967111557c2450139ee8991a16b64c71122e9a747dca35a", EMPTY),
    # a pair whose whole-cancellation term (the shared run spans the
    # shorter word) still cancels across the wraparound once freely reduced:
    # c^- b d b^- c reduces to d
    (None, ("goldman", "--surface", "{d}/genus2.fat", "--a", "b c^-", "--b", "b^- c d"), 0,
     "4e2ae1078c0138b9cee6c814e37952385435a310280b8f25fad8b85b292ad1bc", EMPTY),
    (None, ("goldman", "--surface", "{d}/genus2.fat", "--a", "b^- c d", "--b", "b c^-"), 0,
     "9d2ad4624f03ebdfc9151948a706266a8dbce9e1cc406558444f0ad851739625", EMPTY),
    # one file of each format with comments and blank lines reports as its
    # fixture without them does
    ("model comments", ("string-model", "--model", "{f}"), 0,
     "98f4bb605e0efde8ce92de675ceb81e05efae86967f1591b5079e4ef4e827066", EMPTY),
    ("struct comments", ("verify", "gerstenhaber", "--structure", "{f}"), 1,
     "be85c789f5d538ec6e664b342a25858b78c68ba495237c092ec8412e09966adb", EMPTY),
    ("surface comments", ("goldman", "--surface", "{f}", "--a", "a b a", "--b", "b a^-"), 0,
     "b42b79b5bad3942e224fd8b88b1ce26eeaa10d5bc0a5c11791fa14811875f272", EMPTY),
    (None, ("loop-model", "--model", "{d}/s2.min"), 0,
     "d1e01ff03410714cea0d1c57931a8b672d76e80e7efc90b776b109399563db7f",
     EMPTY),
    (None, ("string-model", "--model", "{d}/s2.min"), 0,
     "984b673ab0aecc11532290ea7d6483b75e5e91ecfff32587a1d1a2276641a47e",
     EMPTY),
    (None, ("loop-model", "--model", "{d}/s3.min"), 0,
     "4d1c30aeb4ee03e04f32cf96ccf6b4659ac3188c2df5b4b93ae4111da90b3c35",
     EMPTY),
    (None, ("string-model", "--model", "{d}/s3.min"), 0,
     "9bfe3d3bf6875e00da13e10b37a0d4205f7cdc5d6c01bf4185f669ca9aa5a35e",
     EMPTY),
    (None, ("loop-model", "--model", "{d}/cp2.min"), 0,
     "cfe589674e9df63fdd3787663cea81e9b58370050f098dc4e32628769a8610b0",
     EMPTY),
    (None, ("string-model", "--model", "{d}/cp2.min"), 0,
     "49fc570b83a6189b89712dca06f3aa036e42a6cfd643f94f637645598f35ad61",
     EMPTY),
    (None, ("loop-model", "--model", "{d}/s2xs3.min"), 0,
     "7b37799a14439b72e9fe74a4df68c16cc2bbeac5061479bf7aefe143c0149043",
     EMPTY),
    (None, ("string-model", "--model", "{d}/s2xs3.min"), 0,
     "98f4bb605e0efde8ce92de675ceb81e05efae86967f1591b5079e4ef4e827066",
     EMPTY),
    (None, ("verify", "bv", "--structure", "{d}/bad_delta.struct"), 1,
     "522e78fb28c7c7b369e882492d9667bb3b0919685836454b61f2962e32b62dce",
     EMPTY),
    (None, ("verify", "gerstenhaber", "--structure", "{d}/bad_delta.struct"), 2,
     EMPTY,
     "88034a886da24c6d9afa16aef05d9cc78562456e2dc1b24a4c6ff127ccb889e9"),
    (None, ("verify", "bv", "--structure", "{d}/circle.struct"), 0,
     "60dc3fbf09842977504f95f0e7665be5bd9e2d99de0b29ea659acab631fb680b",
     EMPTY),
    (None, ("verify", "gerstenhaber", "--structure", "{d}/circle.struct"), 0,
     "1076146cb8e3a7b9c3156ddc6bfb9649320633d080981c6f44a9669c498e6967",
     EMPTY),
    (None, ("verify", "bv", "--structure", "{d}/ext_odd.struct"), 0,
     "60dc3fbf09842977504f95f0e7665be5bd9e2d99de0b29ea659acab631fb680b",
     EMPTY),
    (None, ("verify", "gerstenhaber", "--structure", "{d}/ext_odd.struct"), 0,
     "1076146cb8e3a7b9c3156ddc6bfb9649320633d080981c6f44a9669c498e6967",
     EMPTY),
    (None, ("verify", "bv", "--structure", "{d}/ext_odd_bad.struct"), 0,
     "60dc3fbf09842977504f95f0e7665be5bd9e2d99de0b29ea659acab631fb680b",
     EMPTY),
    (None, ("verify", "gerstenhaber", "--structure", "{d}/ext_odd_bad.struct"), 1,
     "be85c789f5d538ec6e664b342a25858b78c68ba495237c092ec8412e09966adb",
     EMPTY),
    (None, ("verify", "bv", "--structure", "{d}/torus_bracket.struct"), 0,
     "60dc3fbf09842977504f95f0e7665be5bd9e2d99de0b29ea659acab631fb680b",
     EMPTY),
    (None, ("verify", "gerstenhaber", "--structure", "{d}/torus_bracket.struct"), 2,
     EMPTY,
     "88034a886da24c6d9afa16aef05d9cc78562456e2dc1b24a4c6ff127ccb889e9"),
    ("circle 19 bv", ("verify", "bv", "--structure", "{f}"), 0,
     "60dc3fbf09842977504f95f0e7665be5bd9e2d99de0b29ea659acab631fb680b",
     EMPTY),
    ("circle 19 gerstenhaber", ("verify", "gerstenhaber", "--structure", "{f}"), 0,
     "1076146cb8e3a7b9c3156ddc6bfb9649320633d080981c6f44a9669c498e6967",
     EMPTY),
    # the marked-point operations through arity 4 on the 40-element circle
    # and through arity 5 on the torus, and a symmetry failure at arity 4
    ("circle 19 string-brackets",
     ("verify", "string-brackets", "--structure", "{f}", "--arities", "2,3,4"), 0,
     "255c37f4dca0621cb8ae5787e1ccd0ab993b0f03757e5e648f243931998d4085", EMPTY),
    ("circle 19 coderivations",
     ("verify", "coderivations", "--structure", "{f}", "--arities", "2,3,4"), 0,
     "60f38a2e3eda9f5ceaa593579bb571f7a24026bbf4429257d9aaa5047cb1a292", EMPTY),
    (None, ("verify", "string-brackets", "--structure", "{d}/torus_bracket.struct",
            "--arities", "2,5"), 0,
     "ddee7b4edc5497546f4a66a401447a5740378331b63a5fedfe07a8e00a63f14d", EMPTY),
    ("late arity-4 symmetry",
     ("verify", "string-brackets", "--structure", "{f}", "--arities", "2,3,4"), 1,
     "11023bcabd4bb530be27db6e7bf078a0ec07ca6695247edc1e7658b71888d474", EMPTY),
    ("late jacobi", ("verify", "gerstenhaber", "--structure", "{f}"), 1,
     "b85e50c905ff187ebfa1f9e6efeb3bf45a810d71e40ebae8444ae271c1656605",
     EMPTY),
    ("third-order delta", ("verify", "bv", "--structure", "{f}"), 1,
     "40631cda03698cde5c12512dd16991bb6ef8cc832fe921f3beaf5597770dfb99",
     EMPTY),
    ("rational late jacobi", ("verify", "gerstenhaber", "--structure", "{f}"), 1,
     "72138616e8d0704880837e0bbc09a20137c9e264b387dce774d2b94fcf8871a0",
     EMPTY),
    ("rational third-order delta", ("verify", "bv", "--structure", "{f}"), 1,
     "259cbca92b6cd6bcd97c38ba3cab37a7c4069fc4efa47dd0067924697cdde90c",
     EMPTY),
    # failures whose right side is not zero
    ("circle delta edit", ("verify", "bv", "--structure", "{f}"), 1,
     "7c958cb02793befb84d49c2ac905304df1318ea3c52ce8091778da6b604eb761", EMPTY),
    ("circle jacobi edit", ("verify", "gerstenhaber", "--structure", "{f}"), 1,
     "4791ab1580c339599f7c10485e01f45cc32a12dea01796d5fdbfe208dbceae43", EMPTY),
    ("circle leibniz edit", ("verify", "gerstenhaber", "--structure", "{f}"), 1,
     "492d91baad4bbeda5cc03888c4b17da9e72ef127f64878467c1c907f8b2f1352", EMPTY),
    ("rational circle delta edit", ("verify", "bv", "--structure", "{f}"), 1,
     "f3eb6dc67917e74a39c813ba6038e5de666e8f942f669aa317f9d6a6e2da64b5", EMPTY),
    ("rational circle jacobi edit", ("verify", "gerstenhaber", "--structure", "{f}"), 1,
     "2daa87911ead0843b890c6c825958f46b14d5ca1e8ec1a73b2d56ccba7411392", EMPTY),
    ("rational circle leibniz edit", ("verify", "gerstenhaber", "--structure", "{f}"), 1,
     "6929daff09ec70ef446f151e1e519d994231fee71b2fef9daa82b84d1d4d471f", EMPTY),
    ("rational m2 m3 string-brackets", ("verify", "string-brackets", "--structure", "{f}"), 0,
     "65e69cb042c9fa7d6e90065125a49b8203efc9b44c72095c20fd7cdcec8095b8",
     EMPTY),
    ("rational m2 m3 coderivations", ("verify", "coderivations", "--structure", "{f}"), 1,
     "9c7dec1af3f024d48036413daa735a6f31d1922133e713dde34fa504ff813047",
     EMPTY),
    ("rescaled s2xs3 betti", ("betti", "--space", "string", "--model", "{f}", "--cutoff", "14"), 0,
     "eaa1e7ed5b15e73e35e61d387e55551b2e862df07fe33d12cd9a45387ab2692c",
     EMPTY),
    ("rescaled s2xs3 gysin", ("gysin", "--model", "{f}", "--cutoff", "12"), 0,
     "63e0f9f8eabef983a342198d80461a284b8c07e7fa9a49c7c83a95c2af8f5ba4",
     EMPTY),
    ("rescaled s2xs3 string-model", ("string-model", "--model", "{f}"), 0,
     "7f96818c21441f31709a465b4c055c1256f5f7325de7b107426cd3a60b089d38",
     EMPTY),
    ("rescaled cp2 betti", ("betti", "--space", "string", "--model", "{f}", "--cutoff", "14"), 0,
     "860b548bd01e91f9349f972fb269caa0add98fe285bcd45edecd1c102537680b",
     EMPTY),
    ("rescaled cp2 gysin", ("gysin", "--model", "{f}", "--cutoff", "12"), 0,
     "222f3f1d7bd5f641ac405e6ff19de75cb2b7e76b9977661a4644855f2d37f3e1",
     EMPTY),
    ("product degree", ("verify", "gerstenhaber", "--structure", "{f}"), 1,
     "ac723a78bf12846748e121b63c13ae6fdc9f9f0fdc6aff5b46ab8059b5387986",
     EMPTY),
    ("bracket degree", ("verify", "gerstenhaber", "--structure", "{f}"), 1,
     "65aafff83a27da0184c0b9197c3ff6c1dca90c7cf73de1329bd452ffe5f4e435",
     EMPTY),
    ("delta degree", ("verify", "bv", "--structure", "{f}"), 1,
     "347c0a5bb943790d85cb6927d7d15fdc2bfb060d1b82931fbd5e9baed4054e62",
     EMPTY),
    ("E degree", ("verify", "string-brackets", "--structure", "{f}"), 1,
     "cfca10e5a7b8ec3bc18ad415b7bfbe8105a1fc86ebf50bf479921dcbb9d4c310",
     EMPTY),
    ("M degree", ("verify", "string-brackets", "--structure", "{f}"), 1,
     "45b0513c9265451e28602a2a34967134faf358513b7b4959a3bf77dc4a1aa1ac",
     EMPTY),
    ("missing file", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "847c189bedd1cedadd838da53eed8ae8407dc19fdc9bad2d68cef287621ad5d8"),
    ("not utf-8", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "5d9c4cb8e394fb4ec45078af92d41f37be3d7c6ae85be9aa8f1f3bef0ddfb8fc"),
    ("parse error", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "8aa5b2d1e8a50a723940f55d86a0b417905d2a2628d72fb85e22d91728d57d65"),
    ("degree below 2", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "b54d833e7e752665306eb2386efd5e21ba43516ea1e5b9888d04b9ad84fa046d"),
    ("d squared at load", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "fbd6240a2fa0f8a709db9c50e87accda448c46cb76eff3f0bfcf151dc84cae78"),
    ("unknown generator", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "1f947c47c727fd319ceef330b9230c2123726dd776c5f4c5a8138f65227ee533"),
    ("invalid generator name", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "ff7361e731dd8128ce9fa574e624e90cbe7e1e0bacaee1531b977426249efcea"),
    # structure-file errors, the three loaders on files that are not
    # UTF-8, and the element parser's paths in a model's d line
    ("struct bad name", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY,
     "50e2b3a948d15768e7791f7b97407747352ef23cab572cb348ba540a2b71078e"),
    ("struct unknown name", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY,
     "9edb8d328bdd40b5e1af24ebaef3d92ebe46919d61d79a0e0d6cc15a8211ac66"),
    ("struct zero denominator", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY,
     "f46438f6621c9eb95bb5d42365f7b418f806208c9d07315b2888ba0c972f769f"),
    ("struct consecutive signs", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY,
     "e6da3376b06fa2eac9ce829a734df8621181472b1c3cbaaa5f5f028ee8dcfa80"),
    ("struct no equals", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY,
     "e97e75b736ee7b0ee600462d4ddf502e3930585ff1c841e8806069f302c4e950"),
    ("struct not utf-8", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY,
     "f4e92782a1d31a1439d925b995007241872cee6cbf72edccf145836e924147ea"),
    ("surface not utf-8", ("goldman", "--surface", "{f}", "--a", "a", "--b", "a"), 2,
     EMPTY,
     "475873e2621e9b3257695107fd1a8cb7db3dff3cebd17cdf693a2df2a1b43350"),
    ("d dangling star", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "14261a18db2005696167eac5878a2e8d75ec56dc46566a9e1900b295c983ce98"),
    ("d dangling caret", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "f27e1dd7485f314f7435eb28b8ce2e5a3daf8d84a05e7f72fc956fc88e062dba"),
    ("d zero denominator", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "c868d28ab3f23b9bcef924fd06bba489b0020dbffc29ee4532bc7a328afa7769"),
    ("d sign after star", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "7c0327dddb1687ae2f02868c7dcb29026ea3b22df941d9167618679929e59c53"),
    ("d slash after name", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "e652bb5c46db2b3ee6bc87e632008419b94e6f4567db3b9c116a73bb0916f5e6"),
    ("d dangling sign", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "5daf17d4a02439361caf039c07f65f7f08eea4c00ae34ce9eb1dfb7a5ecfa454"),
    ("d juxtaposed coefficient", ("betti", "--model", "{f}"), 0,
     "f0efc1dcebcf37cee0ff63ba77c967f19883e6190dd95a7d9c5d2b296ab1f309",
     EMPTY),
    ("d off its degree", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "f12a25192b70e700d0f5230eeddd67efa4facfdf2e01c1ce00488343a30f0e13"),
    ("surface bad name", ("goldman", "--surface", "{f}", "--a", "a", "--b", "b"), 2,
     EMPTY,
     "909cfbcca15eb0b5bdee3963b1a7180d72f2cd13312dde6a56b67da6b878b081"),
    ("surface duplicate name", ("goldman", "--surface", "{f}", "--a", "a", "--b", "a"), 2,
     EMPTY,
     "71fc1511da82b0c92e44fa926ba69a9253ee18c8e5ae3e7449f61d2c78ef91d1"),
    ("surface unknown generator", ("goldman", "--surface", "{f}", "--a", "a", "--b", "b"), 2,
     EMPTY,
     "e2a157a034848d637df7e7dfb92dcff72def481b739f8be2da1728bd2848dc62"),
    ("surface duplicate half-edge", ("goldman", "--surface", "{f}", "--a", "a", "--b", "b"), 2,
     EMPTY,
     "cd4fe578353948391ee7ab92828d3828ceaec7c49f64c024475d578967ee1070"),
    ("surface missing half-edge", ("goldman", "--surface", "{f}", "--a", "a", "--b", "b"), 2,
     EMPTY,
     "007d48f385e175d8c3306cc627701b7711fcd21d0a1273567a9e711ea47a858e"),
    # exit-2 paths that no other test reaches, and numerals past the
    # digit limit in a model's gen line and a structure file's table
    ("duplicate differential", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "7a4fd0cece2726e6771b29ba7e363fa7c903a98fe6531d10a29bfc1d48f0c196"),
    ("barred name collision", ("loop-model", "--model", "{f}"), 2,
     EMPTY,
     "b14da12d8750f7fb213b0b22b9e7d17d6905e5f2a1b263e0a04e37416178804c"),
    ("reserved u gysin", ("gysin", "--model", "{f}"), 2,
     EMPTY,
     "2a49c310d59a6e1af85d7068d2d47959e5490dcee9496fc7a0fd3a9205eca0b0"),
    ("reserved u string-model", ("string-model", "--model", "{f}"), 2,
     EMPTY,
     "2a49c310d59a6e1af85d7068d2d47959e5490dcee9496fc7a0fd3a9205eca0b0"),
    ("surface empty generators", ("goldman", "--surface", "{f}", "--a", "a", "--b", "a"), 2,
     EMPTY,
     "8ad1e31e02bb3e69487ee8ca2560c1ceb96692b50aef4164d0307c2a788d39eb"),
    ("struct basis without degree", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY,
     "09ef2abbc2ab091d8eb0e1228aed1d4d3db5a3a455c083ed162d01f5c80eb98a"),
    ("struct product of one", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY,
     "6f7c08d20a7ffd5a83f140ad88f30467ba3ba45476ae5cceea3c2256d1762884"),
    ("bv without delta", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY,
     "76c5238c7409ee1e92fcfc356202c7ba9983780aeca6152239f785c85b31ba91"),
    ("gerstenhaber without bracket", ("verify", "gerstenhaber", "--structure", "{f}"), 2,
     EMPTY,
     "88034a886da24c6d9afa16aef05d9cc78562456e2dc1b24a4c6ff127ccb889e9"),
    ("string-brackets without sbasis", ("verify", "string-brackets", "--structure", "{f}"), 2,
     EMPTY,
     "194a6cdf9c4fb1153404b42479414c82a07ca776366f540df361bee5412f3b6d"),
    ("coderivations without sbasis", ("verify", "coderivations", "--structure", "{f}"), 2,
     EMPTY,
     "194a6cdf9c4fb1153404b42479414c82a07ca776366f540df361bee5412f3b6d"),
    ("string-brackets without E and M", ("verify", "string-brackets", "--structure", "{f}"), 2,
     EMPTY,
     "3ecd8fa05c4819292f49ca98079b7f182ed12b7367d51b9a82340efcaee574ef"),
    ("string-brackets without product", ("verify", "string-brackets", "--structure", "{f}"), 2,
     EMPTY,
     "6854298030b469053186104e7c29487fced589173ed6eb7f1810ec22fd24e4ab"),
    (None, ("verify", "string-brackets", "--structure", "{d}/circle.struct", "--arities", ","), 2,
     EMPTY,
     "be309376e0573068035f326abe4e57cf63dd381bb2bd23979a581fe8eaaa93b0"),
    (None, ("verify", "string-brackets", "--structure", "{d}/circle.struct", "--arities", "1,2"), 2,
     EMPTY,
     "ec8b202b492c2f05795bba06e68cd4cb19dccd5cf712158af22d8469bbd51ed2"),
    (None, ("verify", "coderivations", "--structure", "{d}/circle.struct", "--arities", "2,x"), 2,
     EMPTY,
     "a596040426558c9ebc5fac77bd43bc465ab3f23af51b493cc9eeb56306f1924a"),
    ("model long degree", ("betti", "--model", "{f}"), 2,
     EMPTY,
     "c7199d0a1e0f7cc8b2bea2d34780452a0449aa2395ddb2986448e66ec4c4362d"),
    ("struct long coefficient", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY,
     "c7199d0a1e0f7cc8b2bea2d34780452a0449aa2395ddb2986448e66ec4c4362d"),
    # three more exit-2 messages of the model, surface and element parsers
    ("model duplicate generator", ("betti", "--model", "{f}"), 2,
     EMPTY, "07d3fce66c056c4268b92ea05ca9b4ea8cf8bff5f218dd3c156b8d0cef4c5d1d"),
    ("surface second generators line", ("goldman", "--surface", "{f}", "--a", "a", "--b", "a"), 2,
     EMPTY, "3edec0c844bded8fa0882b5150bb59d46e8d45c3c5d9818359e2bbc9c7fcd3c3"),
    ("d unexpected character", ("betti", "--model", "{f}"), 2,
     EMPTY, "a45ec33ddd03015b3cc6e2337fa9f00c1a3fa11899d4ccb55777ab632f9f7674"),
    # a structure file without a basis line, whose message once named line 0
    ("struct no basis lines", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY, "ca19a4d71ff0e2a5c8399f32cdc1858c0392db6b89c92d013d280a8cd8c1f68e"),
    # raise sites that no other row reached, one row each
    ("d slash before name", ("betti", "--model", "{f}"), 2,
     EMPTY, "de25fa622c252fc14c76a5ecb021d2f212eb31e3ac5adc900bb1e44fc1fbd100"),
    ("d for undeclared generator", ("betti", "--model", "{f}"), 2,
     EMPTY, "06c2f58a78e763452b082c999b645895de3bd54a95b4102be9b13f0327630e50"),
    ("surface unrecognized declaration", ("goldman", "--surface", "{f}", "--a", "a", "--b", "a"), 2,
     EMPTY, "9c3833a879901680152565536f780b1e9f65e24af9ac742fb8b4b0e7dd12d77c"),
    ("surface missing generators", ("goldman", "--surface", "{f}", "--a", "a", "--b", "a"), 2,
     EMPTY, "7820e296522a969e1a040c24147137f4468405a029529121f673552980960b6d"),
    ("struct unreadable term", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY, "4a0dc71a247761a7d9ecd6c2f1d49a566333f0453d4195d1d15420e7465e905f"),
    ("struct unknown name in value", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY, "48bf241ace9dfcd121dc4cd85ae3e9bbae2354d616a7185c3020b03131b2964c"),
    ("struct dangling sign", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY, "c74f5071faf534e2dbf04f562c45fcd1464685acbecb19d3afbb5310e16c04dc"),
    ("struct empty combination", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY, "72e812f783085edcefb05ede054a90c2f3a697b910e251d737b70cb0ec5db76e"),
    ("struct bad degree", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY, "75428e93aed4c364ec152e2b9d54b2a4060416777bc942e8d67e0b2a8844b59d"),
    ("struct unrecognized declaration", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY, "eea47b0ba671daf6fe29a6fa10072ac4eab3d8e54130044a2d15b08f85648d33"),
    ("struct E without sbasis", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY, "11b30143f874baf5b11e9090299175bd4dd93a82e4148dfc5b5839cdb9d1820b"),
    ("struct duplicate entry", ("verify", "bv", "--structure", "{f}"), 2,
     EMPTY, "b115fa26730dc27f2f98896d442a83c62e16b5cf9760bd82af4b631fa2828721"),
    (None, ("jacobi-fuzz", "--surface", "{d}/torus.fat", "--trials", "0"), 2,
     EMPTY,
     "f42408d67433934ff716963f71d6224e60acf34a35226afcf2417724182f8346"),
    (None, ("betti", "--model", "{d}/s2.min", "--out", "{t}"), 2,
     EMPTY,
     "a831d4bbdc07eab467eb7c2fc4f1a02efcdef4076b2d04c1e26286de25114b4c"),
]


def _golden_streams(inp, argv, tmp_path, capsys):
    from conftest import DATA_DIR

    path = tmp_path / "input"
    text = INPUTS.get(inp)
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    subs = {"{f}": str(path), "{t}": str(tmp_path), "{d}": DATA_DIR}
    words = list(argv)
    for key, value in subs.items():
        words = [w.replace(key, value) for w in words]
    code = main(words)
    streams = capsys.readouterr()
    out, err = streams.out, streams.err
    for key, value in subs.items():
        out, err = out.replace(value, key), err.replace(value, key)
    return code, out, err


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "inp, argv, code, out, err", CLI_GOLDEN,
    ids=[inp or " ".join(argv).replace("{d}/", "") for inp, argv, *_ in CLI_GOLDEN],
)
def test_golden_cli(inp, argv, code, out, err, tmp_path, capsys):
    got_code, got_out, got_err = _golden_streams(inp, argv, tmp_path, capsys)
    assert (got_code, _sha(got_out), _sha(got_err)) == (code, out, err)
