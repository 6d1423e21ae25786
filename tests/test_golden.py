"""Golden reports: the sha256 of stdout and the exit code of a fixed slice
of `betti` and `gysin` commands on the four model fixtures, and of
`verify string-brackets` and `verify coderivations` on the two
marked-point structure files and on one mutant of the torus file.

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

import pytest

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
