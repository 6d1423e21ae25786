"""Golden reports: the sha256 of stdout and the exit code of a fixed slice
of `betti` and `gysin` commands on the four model fixtures.

The digests were recorded before the sparse derivation and chain-map
kernels replaced GradedElement arithmetic on the homology path, so any
change to the report bytes of these commands fails here.  Regenerate a
digest only for a deliberate report change, and say why.
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
