"""The mutant table stays current: every row's edit applies exactly once,
and every test it names exists.  The mutants themselves run only through
`python3 tests/mutants.py`."""

import re

import pytest
from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_row_applies_and_names_real_tests(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(name.split('[')[0])}\(", source, re.M), node
