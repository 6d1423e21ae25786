"""Scaling contracts: how the work of a command grows along a ladder of one
parameter.  The work is counted by wrapping the functions that do it, so a
contract is exact and reads the same on every host."""

import random

import pytest
from conftest import reduced_word

from loopspace import coderivations
from loopspace.cli import main
from loopspace.coderivations import CoderivationRep
from loopspace.goldman import goldman_bracket, load_fat_graph
from loopspace.structures import StructureTable

COUNTED = {
    "mult": (StructureTable, "mult"),
    "from_operation": (CoderivationRep, "from_operation"),
    "apply_word": (CoderivationRep, "apply_word"),
    "coproduct": (coderivations, "coproduct"),
}


def _counts(argv, monkeypatch, capsys):
    """{name: calls} of the COUNTED functions while main runs argv."""
    calls = dict.fromkeys(COUNTED, 0)
    for name, (owner, attr) in COUNTED.items():
        def counted(*args, _real=getattr(owner, attr), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, attr, counted)
    try:
        code = main(argv)
    finally:
        monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (0, "")
    return calls


@pytest.mark.parametrize("argv, want", [
    (["verify", "string-brackets"],
     {"mult": 225, "from_operation": 2, "apply_word": 0, "coproduct": 0}),
    (["verify", "coderivations", "--word-len", "4"],
     {"mult": 225, "from_operation": 3, "apply_word": 512, "coproduct": 319}),
])
def test_a_far_arity_costs_what_a_near_one_does(argv, want, data_path, monkeypatch, capsys):
    # the products stop at the first arity with none, and so do the
    # operations built from them (from_operation, one per arity), so asking
    # for arity 10^6 beside 2 does the work that asking for 10 does; the
    # counters, not the reports, are compared, as the coderivation labels
    # name N
    struct = data_path("torus_bracket.struct")
    got = [_counts(argv + ["--structure", struct, "--arities", f"2,{n}"], monkeypatch, capsys)
           for n in (10, 10**3, 10**6)]
    assert got == [want] * 3, got


def test_goldman_terms_stay_within_the_visits(data_path):
    # a bracket visits each of the |a|*|b| pairs of basepoints once and each
    # visit adds at most one term of coefficient +-1, so neither the terms
    # nor the sum of |coefficient| can pass |a|*|b|; the surface's crossing
    # and turn rows stay at one per ordered pair of distinct letters
    graph = load_fat_graph(data_path("genus2.fat"))
    rng = random.Random(8)
    for n in (5, 10, 20, 40, 80, 160):
        a, b = (graph.word(reduced_word(rng, n)) for _ in range(2))
        assert len(a) == len(b) == n
        terms = goldman_bracket(a, b)
        assert 0 < len(terms) <= sum(map(abs, terms.values())) <= n * n, n
    size = graph.size
    assert 0 < len(graph.rows) <= size * (size - 1)
    assert 0 < len(graph.turns) <= size * (size - 1)
