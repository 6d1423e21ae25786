"""Scaling contracts: how the work of a command grows along a ladder of one
parameter.  The work is counted by wrapping the functions that do it, so a
contract is exact and reads the same on every host."""

import math
import random

import pytest
from conftest import reduced_word

from loopspace import coderivations
from loopspace.cli import main
from loopspace.coderivations import CoderivationRep
from loopspace.goldman import goldman_bracket, load_fat_graph
from loopspace.homology import CochainComplex
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


def _canonical_words(sdegs, length):
    """The number of canonical wedge words of length <= length: a multiset
    of j even letters beside a subset of k odd ones, j + k <= length.  With
    no even letter only j = 0 counts, and comb(0, 0) = 1 gives it."""
    even = sum(1 for d in sdegs if d % 2 == 0)
    odd = len(sdegs) - even
    return sum(math.comb(max(even + j - 1, 0), j) * math.comb(odd, k)
               for j in range(length + 1) for k in range(length + 1 - j))


def test_coderivations_walk_each_canonical_word_once(data_path, monkeypatch, capsys):
    # the words up to --word-len are walked once per run, so their count is
    # the closed form; the torus string space has nine odd letters
    calls, walked = [], []
    real = coderivations.wedge_words

    def counted(sdegs, max_len):
        calls.append(sdegs)
        for word in real(sdegs, max_len):
            walked.append(word)
            yield word

    assert [len(list(real((0, 1, 2, 1, 1), n))) for n in range(5)] == [
        _canonical_words((0, 1, 2, 1, 1), n) for n in range(5)] == [1, 6, 18, 38, 66]
    monkeypatch.setattr(coderivations, "wedge_words", counted)
    struct = data_path("torus_bracket.struct")
    for length in (3, 4, 5, 6):
        calls.clear()
        walked.clear()
        code = main(["verify", "coderivations", "--structure", struct, "--word-len", str(length)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert calls == [(-1,) * 9]
        assert len(set(walked)) == len(walked) == _canonical_words(calls[0], length), length


# summed nonzeros of the slices betti builds, at cutoffs 8, 16 and 32
BETTI_NONZEROS = {
    ("s2", "loop"): [25, 113, 481],
    ("s2", "string"): [88, 688, 5472],
    ("s2xs3", "loop"): [54, 526, 4766],
    ("s2xs3", "string"): [200, 3152, 51872],
}


@pytest.mark.parametrize("model, space", BETTI_NONZEROS,
                         ids=[f"{m}-{s}" for m, s in BETTI_NONZEROS])
def test_betti_slice_nonzeros_along_the_cutoff(model, space, data_path, monkeypatch, capsys):
    # betti builds the slice out of each degree through the cutoff once;
    # per doubling of the cutoff the nonzeros grow about 4x on the s2 loop
    # complex and 16x on the s2xs3 string complex, and the pins hold both
    built = {}
    real = CochainComplex.slice

    def counted(self, n):
        sl = real(self, n)
        built[id(self), n] = len(sl.entries)
        return sl

    monkeypatch.setattr(CochainComplex, "slice", counted)
    got = []
    for cutoff in (8, 16, 32):
        built.clear()
        code = main(["betti", "--space", space, "--model", data_path(f"{model}.min"),
                     "--cutoff", str(cutoff)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert sorted(n for _, n in built) == list(range(cutoff + 1))
        got.append(sum(built.values()))
    assert got == BETTI_NONZEROS[model, space]
