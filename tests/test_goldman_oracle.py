"""Goldman's homology map as an oracle for the bracket, sharing no crossing
code with it.

Abelianisation, class -> e^[class], is a Lie algebra map from Z[pi-hat] to
Z[H_1(S)] with [e^a, e^b] = (a.b) e^(a+b), where a.b is the homological
intersection pairing (Goldman, "Invariant functions on Lie groups and
Hamiltonian flows of surface group representations", Invent. Math. 85,
1986).  So every term of [v, w] has abelianisation ab(v) + ab(w), and the
coefficients of [v, w] sum to ab(v)^T J ab(w).  J is read off the cyclic
order alone, and ab off the letters; the oracle cannot see errors that
cancel inside one homology class.  On random one-vertex surfaces the
bracket is also checked for antisymmetry, against reference_bracket and by
the Jacobi fuzz, and the library's reducer of rank strings against
reference_reduce on int letters.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace import goldman
from loopspace.goldman import (
    FatGraph,
    goldman_bracket,
    jacobi_fuzz,
    load_fat_graph,
    random_reduced_cyclic_word,
)

from reference import reference_bracket, reference_reduce
from test_goldman import ranks


def intersection_form(graph):
    """J[i][j] for generators i != j: reading counterclockwise from the
    half-edge of i, +1 when j comes before i^- and j^- after it, -1 the
    other way round, 0 when the two pairs of half-edges do not interlace."""
    n = len(graph.names)
    J = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        start = graph.order.index(i)
        ccw = graph.order[start + 1:] + graph.order[:start]
        inv = ccw.index(-i)
        for j in range(1, n + 1):
            if j != i:
                before_j, before_jinv = ccw.index(j) < inv, ccw.index(-j) < inv
                if before_j != before_jinv:
                    J[i - 1][j - 1] = 1 if before_j else -1
    return J


def abelianisation(graph, word):
    """Exponent sum of each generator in the word."""
    ab = [0] * len(graph.names)
    for x in word.letters:
        ab[abs(x) - 1] += 1 if x > 0 else -1
    return ab


def homology_mismatches(graph, pairs):
    """The pairs (v, w) whose bracket breaks either law of the homology
    map."""
    J = intersection_form(graph)
    bad = []
    for v, w in pairs:
        av, aw = abelianisation(graph, v), abelianisation(graph, w)
        total = [x + y for x, y in zip(av, aw)]
        bracket = goldman_bracket(v, w)
        pairing = sum(x * J[i][j] * y for i, x in enumerate(av) for j, y in enumerate(aw))
        if sum(bracket.values()) != pairing or any(
                abelianisation(graph, term) != total for term in bracket):
            bad.append((v, w))
    return bad


def _pairs(graph, rng, count, max_len):
    return [tuple(random_reduced_cyclic_word(graph, rng, max_len) for _ in range(2))
            for _ in range(count)]


def test_intersection_form_of_fixtures(data_path):
    torus = load_fat_graph(data_path("torus.fat"))
    assert intersection_form(torus) == [[0, 1], [-1, 0]]
    genus2 = load_fat_graph(data_path("genus2.fat"))
    block = [[0, 1], [-1, 0]]
    zero = [[0, 0], [0, 0]]
    assert intersection_form(genus2) == [a + b for a, b in zip(block + zero, zero + block)]
    assert intersection_form(load_fat_graph(data_path("annulus.fat"))) == [[0]]


@pytest.mark.parametrize("name", ["torus.fat", "genus2.fat", "annulus.fat"])
def test_bracket_is_a_lie_map_to_homology_on_fixtures(name, data_path):
    graph = load_fat_graph(data_path(name))
    pairs = _pairs(graph, random.Random(name), 300, 14)
    assert homology_mismatches(graph, pairs) == []
    if name == "annulus.fat":
        assert not any(goldman_bracket(v, w) for v, w in pairs)
    else:
        # the pairing is nonzero on most pairs, so the sum law has teeth
        J = intersection_form(graph)
        nonzero = sum(1 for v, w in pairs if any(
            x * J[i][j] * y for i, x in enumerate(abelianisation(graph, v))
            for j, y in enumerate(abelianisation(graph, w))))
        assert nonzero > 150


@st.composite
def one_vertex_surfaces(draw):
    """A FatGraph on 1-5 generators with a random cyclic order."""
    n = draw(st.integers(1, 5))
    order = draw(st.permutations([s * k for k in range(1, n + 1) for s in (1, -1)]))
    return FatGraph("abcde"[:n], order)


@settings(max_examples=60, deadline=None)
@given(one_vertex_surfaces(), st.randoms(use_true_random=False))
def test_bracket_is_a_lie_map_to_homology_on_random_surfaces(graph, rng):
    assert homology_mismatches(graph, _pairs(graph, rng, 30, 10)) == []


@settings(max_examples=60, deadline=None)
@given(one_vertex_surfaces(), st.randoms(use_true_random=False))
def test_bracket_is_antisymmetric_and_matches_reference_on_random_surfaces(graph, rng):
    for v, w in _pairs(graph, rng, 30, 10):
        vw = goldman_bracket(v, w)
        assert vw == {term: -c for term, c in goldman_bracket(w, v).items()}, (v, w)
        want = reference_bracket(graph, v.letters, w.letters)
        assert {term.letters: c for term, c in vw.items()} == want, (v, w)


@settings(max_examples=20, deadline=None)
@given(one_vertex_surfaces())
def test_jacobi_fuzz_is_clean_on_random_surfaces(graph):
    assert jacobi_fuzz(graph, trials=30, max_len=8) is None


@settings(max_examples=100, deadline=None)
@given(one_vertex_surfaces(), st.data())
def test_reducer_matches_reference_on_random_surfaces(graph, data):
    # any word u; p p^-, which cancels whole; and p u p^-, which for a
    # reduced u cancels only across the wraparound
    letters = st.lists(st.sampled_from(graph.order), max_size=12).map(tuple)
    p, u = data.draw(letters), data.draw(letters)
    inv_p = tuple(-x for x in reversed(p))
    assert goldman._reduce(graph, ranks(graph, p + inv_p)) == ""
    for word in (u, p + u + inv_p):
        want = ranks(graph, reference_reduce(word))
        assert goldman._reduce(graph, ranks(graph, word)) == want, word
