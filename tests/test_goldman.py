"""Surface word brackets: pinned hand-computed values, then fuzz laws.

The pinned table below was worked out by drawing the curves on the
thickened one-vertex graph and counting crossings with signs.  Every entry
is an independent check on the crossing-orientation logic.
"""

import os
import random
import subprocess
import sys

import pytest

from loopspace import goldman
from loopspace.checks import add_into
from loopspace.goldman import (
    CyclicWord,
    FatGraph,
    FatGraphError,
    WordError,
    bracket_combo,
    format_combo,
    goldman_bracket,
    jacobi_fuzz,
    load_fat_graph,
    parse_fat_graph,
    random_reduced_cyclic_word,
)

from reference import (
    boundary_components,
    format_letter_combo,
    genus,
    inverse,
    min_rotation,
    reference_bracket,
    reference_jacobi_fuzz,
    reference_reduce,
)


@pytest.fixture
def torus(data_path):
    return load_fat_graph(data_path("torus.fat"))


@pytest.fixture
def genus2(data_path):
    return load_fat_graph(data_path("genus2.fat"))


@pytest.fixture
def annulus(data_path):
    return load_fat_graph(data_path("annulus.fat"))


# hand-verified torus brackets: (left, right, {result word: coefficient})
PINNED = [
    ("a", "b", {"a b": 1}),
    ("b", "a", {"a b": -1}),
    ("a", "a", {}),
    ("a b", "b", {"a b b": 1}),
    ("a", "a b", {"a a b": 1}),
    ("a b", "a", {"a a b": -1}),
    ("a^-", "b", {"a^- b": -1}),
    ("a", "b^-", {"a b^-": -1}),
    ("a^-", "b^-", {"a^- b^-": 1}),
    ("a", "a^-", {}),
    ("a b", "b^- a^-", {}),
]


def test_pinned_torus_brackets(torus):
    for left, right, want in PINNED:
        got = goldman_bracket(torus.word(left), torus.word(right))
        want = {torus.word(text): c for text, c in want.items()}
        assert got == want, f"[{left}, {right}]"


def test_cyclic_reduction(torus):
    # conjugation disappears, including across the wraparound
    assert torus.word("b a b^-") == torus.word("a")
    assert torus.word("a b b^- b") == torus.word("a b")
    w = torus.word("a a^-")
    assert len(w) == 0
    assert not w
    assert str(w) == "1"


def test_canonical_rotation(torus):
    assert torus.word("a b a^- b") == torus.word("b a b a^-")
    assert hash(torus.word("a b")) == hash(torus.word("b a"))
    # rotating an input never changes the bracket
    b = torus.word("b")
    assert goldman_bracket(torus.word("a b"), b) == goldman_bracket(
        torus.word("b a"), b
    )


def test_inverse_word(torus):
    w = torus.word("a b a")
    assert inverse(w) == torus.word("a^- b^- a^-")
    assert inverse(inverse(w)) == w


def test_bracket_with_trivial_class(torus):
    assert goldman_bracket(torus.word("a b"), torus.word("")) == {}
    assert goldman_bracket(torus.word(""), torus.word("a b")) == {}


def test_word_errors(torus, genus2):
    with pytest.raises(WordError):
        torus.word("c")
    with pytest.raises(WordError):
        goldman_bracket(torus.word("a"), genus2.word("a"))


def test_equal_keys_on_different_surfaces_differ(torus, genus2):
    a, b = torus.word("a"), genus2.word("a")
    assert a.key == b.key
    assert a != b
    assert len({a: 1, b: 2}) == 2


def test_same_surface_different_instances(torus, data_path):
    copy = load_fat_graph(data_path("torus.fat"))
    got = goldman_bracket(torus.word("a"), copy.word("b"))
    assert got == {torus.word("a b"): 1}


def test_antisymmetry_fuzz(torus, genus2):
    for graph in (torus, genus2):
        rng = random.Random(7)
        for _ in range(100):
            u = random_reduced_cyclic_word(graph, rng, 6)
            v = random_reduced_cyclic_word(graph, rng, 6)
            lhs = goldman_bracket(u, v)
            rhs = {k: -c for k, c in goldman_bracket(v, u).items()}
            assert lhs == rhs, (u, v)


def test_self_bracket_vanishes_fuzz(genus2):
    rng = random.Random(11)
    for _ in range(100):
        w = random_reduced_cyclic_word(genus2, rng, 6)
        assert goldman_bracket(w, w) == {}


def inverted(combo):
    # inversion is a bijection on classes, so no two terms merge
    return {inverse(w): c for w, c in combo.items()}


def test_inverse_symmetry_fuzz(genus2):
    # [w^-, v] matches [w, v^-] with every output class inverted, and
    # inverting both inputs inverts the classes of [w, v]
    rng = random.Random(13)
    for _ in range(60):
        w = random_reduced_cyclic_word(genus2, rng, 5)
        v = random_reduced_cyclic_word(genus2, rng, 5)
        assert goldman_bracket(inverse(w), v) == inverted(
            goldman_bracket(w, inverse(v))
        )
        assert goldman_bracket(inverse(w), inverse(v)) == inverted(
            goldman_bracket(w, v)
        )


def test_jacobi_fuzz_clean(torus, genus2):
    assert jacobi_fuzz(torus, trials=60, max_len=5, seed=3) is None
    assert jacobi_fuzz(genus2, trials=60, max_len=5, seed=3) is None


def test_annulus_brackets_vanish(annulus):
    rng = random.Random(5)
    for _ in range(40):
        u = random_reduced_cyclic_word(annulus, rng, 5)
        v = random_reduced_cyclic_word(annulus, rng, 5)
        assert goldman_bracket(u, v) == {}


def test_bracket_combo_bilinear(torus):
    def key(text):
        return torus.word(text).key

    a = {key("a"): 2}
    b = {key("b"): 3, key("a b"): -1}
    got = bracket_combo(torus, a, b)
    want = add_into({key("a b"): 6}, {key("a a b"): 2}, -1)
    assert got == want


@pytest.mark.parametrize("name", ["torus", "genus2", "annulus"])
def test_jacobi_fuzz_matches_reference(name, data_path):
    graph = load_fat_graph(data_path(name + ".fat"))
    for seed, trials, max_len in ((1, 40, 6), (2, 30, 10), (9, 60, 4)):
        got = jacobi_fuzz(graph, trials, max_len, seed)
        assert got is None
        assert got == reference_jacobi_fuzz(graph, trials, max_len, seed)


def test_jacobi_fuzz_witness_matches_reference(monkeypatch, torus, genus2):
    # the least term of every bracket gets one more: the same perturbation
    # on keys in the library and on CyclicWords in the reference
    true_bracket = goldman._bracket

    def bump(combo, order=None):
        if combo:
            combo[min(combo, key=order)] += 1
        return combo

    def bumped(graph, a, b, acc, scale):
        return add_into(acc, bump(true_bracket(graph, a, b, {}, 1)), scale)

    def word_bracket(w, v):
        return bump(goldman_bracket(w, v), order=CyclicWord.tokens)

    for graph in (torus, genus2):
        for seed in (1, 4):
            want = reference_jacobi_fuzz(graph, 40, 5, seed, bracket=word_bracket)
            with monkeypatch.context() as m:
                m.setattr(goldman, "_bracket", bumped)
                got = jacobi_fuzz(graph, 40, 5, seed)
            assert want is not None and want["residual"]
            assert got == want


def test_clean_jacobi_fuzz_wraps_only_its_draws(monkeypatch, genus2):
    # bracket terms stay keys: a clean fuzz makes three words per trial
    counts = {"wrap": 0, "init": 0}
    wrap, init = goldman._wrap, CyclicWord.__init__

    def counted_wrap(*args):
        counts["wrap"] += 1
        return wrap(*args)

    def counted_init(self, *args):
        counts["init"] += 1
        init(self, *args)

    monkeypatch.setattr(goldman, "_wrap", counted_wrap)
    monkeypatch.setattr(CyclicWord, "__init__", counted_init)
    assert jacobi_fuzz(genus2, trials=20, max_len=8, seed=2) is None
    assert counts == {"wrap": 0, "init": 60}


def test_boundary_and_genus(torus, annulus, genus2):
    assert len(boundary_components(torus)) == 1
    assert genus(torus) == 1
    assert len(boundary_components(annulus)) == 2
    assert genus(annulus) == 0
    assert len(boundary_components(genus2)) == 1
    assert genus(genus2) == 2


def test_boundary_components_partition(genus2):
    cycles = boundary_components(genus2)
    flat = [x for c in cycles for x in c]
    assert sorted(flat) == sorted(genus2.order)


def test_parse_fat_graph_errors():
    with pytest.raises(FatGraphError, match="duplicate half-edge a"):
        parse_fat_graph("generators a b\ncyclic-order a a b a^- b^-\n")
    with pytest.raises(FatGraphError, match="missing half-edges: b\\^-"):
        parse_fat_graph("generators a b\ncyclic-order a b a^-\n")
    with pytest.raises(FatGraphError, match="unknown generator 'c'"):
        parse_fat_graph("generators a b\ncyclic-order a b c a^- b^-\n")
    with pytest.raises(FatGraphError, match="unknown generator 'b'"):
        parse_fat_graph("generators a\ncyclic-order a b^- a^-\n")
    with pytest.raises(FatGraphError, match="line 3: second generators"):
        parse_fat_graph("generators a\ncyclic-order a a^-\ngenerators b\n")
    with pytest.raises(FatGraphError, match="missing generators"):
        parse_fat_graph("cyclic-order a a^-\n")
    with pytest.raises(FatGraphError, match="missing cyclic-order"):
        parse_fat_graph("generators a\n")
    with pytest.raises(FatGraphError, match="unrecognized"):
        parse_fat_graph("generators a\nedges a a^-\n")
    with pytest.raises(FatGraphError, match="duplicate generator"):
        FatGraph(["a", "a"], [1, -1, 2, -2])


def test_format_combo(torus):
    combo = {torus.word("b"): -2, torus.word("a"): 1, torus.word(""): 3}
    text = format_combo(combo)
    assert text == "3\t1\n1\ta\n-2\tb\n"


def test_random_words_are_reduced(torus, genus2):
    for graph in (torus, genus2):
        rng = random.Random(17)
        for _ in range(200):
            w = random_reduced_cyclic_word(graph, rng, 6)
            letters = w.letters
            assert 1 <= len(letters) <= 6
            for i in range(len(letters)):
                if len(letters) > 1:
                    assert letters[i] != -letters[i - 1]
            # already canonical: reconstruction is a fixed point
            assert CyclicWord(graph, letters) == w


# Reference canonical form and report order: free reduction with a stack
# of int letters, the least rotation by comparing token lists, and a sort
# on token tuples.
def reference_canonical(graph, letters):
    return min_rotation(graph, reference_reduce(letters))


def ranks(graph, letters):
    """The rank string of a letter tuple."""
    return "".join(graph.rank[x] for x in letters)


def reference_format(combo):
    def tokens(w):
        return tuple(w.graph.token(x) for x in w.letters)

    items = sorted(combo.items(), key=lambda kv: tokens(kv[0]))
    return "".join(f"{c}\t{' '.join(tokens(w)) or '1'}\n" for w, c in items)


REFERENCE_SURFACES = {
    "torus": "generators a b\ncyclic-order a b a^- b^-\n",
    "genus2": "generators a b c d\ncyclic-order a b a^- b^- c d c^- d^-\n",
    # letter order differs from token order
    "torus-ba": "generators b a\ncyclic-order b a b^- a^-\n",
    "genus2-dcba": "generators d c b a\ncyclic-order d c d^- c^- b a b^- a^-\n",
    # "a^-" sorts before "ab", and "aB" and "aB^-" sort before "a^-"
    "torus-a-ab": "generators a ab\ncyclic-order a ab a^- ab^-\n",
    "torus-a-aB": "generators a aB\ncyclic-order a aB a^- aB^-\n",
}


def reference_inputs(graph, rng):
    alphabet = [x for k in range(1, len(graph.names) + 1) for x in (k, -k)]
    words = [
        tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        for _ in range(150)
    ]
    for k in range(1, 9):
        words += [(1, 2) * k, (1,) * k, (-2,) * k, (2, -1, -1) * k, (1, 2, -1) * k]
    return words


@pytest.mark.parametrize(
    "text", REFERENCE_SURFACES.values(), ids=REFERENCE_SURFACES.keys()
)
def test_canonical_form_and_order_match_reference(text):
    graph = parse_fat_graph(text)
    rng = random.Random(23)
    inputs = reference_inputs(graph, rng)
    words = [CyclicWord(graph, letters) for letters in inputs]
    for letters, w in zip(inputs, words):
        assert w.letters == reference_canonical(graph, letters), letters
        assert goldman._reduce(graph, ranks(graph, letters)) == ranks(
            graph, reference_reduce(letters)), letters
        assert w.tokens() == tuple(graph.token(x) for x in w.letters)
    combo = {w: k + 1 for k, w in enumerate(words)}
    assert format_combo(combo) == reference_format(combo)
    for u, v in zip(words[:40], words[40:80]):
        got = goldman_bracket(u, v)
        assert all(w.letters == reference_canonical(graph, w.letters) for w in got)
        assert format_combo(got) == reference_format(got)


@pytest.mark.parametrize(
    "text", REFERENCE_SURFACES.values(), ids=REFERENCE_SURFACES.keys()
)
def test_bracket_combo_adds_into_acc(text):
    # bracket_combo(graph, a, b, acc, scale) is acc += scale * [a, b] in
    # place, also at scale 0, with a zero coefficient in a or b, and where
    # the bracket cancels acc to exactly zero
    graph = parse_fat_graph(text)
    rng = random.Random(53)

    def combo(zero=False):
        keys = [random_reduced_cyclic_word(graph, rng, 8).key for _ in range(rng.randint(1, 3))]
        return {k: 0 if zero and n == 0 else rng.choice([-2, -1, 1, 3]) for n, k in enumerate(keys)}

    a, b = {graph.word(graph.names[0]).key: 0}, {graph.word(graph.names[-1]).key: 1}
    assert bracket_combo(graph, a, b) == {}
    cancelled = 0
    for trial in range(40):
        a, b = combo(zero=trial % 4 == 0), combo()
        bracket = bracket_combo(graph, a, b)
        for scale in (0, rng.choice([-2, -1, 1, 2])):
            for acc in (combo(), add_into({}, bracket, -scale),
                        add_into(combo(), bracket, -scale)):
                want = add_into(dict(acc), bracket, scale)
                got = bracket_combo(graph, a, b, acc, scale)
                assert got is acc and got == want, (a, b, scale)
                assert 0 not in got.values()
                cancelled += bool(bracket and scale and not got)
    assert cancelled >= 10, cancelled


def long_word(graph, rng, least=40, most=60):
    while True:
        w = random_reduced_cyclic_word(graph, rng, most)
        if len(w) >= least:
            return w


def test_long_word_bracket_laws(genus2):
    # words of 40-60 letters: antisymmetry, inverse symmetry, [w, w] = 0
    rng = random.Random(29)
    for _ in range(6):
        u, v = long_word(genus2, rng), long_word(genus2, rng)
        uv = goldman_bracket(u, v)
        assert uv, (u, v)
        assert uv == {k: -c for k, c in goldman_bracket(v, u).items()}, (u, v)
        assert goldman_bracket(inverse(u), inverse(v)) == inverted(uv)
        assert goldman_bracket(inverse(u), v) == inverted(
            goldman_bracket(u, inverse(v))
        )
        assert goldman_bracket(u, u) == {}


def test_jacobi_fuzz_long_words(genus2):
    assert jacobi_fuzz(genus2, trials=15, max_len=16, seed=5) is None


def reference_pairs(graph, rng):
    """Random pairs of 1-40 letters; pairs where v starts with a run of
    w^-, so the strands cancel where the term joins them; and pairs where v
    holds all of w^-, so that a whole word can cancel."""
    pairs = []
    for _ in range(25):
        w = random_reduced_cyclic_word(graph, rng, 40).letters
        v = random_reduced_cyclic_word(graph, rng, 40).letters
        r = rng.randrange(len(w))
        inv = tuple(-x for x in reversed(w[r:] + w[:r]))
        pairs.append((w, v))
        pairs.append((w, inv[: rng.randint(1, len(inv))] + v[: rng.randint(0, 6)]))
        pairs.append((w, inv + v[: rng.randint(1, 3)]))
    return pairs


def test_bracket_matches_reference(torus, genus2, annulus):
    # the library cuts the k letters that cancel where the term joins the
    # strands, and reduces the whole term only when k reaches a word's length
    joins = whole = 0
    for graph in (genus2, torus, annulus):
        rng = random.Random(31)
        for w, v in reference_pairs(graph, rng):
            w, v = reference_canonical(graph, w), reference_canonical(graph, v)
            if not v:
                continue
            want = reference_bracket(graph, w, v)
            got = goldman_bracket(CyclicWord(graph, w), CyclicWord(graph, v))
            assert format_combo(got) == format_letter_combo(graph, want), (w, v)
            lengths = [len(term) for term in want]
            joins += any(n < len(w) + len(v) for n in lengths)
            whole += any(n <= abs(len(w) - len(v)) for n in lengths)
    assert joins >= 100 and whole >= 20, (joins, whole)
    a, b = torus.word("a"), torus.word("a^- b")
    assert goldman_bracket(a, b) == {torus.word("b"): 1}


def _run_word(graph, rng, root, most):
    """A reduced word of root repeated 2 to most times, inverted or not,
    then up to 3 random letters: strands on it share long runs with any
    other word built on the same root."""
    letters = root if rng.random() < 0.5 else tuple(-x for x in reversed(root))
    tail = random_reduced_cyclic_word(graph, rng, 3).letters[:rng.randint(0, 3)]
    return CyclicWord(graph, letters * rng.randint(2, most) + tail)


def test_long_words_match_reference(genus2, monkeypatch):
    # words of 20-60 letters and words built from long repeated runs on
    # genus 2, then random surfaces on up to 6 generators; every shared
    # run is walked by _pair_order, whose longest walk is recorded
    walks = []
    pair_order = goldman._pair_order

    def recorded(*args):
        out = pair_order(*args)
        walks.append(out[1])
        return out

    monkeypatch.setattr(goldman, "_pair_order", recorded)
    rng = random.Random(43)
    pairs = []
    for _ in range(10):
        pairs.append((genus2, long_word(genus2, rng, 20), long_word(genus2, rng, 20)))
    for _ in range(20):
        root = random_reduced_cyclic_word(genus2, rng, 3).letters
        pairs.append((genus2, _run_word(genus2, rng, root, 12), _run_word(genus2, rng, root, 12)))
    for n in range(1, 7):
        order = [s * k for k in range(1, n + 1) for s in (1, -1)]
        rng.shuffle(order)
        graph = FatGraph("abcdef"[:n], order)
        for _ in range(6):
            root = random_reduced_cyclic_word(graph, rng, 4).letters
            pairs.append((graph, random_reduced_cyclic_word(graph, rng, 30),
                          _run_word(graph, rng, root, 6)))
    for graph, u, v in pairs:
        want = reference_bracket(graph, u.letters, v.letters)
        assert {term.letters: c for term, c in goldman_bracket(u, v).items()} == want, (u, v)
    # a pair that parts after one letter is placed by a turn row, unwalked
    assert min(walks) >= 2 and max(walks) >= 12, (min(walks), max(walks))


def test_traced_commands_read_words(data_path):
    # bench/tracing.py counts the letters handed to CyclicWord.__init__ and
    # reads .letters of both bracket arguments; a traced run must not fail
    bench = os.path.join(os.path.dirname(__file__), "..", "bench")
    torus = data_path("torus.fat")
    script = (
        f"import sys; sys.path.insert(0, {bench!r})\n"
        "import tracing\n"
        "from loopspace import cli\n"
        "tracer = tracing.install()\n"
        f"codes = [cli.main(['goldman', '--surface', {torus!r}, '--a', 'a b', '--b', 'b']),\n"
        f"         cli.main(['jacobi-fuzz', '--surface', {torus!r}, '--trials', '4'])]\n"
        "counts = tracer.counts\n"
        "print(codes, counts['goldman.CyclicWord.calls'], counts['goldman.goldman_bracket.calls'])\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    # the span covers the direct bracket only: the fuzz brackets keys
    assert run.stdout.splitlines()[-1] == "[0, 0] 14 1"


def test_crossing_rows_stay_bounded(data_path):
    # a surface builds no row until a bracket needs one, and then at most
    # one per ordered pair of distinct letters, of one outcome per pair;
    # turn rows at most one per pair of consecutive letters, of one side
    # per letter
    genus2 = load_fat_graph(data_path("genus2.fat"))
    assert genus2.rows == {} and genus2.turns == {}
    genus2.word("a b c d")
    assert genus2.rows == {} and genus2.turns == {}
    assert jacobi_fuzz(genus2, trials=40, max_len=10, seed=1) is None
    size = genus2.size
    assert 0 < len(genus2.rows) <= size * (size - 1)
    assert all(len(row) == size * size for row in genus2.rows.values())
    assert 0 < len(genus2.turns) <= size * (size - 1)
    assert all(len(row) == size and set(row) <= set("+-") for row in genus2.turns.values())


@pytest.mark.parametrize("order", [(1, -1), (-1, 1)])
def test_one_generator_surface_matches_reference(order):
    graph = FatGraph(["a"], order)
    rng = random.Random(47)
    for _ in range(30):
        u = random_reduced_cyclic_word(graph, rng, 8)
        v = random_reduced_cyclic_word(graph, rng, 8)
        got = {term.letters: c for term, c in goldman_bracket(u, v).items()}
        assert got == reference_bracket(graph, u.letters, v.letters), (u, v)
    assert len(graph.rows) <= 2 and all(len(row) == 4 for row in graph.rows.values())
