"""Coderivation extension against a brute-force oracle, plus the relation
and Jacobi-equivalence reports."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import fractions_only, reference_wedge_words, rescaled_table

from loopspace import coderivations
from loopspace.checks import add_into, ksign
from loopspace.cli import main
from loopspace.coderivations import (
    CoderivationRep,
    coderivation_relations,
    coproduct,
    front_sign,
    jacobi_coderivation_equiv,
    wedge_sort,
    wedge_words,
)
from loopspace.goldman import goldman_bracket, load_fat_graph
from loopspace.structures import (
    BasisSpace,
    load_structure_file,
    parse_structure_file,
    string_brackets,
)


def sort_oracle(seq, sdegs):
    """Independent wedge sort: the Koszul sign only sees odd letters, so it
    is the inversion parity of the odd subsequence."""
    odd = [x for x in seq if sdegs[x] % 2]
    inv = sum(
        1
        for i in range(len(odd))
        for j in range(i + 1, len(odd))
        if odd[i] > odd[j]
    )
    word = tuple(sorted(seq))
    for p in range(len(word) - 1):
        if word[p] == word[p + 1] and sdegs[word[p]] % 2:
            return None, 0
    return word, (-1) ** inv


def unshuffle_sign_oracle(word, positions, sdegs):
    """Move the chosen positions to the front one adjacent swap at a time,
    paying -1 whenever two odd letters pass each other."""
    perm = list(range(len(word)))
    sign = 1
    target = 0
    for q in positions:
        pos = perm.index(q)
        while pos > target:
            a, b = perm[pos - 1], perm[pos]
            if sdegs[word[a]] % 2 and sdegs[word[b]] % 2:
                sign = -sign
            perm[pos - 1], perm[pos] = b, a
            pos -= 1
        target += 1
    return sign, perm


def extension_oracle(rep, word):
    """Coderivation extension computed from scratch by adjacent swaps."""
    out = {}
    for positions in itertools.combinations(range(len(word)), rep.k):
        sgn, perm = unshuffle_sign_oracle(word, positions, rep.sdegs)
        args = tuple(word[p] for p in positions)  # increasing, so sorted
        rest = tuple(word[p] for p in perm[rep.k:])
        for b, c in rep.comps.get(args, {}).items():
            w2, s2 = sort_oracle((b,) + rest, rep.sdegs)
            if w2 is None:
                continue
            coeff = out.get(w2, Fraction(0)) + sgn * s2 * c
            if coeff:
                out[w2] = coeff
            else:
                out.pop(w2, None)
    return out


SDEGS = (0, 1, 1, 2)  # two even letters, two odd
SDEG_NAMES = ("0", "1", "2", "3")


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=7))
@settings(deadline=None)
def test_wedge_sort_matches_oracle(seq):
    assert wedge_sort(seq, SDEGS) == sort_oracle(seq, SDEGS)


@given(st.data())
@settings(deadline=None)
def test_front_sign_matches_oracle(data):
    word = tuple(
        data.draw(st.lists(st.integers(min_value=0, max_value=3), max_size=7))
    )
    k = data.draw(st.integers(min_value=0, max_value=len(word)))
    positions = tuple(sorted(data.draw(
        st.permutations(range(len(word))))[:k]))
    want, _ = unshuffle_sign_oracle(word, positions, SDEGS)
    assert front_sign(word, positions, SDEGS) == want


def random_rep(rng, k, sdegs=SDEGS):
    comps = {}
    for tup in wedge_words(sdegs, k):
        if len(tup) < k or rng.random() < 0.3:
            continue
        combo = {}
        for b in range(len(sdegs)):
            c = rng.randint(-3, 3)
            if c:
                combo[b] = Fraction(c)
        if combo:
            comps[tup] = combo
    return CoderivationRep(sdegs, k, comps)


def test_extension_matches_oracle_random_reps():
    rng = random.Random(23)
    for k in (1, 2, 3):
        rep = random_rep(rng, k)
        for word in wedge_words(SDEGS, 4):
            assert rep.apply_word(word) == extension_oracle(rep, word), (k, word)


def test_wedge_words_canonical():
    words = [w for w in wedge_words(SDEGS, 2) if len(w) == 2]
    assert all(w == tuple(sorted(w)) for w in words)
    assert (1, 1) not in words  # odd letter cannot repeat
    assert (0, 0) in words and (3, 3) in words
    assert len(set(words)) == len(words)


def test_wedge_words_match_reference():
    # every word up to the length, shortest first, each length in the
    # order of the filtered combinations
    rng = random.Random(5)
    for trial in range(60):
        sdegs = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 5)))
        max_len = rng.randint(0, 7)
        want = [word for length in range(max_len + 1)
                for word in reference_wedge_words(len(sdegs), sdegs, length)]
        assert list(wedge_words(sdegs, max_len)) == want, (trial, sdegs, max_len)


def test_coproduct_counit_and_symmetry():
    word = (0, 1, 2)
    cop = coproduct(word, SDEGS)
    assert cop[((), word)] == 1
    assert cop[(word, ())] == 1
    # each splitting pairs with its flip up to the block-swap Koszul sign
    for (l, r), s in cop.items():
        odd_l = sum(SDEGS[i] for i in l)
        odd_r = sum(SDEGS[i] for i in r)
        flip = -1 if (odd_l % 2) and (odd_r % 2) else 1
        assert cop[(r, l)] == flip * s


@pytest.fixture
def torus_reps(data_path):
    t = load_structure_file(data_path("torus_bracket.struct"))
    out = string_brackets(t, max_arity=3)
    assert out.ok
    return t, out


def test_torus_relations_clean(torus_reps):
    t, out = torus_reps
    rep = coderivation_relations(out.reps, word_len=4, names=t.string_space.names)
    assert rep.ok, rep.text()
    labels = [l for l, _ in rep.lines]
    assert "m2 squares to zero on words up to length 4" in labels
    assert "m2 and m3 anticommute on words up to length 4" in labels
    assert (
        "total coderivation for arities {2,3} squares to zero "
        "on words up to length 4" in labels
    )
    assert (
        "m2 is a coderivation for the unshuffle coproduct "
        "on words up to length 4" in labels
    )


def test_default_total_lines(torus_reps):
    # one total per arity, then all arities together
    t, out = torus_reps
    rep = coderivation_relations(out.reps, word_len=3, names=t.string_space.names)
    totals = [line for line in rep.lines if line[0].startswith("total coderivation")]
    assert totals == [
        (f"total coderivation for arities {{{arities}}} squares to zero "
         "on words up to length 3", None)
        for arities in ("2", "3", "2,3")
    ]


def test_single_arity_total_is_the_square():
    # the total coderivation of one arity is that component composed with
    # itself: on random components both lines fail with the same witness
    rng = random.Random(7)
    names = ("p", "q", "r", "s")
    for trial in range(4):
        rep = coderivation_relations(
            {k: random_rep(rng, k) for k in (1, 2, 3)}, 3, names)
        lines = dict(rep.lines)
        for k in (1, 2, 3):
            square = lines[f"m{k} squares to zero on words up to length 3"]
            total = lines[f"total coderivation for arities {{{k}}} squares to zero "
                          "on words up to length 3"]
            assert total == square, (trial, k)
        assert any(w is not None for w in lines.values())


def perturbed_bracket(out):
    """The torus bracket with one extra structure constant on
    [S_1_0, S_0_1] and its mirror: still antisymmetric (all degrees are
    even here), no longer Jacobi."""
    bracket = dict(out.bracket)
    for pair, c in ((("S_1_0", "S_0_1"), 1), (("S_0_1", "S_1_0"), -1)):
        bracket[pair] = add_into(dict(bracket.get(pair, {})), {"S_0_2": Fraction(c)})
    return bracket


def test_torus_jacobi_equivalence(torus_reps):
    t, out = torus_reps
    rep = jacobi_coderivation_equiv(t.string_space, out.bracket, 3)
    assert [l for l, _ in rep.lines] == [
        "bracket satisfies the graded Jacobi identity",
        "arity-2 coderivation squares to zero on words up to length 3",
        "formulations agree",
    ]
    assert rep.ok, rep.text()


def test_perturbed_bracket_fails_both_ways(torus_reps):
    t, out = torus_reps
    rep = jacobi_coderivation_equiv(t.string_space, perturbed_bracket(out), 3)
    jac, sq, agree = (w for _, w in rep.lines)
    assert jac is not None
    assert sq is not None
    assert agree is None  # both formulations fail together


def test_jacobi_equiv_on_truncated_surface_bracket(data_path):
    # project the surface bracket onto a few classes; the truncation need
    # not satisfy the Jacobi identity, but the two renderings must agree
    g = load_fat_graph(data_path("torus.fat"))
    classes = [g.word(s) for s in ("", "a", "b", "a b", "a a b")]
    name = {w: f"c{i}" for i, w in enumerate(classes)}
    bracket = {}
    for u in classes:
        for v in classes:
            combo = {}
            for w, c in goldman_bracket(u, v).items():
                if w in name:
                    combo[name[w]] = Fraction(c)
            if combo:
                bracket[(name[u], name[v])] = combo
    space = BasisSpace((n, 0) for n in name.values())
    rep = jacobi_coderivation_equiv(space, bracket, 3)
    assert rep.lines[2] == ("formulations agree", None)


def test_jacobi_equiv_on_gl21():
    # gl(2|1) under the supercommutator, Z-graded by E_ij -> d_i - d_j with
    # d = (0, 2, 1): the units touching the last index are odd, the rest
    # even, so the symmetric form carries both signs.  The Jacobi identity
    # holds, and the arity-2 coderivation must square to zero with it.
    d = (0, 2, 1)
    units = {f"E{i}{j}": (i, j) for i in range(3) for j in range(3)}
    deg = {n: d[i] - d[j] for n, (i, j) in units.items()}
    name = {ij: n for n, ij in units.items()}

    def mul(a, b):
        (i, j), (k, l) = units[a], units[b]
        return {name[i, l]: Fraction(1)} if j == k else {}

    bracket = {}
    for a in units:
        for b in units:
            sign = -1 if deg[a] * deg[b] % 2 else 1
            combo = add_into(mul(a, b), mul(b, a), -sign)
            if combo:
                bracket[a, b] = combo
    assert bracket["E02", "E20"] == {"E00": 1, "E22": 1}
    rep = jacobi_coderivation_equiv(BasisSpace(deg.items()), bracket, 3)
    assert rep.ok, rep.text()


def test_jacobi_equiv_input_errors():
    space = BasisSpace([("x", 0)])
    with pytest.raises(ValueError, match="length at least 3"):
        jacobi_coderivation_equiv(space, {}, 2)
    with pytest.raises(ValueError, match="not graded antisymmetric"):
        jacobi_coderivation_equiv(space, {("x", "x"): {"x": Fraction(1)}}, 3)
    with pytest.raises(ValueError, match="no coderivation components"):
        coderivation_relations({}, 3, ())
    a = CoderivationRep((0,), 1, {})
    b = CoderivationRep((1,), 1, {})
    with pytest.raises(ValueError, match="disagree on shifted degrees"):
        coderivation_relations({1: a, 2: b}, 3, ("x",))


def _m3_mutant(out):
    # one component of the (vanishing) arity-3 operation made nonzero:
    # m3(S_0_0, S_0_1, S_0_2) = S_1_1
    reps = dict(out.reps)
    comps = dict(reps[3].comps)
    comps[(0, 1, 2)] = {4: Fraction(1)}
    reps[3] = CoderivationRep(reps[3].sdegs, 3, comps)
    return reps


# The full relation report for this mutant, every line and witness pinned.
# The mutated component has even total shifted degree 2; its extension is
# still a coderivation.
M3_MUTANT_LINES = [
    ("m2 squares to zero on words up to length 4", None),
    ("m3 squares to zero on words up to length 4", None),
    ("m2 and m3 anticommute on words up to length 4",
     "word S_0_0 S_0_1 S_0_2 S_1_0: residue -1*(S_2_1)"),
    ("total coderivation for arities {2} squares to zero on words up to length 4", None),
    ("total coderivation for arities {3} squares to zero on words up to length 4", None),
    ("total coderivation for arities {2,3} squares to zero on words up to length 4",
     "word S_0_0 S_0_1 S_0_2 S_1_0: residue -1*(S_2_1)"),
    ("m2 is a coderivation for the unshuffle coproduct on words up to length 4", None),
    ("m3 is a coderivation for the unshuffle coproduct on words up to length 4", None),
]


def test_m3_mutant_relation_witnesses(torus_reps):
    t, out = torus_reps
    rep = coderivation_relations(_m3_mutant(out), 4, names=t.string_space.names)
    assert rep.lines == M3_MUTANT_LINES


@pytest.mark.parametrize("mutant_first", [False, True])
def test_clean_and_mutated_reps_back_to_back(torus_reps, mutant_first):
    t, out = torus_reps
    names = t.string_space.names
    clean = [(label, None) for label, _ in M3_MUTANT_LINES]
    runs = [(out.reps, clean), (_m3_mutant(out), M3_MUTANT_LINES)]
    if mutant_first:
        runs.reverse()
    for reps, want in runs + runs:
        assert coderivation_relations(reps, 4, names=names).lines == want


def test_perturbed_bracket_witnesses(torus_reps):
    # the Jacobi line names the first failing triple in (a, b, c) order
    t, out = torus_reps
    bracket = perturbed_bracket(out)
    assert jacobi_coderivation_equiv(t.string_space, bracket, 4).lines == [
        ("bracket satisfies the graded Jacobi identity",
         "a=S_0_1, b=S_1_0, c=S_2_0: [a,[b,c]] = 0, expected 4*S_2_2"),
        ("arity-2 coderivation squares to zero on words up to length 4",
         "word S_0_1 S_1_0 S_2_0: residue 4*(S_2_2)"),
        ("formulations agree", None),
    ]
    assert jacobi_coderivation_equiv(t.string_space, bracket, 3).lines[1] == (
        "arity-2 coderivation squares to zero on words up to length 3",
        "word S_0_1 S_1_0 S_2_0: residue 4*(S_2_2)",
    )


def test_jacobi_witness_is_the_string_bracket_line(data_path, torus_reps):
    # the same perturbation made in the table itself: string_brackets and
    # jacobi_coderivation_equiv state the Jacobi identity once, so they
    # print the same witness for the same bracket
    t, out = torus_reps
    with open(data_path("torus_bracket.struct"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (
        ("product X_1_0 X_0_1 = Y_1_1", "product X_1_0 X_0_1 = Y_1_1 + Y_0_2"),
        ("product X_0_1 X_1_0 = -Y_1_1", "product X_0_1 X_1_0 = -Y_1_1 - Y_0_2"),
    ):
        assert old + "\n" in text
        text = text.replace(old + "\n", new + "\n")
    mutated = string_brackets(parse_structure_file(text), max_arity=3)
    assert mutated.bracket == perturbed_bracket(out)
    [line] = mutated.checks.failures()
    assert line[1].startswith("a=S_0_1, b=S_1_0, c=S_2_0: ")
    equiv = jacobi_coderivation_equiv(t.string_space, mutated.bracket, 4)
    assert equiv.lines[0] == line


def test_random_reps_are_coderivations():
    # every family of operations extends to a coderivation, whatever its
    # degree: these components are random, so most are not homogeneous
    rng = random.Random(31)
    for trial in range(6):
        reps = {k: random_rep(rng, k) for k in (1, 2, 3)}
        for label, witness in coderivation_relations(reps, 4, SDEG_NAMES).lines:
            if "unshuffle coproduct" in label:
                assert witness is None, (trial, label, witness)


def test_broken_extension_is_not_a_coderivation(torus_reps, monkeypatch):
    # without the unshuffle sign the extension of m2 is no coderivation:
    # the coproduct line must fail rather than pass by default
    t, out = torus_reps
    monkeypatch.setattr(coderivations, "front_sign", lambda *args: 1)
    rep = coderivation_relations({2: out.reps[2]}, 4, names=t.string_space.names)
    assert rep.lines[-1] == (
        "m2 is a coderivation for the unshuffle coproduct on words up to length 4",
        "word S_0_1 S_0_2 S_1_0 at (S_0_2 | S_1_1): lhs 1, rhs -1",
    )


def _edited_reps(reps, rng):
    """reps with one coefficient of one component of one arity set to a
    random fraction: on a component that is there, or on any input."""
    k = rng.choice(sorted(reps))
    rep = reps[k]
    comps = {word: dict(combo) for word, combo in rep.comps.items()}
    if comps and rng.random() < 0.5:
        word = rng.choice(sorted(comps))
    else:
        word = rng.choice([w for w in wedge_words(rep.sdegs, k) if len(w) == k])
    comps.setdefault(word, {})[rng.randrange(len(rep.sdegs))] = _fraction(rng)
    return {**reps, k: CoderivationRep(rep.sdegs, k, comps)}


def _edited_bracket(bracket, space, rng):
    """bracket with one constant of [a,b] set to a random fraction, and
    the one of [b,a] to match, so it stays graded antisymmetric."""
    a, b = rng.sample(space.names, 2)
    x = rng.choice(space.names)
    c = _fraction(rng)
    out = {pair: dict(combo) for pair, combo in bracket.items()}
    out.setdefault((a, b), {})[x] = c
    out.setdefault((b, a), {})[x] = -ksign(space.degree(a) * space.degree(b)) * c
    return out


def _fraction(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


@pytest.mark.parametrize("name", ["circle.struct", "torus_bracket.struct"])
def test_relations_match_fractions_on_rational_tables(name, data_path, monkeypatch):
    # the fixtures in a basis rescaled by random p/q, as they are and with
    # 40 seeded edits of a component and of the bracket: the relation and
    # Jacobi lines, on ints inside, must read as an all-Fraction run does
    t = rescaled_table(load_structure_file(data_path(name)), random.Random(f"rational:{name}"))
    ss = t.string_space
    out = string_brackets(t, max_arity=3)
    assert out.ok
    rngs = [random.Random(f"rational:{name}:{i}") for i in range(40)]
    runs = [(out.reps, out.bracket)]
    runs += [(_edited_reps(out.reps, rng), _edited_bracket(out.bracket, ss, rng)) for rng in rngs]

    def lines():
        return [(coderivation_relations(reps, 4, ss.names).lines,
                 jacobi_coderivation_equiv(ss, bracket, 4).lines) for reps, bracket in runs]

    got = lines()
    fractions_only(monkeypatch)
    assert got == lines()
    assert not any(w for relations, jacobi in got[:1] for _, w in relations + jacobi)
    witnesses = [w for relations, jacobi in got for _, w in relations + jacobi if w]
    assert sum("/" in w for w in witnesses) >= 10


def test_broken_extension_witness_on_rational_reps(data_path, monkeypatch):
    # the coproduct line's sides render divided by the common scale: with
    # the unshuffle sign dropped it fails, on fractions, as an all-Fraction
    # run does
    t = rescaled_table(load_structure_file(data_path("torus_bracket.struct")),
                       random.Random("rational:torus_bracket.struct"))
    reps = string_brackets(t, max_arity=3).reps
    monkeypatch.setattr(coderivations, "front_sign", lambda *args: 1)
    got = coderivation_relations(reps, 4, t.string_space.names).lines
    fractions_only(monkeypatch)
    assert got == coderivation_relations(reps, 4, t.string_space.names).lines
    label, witness = got[-2]
    assert label.startswith("m2 is a coderivation") and "/" in witness


@pytest.mark.parametrize("arities", [(2,), (2, 3), (3,)])
@pytest.mark.parametrize("structure", ["circle.struct", "torus_bracket.struct"])
def test_jacobi_lines_with_and_without_relations(structure, arities, data_path):
    # the m2 square lent by coderivation_relations is the arity-2
    # coderivation line a standalone call computes; without an m2 line the
    # words are walked as before
    t = load_structure_file(data_path(structure))
    out = string_brackets(t, max_arity=max(arities))
    names = t.string_space.names
    rel = coderivation_relations({k: out.reps[k] for k in arities}, 4, names)
    alone = jacobi_coderivation_equiv(t.string_space, out.bracket, 4)
    assert jacobi_coderivation_equiv(t.string_space, out.bracket, 4, rel).lines == alone.lines


def test_relations_without_m2_lend_nothing(torus_reps):
    # a report without an m2 line leaves the arity-2 square to be walked,
    # and on the perturbed bracket that walk finds a witness
    t, out = torus_reps
    rel = coderivation_relations({3: out.reps[3]}, 3, t.string_space.names)
    bracket = perturbed_bracket(out)
    rep = jacobi_coderivation_equiv(t.string_space, bracket, 3, rel)
    assert rep.lines == jacobi_coderivation_equiv(t.string_space, bracket, 3).lines
    assert rep.lines[1][1] is not None


def test_verify_coderivations_walks_m2_once(data_path, monkeypatch, capsys):
    # 932 calls in coderivation_relations; rebuilding m2 from the bracket
    # for the Jacobi equivalence walked the same 466 words again (1398)
    calls = []
    apply_word = CoderivationRep.apply_word

    def counted(self, word):
        calls.append(1)
        return apply_word(self, word)

    monkeypatch.setattr(CoderivationRep, "apply_word", counted)
    path = data_path("torus_bracket.struct")
    assert main(["verify", "coderivations", "--structure", path, "--word-len", "6"]) == 0
    assert "arity-2 coderivation squares to zero" in capsys.readouterr().out
    assert len(calls) <= 932, len(calls)


def test_words_stop_at_the_longest(data_path, capsys):
    # every letter of the torus table is odd, so no word is longer than
    # its 9 letters; the walk used to run every longer length anyway (more
    # than 100 s at --word-len 30)
    path = data_path("torus_bracket.struct")
    assert main(["verify", "coderivations", "--structure", path, "--word-len", "9"]) == 0
    nine = capsys.readouterr().out
    started = time.monotonic()
    assert main(["verify", "coderivations", "--structure", path, "--word-len", "30"]) == 0
    elapsed = time.monotonic() - started
    assert capsys.readouterr().out.replace("length 30", "length 9") == nine
    assert elapsed < 10.0, elapsed
