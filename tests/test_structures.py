"""Structure files and the algebraic law checkers that run over them."""

import itertools
import os
import random
from fractions import Fraction

import pytest
from conftest import DATA_DIR, circle_structure
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import add_into as reference_add
from reference import (
    apply_table,
    derived_bracket,
    reference_symmetry_witness,
    reference_witness,
    rescaled_table,
    with_bracket,
)
from test_golden import SYMMETRY_MUTANT

from loopspace.checks import (
    BRACKET_LAWS,
    DEVIATION_LAWS,
    IDENTITIES,
    PRODUCT_LAWS,
    Tabulation,
    add_into,
    apply_map,
    format_terms,
    integral,
)
from loopspace.gca import GradedAlgebra
from loopspace.structures import (
    BasisSpace,
    StructureTable,
    StructureError,
    StructureFileError,
    check_bv,
    check_gerstenhaber,
    load_structure_file,
    parse_structure_file,
    string_brackets,
)


@pytest.fixture
def circle(data_path):
    return load_structure_file(data_path("circle.struct"))


@pytest.fixture
def torus_bracket(data_path):
    return load_structure_file(data_path("torus_bracket.struct"))


def test_parse_combo_roundtrip():
    space = BasisSpace([("T_1", 0), ("A_2", -1), ("A_3", -1)])
    combo = {"T_1": Fraction(3, 4), "A_2": Fraction(-1), "A_3": Fraction(2)}
    assert space.parse_combo(space.render(combo)) == combo
    assert space.render({}) == "0"
    assert space.parse_combo("0") == {}
    assert space.parse_combo("-A_2 + 3/4*T_1 + 2*A_3") == combo
    # same term twice accumulates
    assert space.parse_combo("T_1 + T_1") == {"T_1": Fraction(2)}
    assert space.parse_combo("T_1 - T_1") == {}
    assert space.parse_combo("0*T_1") == {}  # a zero term is not stored


@pytest.mark.parametrize("terms, text", [
    ([], "0"),
    ([(None, Fraction(3))], "3"),
    ([(None, Fraction(-1, 2))], "-1/2"),
    ([("a", 1), ("b", -1), ("c", 2), ("d", Fraction(-1, 2))], "a - b + 2*c - 1/2*d"),
    ([("a", -1), ("b", 1)], "-a + b"),
    ([("a", Fraction(-3, 2)), ("c", 1)], "-3/2*a + c"),
    ([(None, 3), ("z", 2), ("y", -1), ("x", 1), ("x*y", Fraction(-1, 2))],
     "3 + 2*z - y + x - 1/2*x*y"),
    ([(None, 1), ("x", -1)], "1 - x"),
])
def test_one_printer_for_basis_spaces_and_elements(terms, text):
    # the strings are those BasisSpace.render and GradedElement.__str__
    # printed before both called format_terms
    assert format_terms(terms) == text
    names = {name for name, _ in terms}
    if None not in names:
        space = BasisSpace([(name, 0) for name, _ in terms])
        assert space.render(dict(terms)) == text
    if names <= {None, "x", "y", "z", "x*y"}:
        alg = GradedAlgebra([("x", 2), ("y", 2), ("z", 2)])
        assert str(alg.parse(text)) == text


def test_parse_combo_errors():
    space = BasisSpace([("T_1", 0)])
    with pytest.raises(StructureError, match="dangling sign"):
        space.parse_combo("T_1 +")
    with pytest.raises(StructureError, match="consecutive signs"):
        space.parse_combo("T_1 + - T_1")
    with pytest.raises(StructureError, match="unknown basis name"):
        space.parse_combo("B_9")
    with pytest.raises(StructureError, match="cannot read term"):
        space.parse_combo("3")  # bare numeral: only 0 stands alone
    with pytest.raises(StructureError, match="empty combination"):
        space.parse_combo("  ")
    for coeff in ("1/0", "0/0"):
        with pytest.raises(StructureError, match="zero denominator"):
            space.parse_combo(f"{coeff} T_1")


def test_structure_file_presence_semantics():
    t = parse_structure_file("basis T 0\nproduct T T = T\n")
    assert t.product == {("T", "T"): {"T": Fraction(1)}}
    assert t.bracket is None  # never declared
    assert t.delta is None
    t2 = parse_structure_file("basis T 0\nbracket T T = 0\n")
    assert t2.bracket == {}  # declared and identically zero
    assert parse_structure_file("basis T 0\nproduct T T = 0*T\n").product == {}
    assert t2.product is None


def test_structure_file_errors():
    with pytest.raises(StructureFileError, match="line 3: duplicate product"):
        parse_structure_file("basis T 0\nproduct T T = T\nproduct T T = 0\n")
    with pytest.raises(StructureFileError, match="line 1: bad degree"):
        parse_structure_file("basis T zero\n")
    with pytest.raises(StructureError, match="^no basis lines$"):
        parse_structure_file("# nothing here\n")
    with pytest.raises(StructureFileError, match="both basis and sbasis"):
        parse_structure_file("basis T 0\nsbasis T 0\n")
    with pytest.raises(StructureFileError, match="line 2: E line needs an sbasis"):
        parse_structure_file("basis T 0\nE T = T\n")
    with pytest.raises(StructureFileError, match="unknown basis name 'Q'"):
        parse_structure_file("basis T 0\nproduct T Q = T\n")
    with pytest.raises(StructureFileError, match="line 2: product line needs '='"):
        parse_structure_file("basis T 0\nproduct T T T\n")
    with pytest.raises(StructureFileError, match="takes 2 basis name"):
        parse_structure_file("basis T 0\nproduct T = T\n")
    with pytest.raises(StructureFileError, match="unrecognized declaration"):
        parse_structure_file("basis T 0\ntwist T = T\n")
    with pytest.raises(StructureFileError, match="duplicate basis name"):
        parse_structure_file("basis T 0\nbasis T 1\n")


@pytest.mark.parametrize("text, message", [
    ("basis 1a 0\n", "line 1: bad basis name '1a'"),
    ("basis a 0\nbasis a 1\n", "line 2: duplicate basis name 'a'"),
    ("basis a 0\nsbasis a -1\n", "line 2: name in both basis and sbasis: a"),
    ("sbasis a -1\n# comment\nbasis a 0\n", "line 3: name in both basis and sbasis: a"),
    ("basis a 0\nsbasis s -1\nsbasis s 0\n", "line 3: duplicate basis name 's'"),
    ("basis a 0\nsbasis s- -1\n", "line 2: bad basis name 's-'"),
    ("sbasis s -1\n", "no basis lines"),
], ids=["bad basis name", "duplicate basis name", "sbasis after basis",
        "basis after sbasis", "duplicate sbasis name", "bad sbasis name", "no basis lines"])
def test_structure_file_name_errors_name_their_line(text, message):
    # a file without a basis line has no line to name
    with pytest.raises(StructureError) as err:
        parse_structure_file(text)
    assert str(err.value) == message
    assert isinstance(err.value, StructureFileError) == message.startswith("line ")


def test_structure_file_duplicate_entry_line_number():
    with pytest.raises(StructureFileError) as err:
        parse_structure_file("basis T 0\ndelta T = 0\ndelta T = T\n")
    assert "line 3" in str(err.value)


def test_circle_bv(circle):
    rep = check_bv(circle)
    assert rep.ok, "".join(rep.pieces())
    labels = [l for l, _ in rep.lines]
    assert labels[:5] == [
        "product respects degrees",
        "delta respects degrees",
        "product is graded commutative",
        "product is associative",
        "delta squares to zero",
    ]
    assert "formulations agree" in labels
    assert "check delta squares to zero: pass\n" in "".join(rep.pieces())


def test_circle_gerstenhaber(circle):
    rep = check_gerstenhaber(circle)
    assert rep.ok, "".join(rep.pieces())


def test_circle_derived_bracket_matches_file(circle):
    assert derived_bracket(circle).bracket == circle.bracket


def test_circle_string_brackets_vanish(circle):
    out = string_brackets(circle, max_arity=3)
    assert out.ok, "".join(out.checks.pieces())
    assert out.bracket == {}
    assert "".join(out.pieces()) == "".join(out.checks.pieces())
    # every higher operation is zero as well
    for rep in out.reps.values():
        assert all(not combo for combo in rep.comps.values())


def test_ext_odd_passes(data_path):
    t = load_structure_file(data_path("ext_odd.struct"))
    assert check_bv(t).ok
    assert check_gerstenhaber(t).ok
    assert derived_bracket(t).bracket == t.bracket == {}


def test_ext_odd_bad_degree_witness(data_path):
    t = load_structure_file(data_path("ext_odd_bad.struct"))
    rep = check_gerstenhaber(t)
    assert not rep.ok
    fails = rep.failures()
    assert len(fails) == 1  # degree failure stops the run
    label, witness = fails[0]
    assert label == "bracket respects degrees"
    assert "bracket e e" in witness
    assert "degree 0, expected -1" in witness
    # nothing after the failed check was evaluated
    assert [l for l, _ in rep.lines][-1] == label


def test_bad_delta_witness(data_path):
    t = load_structure_file(data_path("bad_delta.struct"))
    rep = check_bv(t)
    assert not rep.ok
    label, witness = rep.failures()[0]
    assert label == "delta squares to zero"
    assert witness == "a=p: delta(delta(a)) = r"
    assert [l for l, _ in rep.lines][-1] == label


def test_bv_trailing_checks_all_evaluated(circle):
    rep = check_bv(circle)
    labels = [l for l, _ in rep.lines]
    # once the preconditions hold the remaining identities all get a line
    assert labels[5:] == [
        "deviation is a derivation in its first argument",
        "deviation is a derivation in its second argument",
        "seven-term identity holds",
        "formulations agree",
    ]


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def test_torus_bracket_table(torus_bracket):
    out = string_brackets(torus_bracket, max_arity=3)
    assert out.ok, "".join(out.checks.pieces())
    vecs = [(p, q) for p in range(3) for q in range(3)]
    want = {}
    for u in vecs:
        for v in vecs:
            w = (u[0] + v[0], u[1] + v[1])
            c = _det(u, v)
            if c and w[0] <= 2 and w[1] <= 2:
                want[(f"S_{u[0]}_{u[1]}", f"S_{v[0]}_{v[1]}")] = {
                    f"S_{w[0]}_{w[1]}": Fraction(c)
                }
    assert out.bracket == want
    assert want  # the fixture genuinely exercises nonzero brackets
    labels = [l for l, _ in out.checks.lines]
    assert "bracket is graded antisymmetric" in labels
    assert "bracket satisfies the graded Jacobi identity" in labels


def test_torus_bracket_higher_ops_vanish(torus_bracket):
    out = string_brackets(torus_bracket, max_arity=3)
    rep3 = out.reps[3]
    assert all(not combo for combo in rep3.comps.values())
    # arity 2 carries the bracket, reindexed and shifted
    rep2 = out.reps[2]
    assert any(combo for combo in rep2.comps.values())


def test_each_operation_evaluated_once(torus_bracket, monkeypatch):
    # one product for each of the 9 marked names after each of the 9, and
    # one more after each of the 16 nonzero arity-2 products; every
    # arity-3 product is 0, so no higher arity costs a product
    calls = []
    mult = StructureTable.mult

    def counted(self, ca, cb):
        calls.append(1)
        return mult(self, ca, cb)

    monkeypatch.setattr(StructureTable, "mult", counted)
    for max_arity in (6, 9):
        calls.clear()
        out = string_brackets(torus_bracket, max_arity=max_arity)
        assert out.ok
        assert len(calls) == 9 * 9 + 16 * 9, (max_arity, len(calls))
        # the 16 nonzero arity-2 values come in 8 swapped pairs
        assert [len(out.reps[k].comps) for k in (2, 3)] == [8, 0]
        assert all(all(rep.comps.values()) for rep in out.reps.values())


def test_operations_stop_at_the_first_arity_without_products(torus_bracket):
    # every arity-3 product is 0, so arity 3 is tabulated empty and no
    # arity past it is built, walked or kept
    out = string_brackets(torus_bracket, max_arity=50)
    assert out.ok
    assert sorted(out.reps) == [2, 3]
    assert out.reps[3].comps == {}


def test_string_brackets_requirements(circle):
    plain = parse_structure_file("basis T 0\nproduct T T = T\n")
    with pytest.raises(StructureError, match="needs an sbasis"):
        string_brackets(plain)
    with pytest.raises(StructureError, match="max arity"):
        string_brackets(circle, max_arity=1)
    with pytest.raises(StructureError, match="needs product and bracket"):
        check_gerstenhaber(with_bracket(plain, None))
    with pytest.raises(StructureError, match="needs product and delta"):
        derived_bracket(plain)


def _tables(t):
    return (
        t.space.names, [t.space.degree(n) for n in t.space.names],
        t.string_space.names, [t.string_space.degree(n) for n in t.string_space.names],
        t.product, t.bracket, t.delta, t.erase, t.mark,
    )


def test_circle_generator_matches_fixture(circle):
    assert _tables(parse_structure_file(circle_structure(4))) == _tables(circle)


# Mutants of the windings 0..6 circle table and the full reports the
# checkers give for them, pinned as text: each FAIL names the first failing
# tuple in (a, b, c) order.
CIRCLE6 = circle_structure(6)
PASSES = {
    "bv": [
        "product respects degrees",
        "delta respects degrees",
        "product is graded commutative",
        "product is associative",
        "delta squares to zero",
        "deviation is a derivation in its first argument",
        "deviation is a derivation in its second argument",
        "seven-term identity holds",
        "formulations agree",
    ],
    "gerstenhaber": [
        "product respects degrees",
        "bracket respects degrees",
        "product is graded commutative",
        "product is associative",
        "bracket is graded antisymmetric",
        "bracket satisfies the graded Jacobi identity",
        "bracket is a graded derivation of the product",
    ],
}
# Each mutant is a list of (line, replacement) edits; an empty line
# appends its replacement.
MUTANTS = {
    "delta": ([("delta A_3 = 3*T_3", "delta A_3 = 4*T_3")], {
        "bv": PASSES["bv"][:5] + [
            ("deviation is a derivation in its first argument",
             "a=T_1, b=T_1, c=A_1: dev(a*b, c) = 3*T_3, expected 2*T_3"),
            ("deviation is a derivation in its second argument",
             "a=T_1, b=T_1, c=A_1: dev(a, b*c) = 2*T_3, expected T_3"),
            ("seven-term identity holds",
             "a=T_1, b=T_1, c=A_1: delta(a*b*c) = 4*T_3, expected 3*T_3"),
            "formulations agree",
        ],
        "gerstenhaber": PASSES["gerstenhaber"],
    }),
    "product": ([("product T_1 T_1 = T_2", "product T_1 T_1 = 3*T_2")], {
        what: PASSES[what][:3] + [
            ("product is associative",
             "a=T_1, b=T_1, c=T_2: (a*b)*c = 3*T_4, a*(b*c) = T_4"),
        ]
        for what in ("bv", "gerstenhaber")
    }),
    "product order": ([("product T_1 T_2 = T_3", "product T_1 T_2 = 2*T_3")], {
        what: PASSES[what][:2] + [
            ("product is graded commutative",
             "a=T_1, b=T_2: b*a = T_3, expected 2*T_3"),
        ]
        for what in ("bv", "gerstenhaber")
    }),
    "bracket": ([("bracket T_1 A_2 = 1*T_3", "bracket T_1 A_2 = 2*T_3")], {
        "bv": PASSES["bv"],
        "gerstenhaber": PASSES["gerstenhaber"][:4] + [
            ("bracket is graded antisymmetric",
             "a=T_1, b=A_2: [b,a] = -T_3, expected -2*T_3"),
        ],
    }),
    "bracket pair": ([
        ("bracket T_1 A_2 = 1*T_3", "bracket T_1 A_2 = 2*T_3"),
        ("bracket A_2 T_1 = -1*T_3", "bracket A_2 T_1 = -2*T_3"),
    ], {
        "bv": PASSES["bv"],
        "gerstenhaber": PASSES["gerstenhaber"][:5] + [
            ("bracket satisfies the graded Jacobi identity",
             "a=T_1, b=A_1, c=A_2: [a,[b,c]] = -T_4, expected -4*T_4"),
        ],
    }),
    "bracket at winding 0": ([
        ("", "bracket T_0 A_0 = 5*T_0"),
        ("", "bracket A_0 T_0 = -5*T_0"),
    ], {
        "bv": PASSES["bv"],
        "gerstenhaber": PASSES["gerstenhaber"][:6] + [
            ("bracket is a graded derivation of the product",
             "a=T_0, b=T_1, c=A_0: [a,b*c] = 0, expected 5*T_1"),
        ],
    }),
}
CHECKERS = {"bv": check_bv, "gerstenhaber": check_gerstenhaber}


def _report(lines):
    return "".join(
        f"check {l}: pass\n" if isinstance(l, str) else f"check {l[0]}: FAIL {l[1]}\n"
        for l in lines
    )


def _edited(text, edits):
    for old, new in edits:
        if old:
            assert old + "\n" in text
            text = text.replace(old + "\n", new + "\n")
        else:
            text += new + "\n"
    return parse_structure_file(text)


def _mutant(name):
    return _edited(CIRCLE6, MUTANTS[name][0])


@pytest.mark.parametrize("name", sorted(MUTANTS))
@pytest.mark.parametrize("what", sorted(CHECKERS))
def test_mutated_circle_witnesses(name, what):
    rep = CHECKERS[what](_mutant(name))
    want = MUTANTS[name][1][what]
    assert "".join(rep.pieces()) == _report(want)
    assert rep.ok == (want == PASSES[what])


@pytest.mark.parametrize("edits, want", [
    ([("product X_1_0 X_0_1 = Y_1_1", "product X_1_0 X_0_1 = 2*Y_1_1")],
     ("bracket is graded antisymmetric",
      "a=S_0_1, b=S_1_0: [b,a] = 2*S_1_1, expected S_1_1")),
    ([("product X_1_0 X_1_1 = Y_2_1", "product X_1_0 X_1_1 = 2*Y_2_1"),
      ("product X_1_1 X_1_0 = -Y_2_1", "product X_1_1 X_1_0 = -2*Y_2_1")],
     ("bracket satisfies the graded Jacobi identity",
      "a=S_0_1, b=S_1_0, c=S_1_1: [a,[b,c]] = -4*S_2_2, expected -2*S_2_2")),
])
def test_mutated_torus_string_bracket_witnesses(data_path, edits, want):
    with open(data_path("torus_bracket.struct"), encoding="utf-8") as fh:
        out = string_brackets(_edited(fh.read(), edits), max_arity=3)
    assert out.checks.failures() == [want]
    assert out.checks.lines[-1] == want


@pytest.mark.parametrize("what", sorted(CHECKERS))
@pytest.mark.parametrize("mutant_first", [False, True])
def test_good_and_mutated_tables_back_to_back(what, mutant_first):
    # each verdict comes from its own table: nothing tabulated for one
    # check may be read by the next
    runs = [(parse_structure_file(CIRCLE6), PASSES[what])]
    runs += [(_mutant(name), MUTANTS[name][1][what]) for name in ("delta", "product")]
    if mutant_first:
        runs.reverse()
    for table, want in runs + runs:
        assert "".join(CHECKERS[what](table).pieces()) == _report(want)


# The identity engine against the tuple-by-tuple reference: every label
# that a table's sections allow, with the same witness text.
def _labels(t):
    labels = []
    if t.product is not None:
        labels += PRODUCT_LAWS
    if t.bracket is not None:
        labels += BRACKET_LAWS
        if t.product is not None:
            labels.append("bracket is a graded derivation of the product")
    if t.delta is not None:
        labels.append("delta squares to zero")
        if t.product is not None:
            labels += DEVIATION_LAWS
    return labels


def _witnesses(t):
    tables = {"product": t.product, "bracket": t.bracket, "delta": t.delta}
    tab = Tabulation(t.space, **tables)
    return [(label, tab.witness(label), reference_witness(t.space, label, **tables))
            for label in _labels(t)]


def _assert_matches_reference(t):
    for label, got, want in _witnesses(t):
        assert got == want, label


STRUCT_FILES = sorted(f for f in os.listdir(DATA_DIR) if f.endswith(".struct"))


@pytest.mark.parametrize("name", STRUCT_FILES)
def test_identities_match_reference_on_fixtures(name, data_path):
    t = load_structure_file(data_path(name))
    _assert_matches_reference(t)
    if t.string_space is not None and t.product is not None:
        # the marked-point bracket, whose laws carry the even shift
        ss = t.string_space
        out = string_brackets(t, max_arity=2)
        tab = Tabulation(ss, bracket=out.bracket, shift=0)
        for label in BRACKET_LAWS:
            assert tab.witness(label) == reference_witness(
                ss, label, bracket=out.bracket, shift=0), label
        for max_arity in (2, 3, 4):
            assert _symmetry_against_reference(t, max_arity) == (None, None)


def test_identities_match_reference_on_forty_elements():
    _assert_matches_reference(parse_structure_file(circle_structure(19)))


def _edit(t, rng):
    """t with one coefficient of one product, bracket or delta entry set
    to a random value: an entry that is there, or any entry at all."""
    kind = rng.choice([k for k in ("product", "bracket", "delta") if getattr(t, k) is not None])
    table = {key: dict(combo) for key, combo in getattr(t, kind).items()}
    names = t.space.names
    if table and rng.random() < 0.5:
        key = rng.choice(sorted(table))
        target = rng.choice(sorted(table[key]))
    else:
        key = rng.choice(names) if kind == "delta" else (rng.choice(names), rng.choice(names))
        target = rng.choice(names)
    combo = table.setdefault(key, {})
    combo[target] = Fraction(rng.choice((-2, -1, 0, 1, 2, 3)), rng.choice((1, 1, 2)))
    if not combo[target]:
        del combo[target]
    tables = {"product": t.product, "bracket": t.bracket, "delta": t.delta}
    tables[kind] = {k: c for k, c in table.items() if c}
    return StructureTable(t.space, **tables)


@pytest.mark.parametrize("name", ["circle.struct", "torus_bracket.struct", "ext_odd.struct"])
def test_identities_match_reference_on_edited_tables(name, data_path):
    t = load_structure_file(data_path(name))
    failing = 0
    for i in range(40):
        rows = _witnesses(_edit(t, random.Random(f"{name}:{i}")))
        for label, got, want in rows:
            assert got == want, (i, label)
        failing += any(got is not None for _, got, _ in rows)
    assert failing >= 10


@pytest.mark.parametrize("name", ["circle.struct", "torus_bracket.struct", "ext_odd.struct"])
def test_identities_match_reference_on_rational_tables(name, data_path):
    # the same fixtures in a basis rescaled by random p/q: the checkers
    # clear the denominators and work on ints, the reference stays in
    # Fractions, and every witness must read the same
    rng = random.Random(f"rational:{name}")
    t = rescaled_table(load_structure_file(data_path(name)), rng)
    assert any(c.denominator > 1 for combo in t.product.values() for c in combo.values())
    assert all(got is None and want is None for _, got, want in _witnesses(t))
    witnesses = []
    for i in range(40):
        rows = _witnesses(_edit(t, random.Random(f"rational:{name}:{i}")))
        for label, got, want in rows:
            assert got == want, (i, label)
        witnesses += [got for _, got, _ in rows if got is not None]
    assert len(witnesses) >= 10
    assert any("/" in w for w in witnesses)


@st.composite
def accumulations(draw):
    """(acc, combo, scale, table) over four keys: two combinations with
    int and Fraction coefficients, where acc holds -scale times combo on
    some keys so that those pairs cancel, and a table taking a key to a
    combination, to {} or to None, or leaving it out."""
    keys = st.sampled_from("abcd")
    coeffs = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)])
    combo = draw(st.dictionaries(keys, coeffs, max_size=4))
    acc = draw(st.dictionaries(keys, coeffs, max_size=4))
    scale = draw(st.sampled_from([0, 1, -1, 3, Fraction(-3, 2)]))
    if combo and scale:
        for key in draw(st.sets(st.sampled_from(sorted(combo)))):
            acc[key] = -scale * combo[key]
    rows = st.one_of(st.none(), st.just({}), st.dictionaries(keys, coeffs, min_size=1, max_size=3))
    return acc, combo, scale, draw(st.dictionaries(keys, rows))


@given(accumulations())
@settings(max_examples=300)
def test_combination_helpers_match_reference(case):
    # add_into and apply_map add in one pass into the caller's accumulator;
    # the reference forms every sum first and drops the zeros after
    acc, combo, scale, table = case
    f = table.get
    before = dict(combo)
    into = dict(acc)
    got = add_into(into, combo, scale)
    assert got is into and got == reference_add(dict(acc), combo, scale)
    assert 0 not in got.values()
    assert apply_map(f, combo) == apply_table(f, combo)
    into = dict(acc)
    got = apply_map(f, combo, into, scale)
    assert got is into and got == reference_add(dict(acc), apply_table(f, combo), scale)
    assert got == add_into(dict(acc), apply_map(f, combo), scale)
    assert 0 not in got.values()
    assert combo == before


def test_identities_are_homogeneous_of_their_degree():
    # the degree in IDENTITIES is what witness divides by: on random int
    # tables, scaling every table by c must scale both sides of each
    # identity, on every prefix, by c^degree
    rng = random.Random(11)
    space = BasisSpace([("a", 0), ("b", 1), ("c", -1), ("d", 2)])
    names = space.names

    def combo():
        return {x: v for x in names if (v := rng.choice((0, 0, 1, -1, 2, -3)))}

    tables = {"product": {(a, b): combo() for a in names for b in names},
              "bracket": {(a, b): combo() for a in names for b in names},
              "delta": {a: combo() for a in names}}

    def times(c, rows):
        return {x: {y: c * v for y, v in row.items()} for x, row in rows.items()}

    plain = Tabulation(space, **tables)
    for c in (2, -3):
        tab = Tabulation(space, **{kind: times(c, table) for kind, table in tables.items()})
        for label, (sides, arity, degree, *_) in IDENTITIES.items():
            nonzero = False
            for prefix in itertools.product(names, repeat=arity - 1):
                want = [times(c ** degree, side) for side in sides(plain, *prefix)]
                assert list(sides(tab, *prefix)) == want, (label, c, prefix)
                nonzero = nonzero or any(want)
            assert nonzero, label


def test_integral_clears_denominators_once():
    product = {("a", "b"): {"a": Fraction(1, 6), "b": Fraction(-3, 4)}}
    delta = {"a": {"b": Fraction(5)}, "b": {}}
    assert integral([product, None, delta]) == (
        [{("a", "b"): {"a": 2, "b": -9}}, None, {"a": {"b": 60}, "b": {}}], 12)
    assert integral([None, {}]) == ([None, {}], 1)


# The symmetry walk of string_brackets starts at arity 3, because bracket
# antisymmetry is its arity-2 condition; the reference walks from arity 2.
def _symmetry_against_reference(t, max_arity):
    """The antisymmetry and symmetry witnesses of string_brackets, each
    "unreached" when the report stops before it, after checking that the
    reference passes at arity 2 wherever antisymmetry passes, and gives
    the same symmetry witness wherever the walk is reached."""
    lines = dict(string_brackets(t, max_arity=max_arity).checks.lines)
    antisymmetry = lines.get("bracket is graded antisymmetric", "unreached")
    if antisymmetry is None:
        assert reference_symmetry_witness(t, 2) is None
    symmetry = lines.get("inputs are graded symmetric", "unreached")
    if symmetry != "unreached":
        assert symmetry == reference_symmetry_witness(t, max_arity)
    return antisymmetry, symmetry


def _edit_marked(t, rng):
    """t with one coefficient of one product, E or M entry set to a random
    value on a name of the degree the entry must have: an entry that is
    there, or any entry at all."""
    sp, ss = t.space, t.string_space
    kind = rng.choice(("product", "erase", "mark"))
    arg_space, val_space, shift = {
        "product": (sp, sp, 0), "erase": (sp, ss, 0), "mark": (ss, sp, 1)}[kind]
    table = {key: dict(combo) for key, combo in getattr(t, kind).items()}
    if table and rng.random() < 0.5:
        key = rng.choice(sorted(table))
    elif kind == "product":
        key = (rng.choice(sp.names), rng.choice(sp.names))
    else:
        key = rng.choice(arg_space.names)
    args = key if kind == "product" else (key,)
    want = sum(map(arg_space.degree, args)) + shift
    targets = [n for n in val_space.names if val_space.degree(n) == want]
    if not targets:
        return t
    combo = table.setdefault(key, {})
    target = rng.choice(targets)
    combo[target] = Fraction(rng.choice((-2, -1, 0, 1, 2)))
    if not combo[target]:
        del combo[target]
    tables = {"product": t.product, "erase": t.erase, "mark": t.mark}
    tables[kind] = {k: c for k, c in table.items() if c}
    return StructureTable(sp, delta=t.delta, string_space=ss, **tables)


def test_symmetry_matches_reference_on_edited_torus(torus_bracket, data_path):
    with open(data_path("torus_bracket.struct"), encoding="utf-8") as fh:
        mutant = parse_structure_file(fh.read() + SYMMETRY_MUTANT)
    # the mutant passes antisymmetry and fails the walk at arity 3
    assert _symmetry_against_reference(mutant, 2) == (None, None)
    assert _symmetry_against_reference(mutant, 3)[1] is not None
    outcomes = [
        _symmetry_against_reference(
            _edit_marked(torus_bracket, random.Random(f"torus:{i}")), 3)
        for i in range(48)
    ]
    # edits that stop before the bracket, that break antisymmetry, and
    # that reach the symmetry walk all occur
    antisymmetry = [a for a, _ in outcomes]
    assert antisymmetry.count("unreached") >= 5
    assert sum(a not in (None, "unreached") for a in antisymmetry) >= 5
    assert sum(s != "unreached" for _, s in outcomes) >= 5


@st.composite
def sparse_marked_tables(draw):
    """Marked-point tables with sparse products that do not commute, whose
    bracket is antisymmetric and Lie by construction, so that every one
    reaches the symmetry walk.  M takes s_i (degree 0) to a multiple of
    a_i; a_i a_j = -a_j a_i lands in b_0 and b_1, b_m a_i in c and c a_i
    in d, with no product the other way round; E takes b_m, c and d to
    t2, t3 and t4, which M leaves at 0, so the bracket of two brackets
    vanishes."""
    n = draw(st.integers(min_value=2, max_value=3))
    a = [f"a_{i}" for i in range(n)]

    def combo(*names):
        coeffs = (draw(st.sampled_from((0, 0, 1, -1, 2))) for _ in names)
        return {x: Fraction(c) for x, c in zip(names, coeffs) if c}

    product = {}
    for x, y in itertools.combinations(a, 2):
        product[x, y] = combo("b_0", "b_1")
        product[y, x] = {z: -c for z, c in product[x, y].items()}
    for x in a:
        product["b_0", x], product["b_1", x], product["c", x] = (
            combo("c"), combo("c"), combo("d"))
    erase = {"b_0": combo("t2"), "b_1": combo("t2"), "c": combo("t3"), "d": combo("t4")}
    mark = {f"s_{i}": combo(x) for i, x in enumerate(a)}
    return StructureTable(
        BasisSpace([(x, 1) for x in a] + [("b_0", 2), ("b_1", 2), ("c", 3), ("d", 4)]),
        product={key: v for key, v in product.items() if v},
        string_space=BasisSpace([(f"s_{i}", 0) for i in range(n)]
                                + [("t2", 2), ("t3", 3), ("t4", 4)]),
        erase={key: v for key, v in erase.items() if v},
        mark={key: v for key, v in mark.items() if v},
    )


@given(sparse_marked_tables())
@settings(deadline=None, max_examples=60)
def test_symmetry_matches_reference_on_sparse_tables(t):
    # the walk reads only the pairs with a nonzero side, among them those
    # where only the swapped tuple's product is nonzero
    assert _symmetry_against_reference(t, 4)[1] != "unreached"
