"""Algebra layer: canonical forms, Koszul signs, derivations, parsing."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopspace.gca import (
    AlgebraError,
    Derivation,
    ElementSyntaxError,
    GradedAlgebra,
)
from loopspace.models import equivariant_model, load_model, loop_model
from reference import algebra_element, graded_commutator, reference_basis, reference_parse

LOOP_GENS = [("xb", 1), ("x", 2), ("yb", 2), ("y", 3)]


def series_dimensions(gens, cutoff):
    """Oracle for graded dimensions, independent of the algebra code: the
    dimension of degree n is the t^n coefficient of the product of
    1/(1 - t^d) over even generators and (1 + t^d) over odd ones."""
    series = [1] + [0] * cutoff
    for _, d in gens:
        if d % 2:
            nxt = list(series)
            for n in range(cutoff + 1 - d):
                nxt[n + d] += series[n]
            series = nxt
        else:
            for n in range(d, cutoff + 1):
                series[n] += series[n - d]
    return series


@pytest.mark.parametrize(
    "gens",
    [
        LOOP_GENS,
        [("a", 2), ("b", 2), ("c", 4)],
        [("e", 3), ("f", 3), ("g", 5)],
        [("x", 2), ("y", 3)],
    ],
)
def test_basis_dimensions_match_series(gens):
    alg = GradedAlgebra(gens)
    want = series_dimensions(gens, 14)
    for n in range(15):
        assert len(alg.basis(n)) == want[n], f"degree {n}"


@pytest.mark.parametrize("name", ["s2.min", "s3.min", "cp2.min", "s2xs3.min"])
def test_basis_order_equals_reference(name, data_path):
    # reports print only ranks, so a change of basis order would pass every
    # golden digest; the slices and representatives are indexed by it
    loop = loop_model(load_model(data_path(name)))
    for alg in (loop.algebra, equivariant_model(loop).algebra):
        for n in range(15):
            assert alg.basis(n) == reference_basis(alg, n), (alg, n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=7), st.permutations(range(13)))
@example(degrees=[2, 2, 3, 1, 6, 5, 4], order=list(range(12, -1, -1)))
def test_basis_built_in_any_order_equals_reference(degrees, order):
    # each degree is built from lower ones, so asking for them in any order,
    # highest first included, must give the same lists, each built once
    alg = GradedAlgebra([(f"g{i}", d) for i, d in enumerate(degrees)])
    first = {n: alg.basis(n) for n in order}
    for n in order:
        assert alg.basis(n) is first[n]
        assert first[n] == reference_basis(alg, n), (degrees, n)


def test_basis_content_low_degrees():
    alg = GradedAlgebra(LOOP_GENS)
    deg2 = {alg.monomial_str(m) for m in alg.basis(2)}
    assert deg2 == {"x", "yb"}
    deg3 = {alg.monomial_str(m) for m in alg.basis(3)}
    assert deg3 == {"y", "xb*x", "xb*yb"}
    # enumeration is deterministic, not merely correct as a set
    assert alg.basis(6) == GradedAlgebra(LOOP_GENS).basis(6)


def test_monomials_are_homogeneous():
    alg = GradedAlgebra(LOOP_GENS)
    for n in range(10):
        for mono in alg.basis(n):
            assert alg.monomial_degree(mono) == n


def test_sign_rules():
    alg = GradedAlgebra(LOOP_GENS)
    xb, x, yb, y = (alg.gen(n) for n in ("xb", "x", "yb", "y"))
    assert xb * x == x * xb          # odd past even: no sign
    assert xb * y == -(y * xb)       # odd past odd: sign flips
    assert not xb * xb               # odd squares vanish
    assert not y * y
    assert str(y * xb) == "-xb*y"
    assert str(x * x) == "x^2"
    assert str(alg.zero()) == "0"
    assert str(alg.one()) == "1"


def test_parse_accepts_number_name_juxtaposition():
    alg = GradedAlgebra(LOOP_GENS)
    assert alg.parse("1 x^2") == alg.gen("x") * alg.gen("x")
    assert alg.parse("2x") == 2 * alg.gen("x")
    assert alg.parse("1/2 * xb*y - x^2") == \
        Fraction(1, 2) * alg.gen("xb") * alg.gen("y") - alg.gen("x") * alg.gen("x")


def test_parse_round_trip():
    alg = GradedAlgebra(LOOP_GENS)
    e = alg.parse("x^2 - 2*xb*x*y + 3/4*yb")
    assert alg.parse(str(e)) == e


def test_parse_rejects_garbage():
    alg = GradedAlgebra(LOOP_GENS)
    with pytest.raises(ElementSyntaxError):
        alg.parse("2*")
    with pytest.raises(ElementSyntaxError):
        alg.parse("x^")
    with pytest.raises(ElementSyntaxError):
        alg.parse("1/0")
    with pytest.raises(AlgebraError):
        alg.parse("w")
    with pytest.raises(AlgebraError):
        # whitespace never separates factors, so this is one unknown name
        alg.parse("x y")


# odd a and b, even x and y; q is unknown and $ no token at all.  An
# expression alternates an operand, mostly a name or a number, with a
# joiner, an operator or a space, which juxtaposes, so that runs like
# b*a, a^2 and x^2 y are common.
PARSE_ALGEBRA = GradedAlgebra([("a", 1), ("b", 3), ("x", 2), ("y", 4)])
PARSE_OPERAND = st.one_of(
    st.sampled_from(["a", "b", "x", "y"]),
    st.sampled_from([str(n) for n in range(13)]),
    st.sampled_from(["q", "$", "+", "-", "*", "/", "^", " "]),
)
PARSE_JOINER = st.sampled_from(["+", "-", "*", "/", "^", " "])
PARSE_TOKENS = st.lists(st.tuples(PARSE_OPERAND, PARSE_JOINER), max_size=6).map(
    lambda pairs: [t for pair in pairs for t in pair][:-1])


def _parsed(parse, text):
    """The terms of parse(text), or the type and message of the error it
    raises."""
    try:
        return parse(PARSE_ALGEBRA, text).terms
    except (AlgebraError, ElementSyntaxError) as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(PARSE_TOKENS)
@example(["b", "*", "a"])            # two odd factors swap
@example(["2", "a", "^", "2", "+", "x"])  # an odd square is zero
@example(["x", "^", "2", "y"])       # only a coefficient stands before a name
def test_parse_matches_reference(tokens):
    text = "".join(tokens)
    got = _parsed(GradedAlgebra.parse, text)
    assert got == _parsed(reference_parse, text)
    if isinstance(got, dict):
        assert all(type(c) is Fraction for c in got.values())


def test_algebra_rejects_bad_generators():
    with pytest.raises(AlgebraError):
        GradedAlgebra([("x", 0)])
    with pytest.raises(AlgebraError):
        GradedAlgebra([("x", 2), ("x", 3)])
    with pytest.raises(AlgebraError):
        GradedAlgebra([("2x", 2)])


def test_derivation_leibniz_hand_values():
    alg = GradedAlgebra(LOOP_GENS)
    d = Derivation(alg, 1, {"yb": "-2*xb*x", "y": "x^2"})
    yb, y = alg.gen("yb"), alg.gen("y")
    assert d(yb * y) == alg.parse("-2*xb*x*y + x^2*yb")
    delta = Derivation(alg, -1, {"x": "xb", "y": "yb"})
    assert delta(alg.parse("x^2")) == alg.parse("2*xb*x")
    assert delta(alg.parse("x*y")) == alg.parse("xb*y + x*yb")
    # odd operator moving past the odd generator xb costs a sign
    assert delta(alg.parse("xb*y")) == -alg.parse("xb*yb")
    assert not delta(alg.parse("xb*x"))  # lands on xb*xb = 0


class _Uncomparable(tuple):
    """Generators that fail the test when compared."""

    def __eq__(self, other):
        raise AssertionError("generators compared")

    __hash__ = tuple.__hash__


def test_algebra_compared_with_itself_reads_no_generators():
    alg = GradedAlgebra(LOOP_GENS)
    d = Derivation(alg, 1, {"yb": "-2*xb*x", "y": "x^2"})
    alg.generators = _Uncomparable(alg.generators)
    assert alg == alg and not alg != alg
    assert d(alg.gen("yb")) == alg.parse("-2*xb*x")
    assert Derivation(alg, 1, {"y": "x^2"})(alg.gen("y")) == alg.parse("x^2")
    # distinct but equal algebras still compare by their generators
    assert GradedAlgebra(LOOP_GENS) == GradedAlgebra(list(reversed(LOOP_GENS)))
    assert GradedAlgebra(LOOP_GENS) != GradedAlgebra(LOOP_GENS[:3])


def test_derivation_degree_check():
    alg = GradedAlgebra(LOOP_GENS)
    with pytest.raises(AlgebraError):
        Derivation(alg, 1, {"y": "x"})
    broken = Derivation(alg, 1, {"y": "x"}, check=False)
    assert broken.check_degrees() == ("y", 4, [2])
    fine = Derivation(alg, 1, {"y": "x^2"})
    assert fine.check_degrees() is None


def test_graded_commutator_anticommutes_d_and_rotation():
    alg = GradedAlgebra(LOOP_GENS)
    d = Derivation(alg, 1, {"yb": "-2*xb*x", "y": "x^2"})
    delta = Derivation(alg, -1, {"x": "xb", "y": "yb"})
    comm = graded_commutator(d, delta)
    for name in alg.names:
        assert not comm(alg.gen(name)), name
    square = graded_commutator(d, d)
    for name in alg.names:
        assert not square(alg.gen(name)), name


def test_transfer_moves_elements_by_name():
    small = GradedAlgebra([("x", 2), ("y", 3)])
    big = GradedAlgebra(LOOP_GENS)
    e = small.parse("x^2 - 3*y")
    moved = small.transfer(e, big)
    assert moved == big.parse("x^2 - 3*y")
    with pytest.raises(AlgebraError):
        big.transfer(big.parse("xb"), small)


def _monomial_strategy(alg):
    caps = [1 if d % 2 else 3 for d in alg.degrees]
    return st.tuples(*[st.integers(min_value=0, max_value=c) for c in caps]).map(
        lambda exps: tuple((i, e) for i, e in enumerate(exps) if e)
    )


_ALG = GradedAlgebra(LOOP_GENS)


def _mono_elt(mono):
    return algebra_element(_ALG, {mono: 1})


@given(_monomial_strategy(_ALG), _monomial_strategy(_ALG))
def test_product_graded_commutative(m1, m2):
    a, b = _mono_elt(m1), _mono_elt(m2)
    da = _ALG.monomial_degree(m1)
    db = _ALG.monomial_degree(m2)
    sign = -1 if (da * db) % 2 else 1
    assert a * b == sign * (b * a)


@given(_monomial_strategy(_ALG), _monomial_strategy(_ALG), _monomial_strategy(_ALG))
def test_product_associative(m1, m2, m3):
    a, b, c = _mono_elt(m1), _mono_elt(m2), _mono_elt(m3)
    assert (a * b) * c == a * (b * c)


_elements = st.lists(
    st.tuples(_monomial_strategy(_ALG), st.integers(min_value=-4, max_value=4)),
    max_size=5,
).map(lambda terms: sum((c * _mono_elt(m) for m, c in terms), _ALG.zero()))


@settings(deadline=None)
@given(_elements)
def test_differential_squares_to_zero_on_random_elements(e):
    d = Derivation(_ALG, 1, {"yb": "-2*xb*x", "y": "x^2"})
    assert not d(d(e))


@settings(deadline=None)
@given(_elements, _elements)
def test_derivation_is_linear(e1, e2):
    d = Derivation(_ALG, 1, {"yb": "-2*xb*x", "y": "x^2"})
    assert d(e1 + e2) == d(e1) + d(e2)
    assert d(3 * e1) == 3 * d(e1)
