"""Cochain complexes, Betti numbers, induced maps."""

import pytest

from loopspace.gca import Derivation, GradedAlgebra
from loopspace.homology import (
    ChainMap,
    ChainMapError,
    ComplexError,
    CochainComplex,
    betti_table,
    format_betti_table,
    induced_map,
    verify_chain_map,
)
from loopspace.linalg import SpanTracker
from loopspace.models import (
    based_complex,
    equivariant_model,
    gysin_report,
    load_model,
    loop_model,
    parse_model,
)

from reference import (
    apply_map,
    compose,
    element,
    euler_check,
    generator_images_map,
    identity_map,
)
from test_gca import series_dimensions


def _loop_cx(path):
    return loop_model(load_model(path)).complex


def test_zero_differential_betti_equals_dimensions(data_path):
    # all differentials vanish on this model, so the oracle is the
    # dimension series of the free algebra on the four generators
    cx = _loop_cx(data_path("s3.min"))
    want = series_dimensions([("x", 3), ("xb", 2)], 12)
    assert betti_table(cx, 12) == want
    # closed form: one class in every degree except 1
    assert betti_table(cx, 12) == [1, 0] + [1] * 11


def test_based_complex_betti(data_path):
    cx = based_complex(load_model(data_path("s3.min")))
    assert betti_table(cx, 14) == [1 if i % 2 == 0 else 0 for i in range(15)]


def test_sphere_loop_betti_all_one(data_path):
    cx = _loop_cx(data_path("s2.min"))
    assert betti_table(cx, 15) == [1] * 16


def test_betti_rejects_broken_differential():
    alg = GradedAlgebra([("x", 2), ("y", 3)])
    bad = CochainComplex(Derivation(alg, 1, {"x": "y", "y": "x^2"}))
    with pytest.raises(ComplexError) as err:
        betti_table(bad, 5)
    # both generators fail; the first in generator order is named
    assert str(err.value) == "differential does not square to zero at 'x': d(d(x)) = x^2"


def test_euler_identity(data_path):
    for name in ("s2.min", "s2xs3.min", "cp2.min"):
        cx = _loop_cx(data_path(name))
        for cutoff in (0, 1, 5, 8):
            assert euler_check(cx, cutoff), (name, cutoff)


def test_class_of_roundtrip(data_path):
    # a representative's class is its own basis vector, a coboundary's is
    # zero, and a vector with a nonzero differential has none
    cx = _loop_cx(data_path("s2xs3.min"))
    for n in range(1, 9):
        reps = cx.cohomology(n)
        for j, vec in enumerate(reps):
            assert cx.class_of(n, vec) == {j: 1}
        for col in cx.boundary_columns(n):
            assert cx.class_of(n, col) == {}
        for k, col in enumerate(cx.slice(n).column_vectors()):
            if col:
                assert cx.class_of(n, {k: 1}) is None
        if reps and cx.boundary_columns(n):
            # a class is read modulo boundaries
            mixed = dict(reps[-1])
            for k, c in cx.boundary_columns(n)[0].items():
                mixed[k] = mixed.get(k, 0) + 3 * c
            assert cx.class_of(n, {k: c for k, c in mixed.items() if c}) == {len(reps) - 1: 1}


def test_class_of_needs_no_cohomology_call_first(data_path):
    # on a complex where cohomology was never called, class_of builds the
    # elimination of its degree itself
    warm = _loop_cx(data_path("s2xs3.min"))
    for n in range(1, 7):
        fresh = _loop_cx(data_path("s2xs3.min"))
        reps = warm.cohomology(n)
        assert fresh.class_of(n, reps[-1]) == {len(reps) - 1: 1}
        assert fresh.cohomology(n) == reps


def test_cohomology_representatives_are_nonbounding_cocycles(data_path):
    cx = _loop_cx(data_path("s2.min"))
    for n in range(8):
        reps = cx.cohomology(n)
        assert len(reps) == cx.betti(n)
        for vec in reps:
            elt = element(cx, n, vec)
            assert not cx.diff(elt), f"degree {n} representative is not a cocycle"


def test_identity_chain_map_induces_identity(data_path):
    cx = _loop_cx(data_path("s2.min"))
    ident = identity_map(cx)
    assert verify_chain_map(ident, 8) is None
    for n in range(8):
        rep = induced_map(ident, n)
        b = cx.betti(n)
        assert rep.rank == b == len(rep.columns)
        assert rep.columns == [{j: 1} for j in range(b)]


def test_rotation_is_a_chain_map_and_squares_to_zero(data_path):
    lm = loop_model(load_model(data_path("s2.min")))
    cx = lm.complex
    rot = ChainMap(cx, cx, lm.delta.degree, lm.delta.image, name="rotation")
    assert rot.degree == -1
    assert verify_chain_map(rot, 9) is None
    for n in range(2, 8):
        step_n = induced_map(rot, n)
        step_prev = induced_map(rot, n - 1)
        a, b = step_prev.columns, step_n.columns
        squared = [
            [sum(x * a[k].get(i, 0) for k, x in col.items()) for i in range(cx.betti(n - 2))]
            for col in b
        ]
        assert all(not v for col in squared for v in col), f"degree {n}"


def test_composition_matches_matrix_product(data_path):
    lm = loop_model(load_model(data_path("s2.min")))
    cx = lm.complex
    rot = ChainMap(cx, cx, lm.delta.degree, lm.delta.image, name="rotation")
    left = compose(identity_map(cx), rot)
    for n in range(6):
        assert induced_map(left, n).columns == induced_map(rot, n).columns


def test_from_generator_images_is_multiplicative():
    small = GradedAlgebra([("x", 2), ("y", 3)])
    big = GradedAlgebra([("x", 2), ("y", 3), ("z", 4)])
    d_small = Derivation(small, 1, {"y": "x^2"})
    d_big = Derivation(big, 1, {"y": "x^2"})
    src = CochainComplex(d_big)
    tgt = CochainComplex(d_small)
    f = generator_images_map(src, tgt, {"z": 0})
    assert verify_chain_map(f, 10) is None
    assert apply_map(f, big.parse("x*z + y")) == small.parse("y")
    assert apply_map(f, big.parse("x^2")) == small.parse("x^2")


def test_map_of_the_wrong_degree_is_rejected(data_path):
    # the rotation lowers degree by one; declared as degree 0, its images
    # leave their degree from x in degree 2 on.  The check reads no degree-2
    # image up to cutoff 1, as d vanishes on degree 1, so it reports none
    lm = loop_model(load_model(data_path("s2.min")))
    cx = lm.complex
    f = ChainMap(cx, cx, 0, lm.delta.image, name="rotation")
    assert verify_chain_map(f, 1) is None
    with pytest.raises(ChainMapError, match="rotation: image of a degree-2 monomial"):
        verify_chain_map(f, 4)


def _bent(alg, cx, images):
    """The degree-0 map that is the identity but on the monomials images
    names, each given as an element expression over alg."""
    table = {next(iter(alg.parse(k).terms)): alg.parse(v).terms for k, v in images.items()}
    return ChainMap(cx, cx, 0, lambda mono: table.get(mono, {mono: 1}), name="bent")


@pytest.mark.parametrize("images, cutoff, named", [
    # f(x^2) = x falls below degree 4, and the check first reads it at
    # degree 3, through d(y) = x^2 on the right-hand side
    ({"x^2": "x"}, 3, 4),
    # f(x) = x^2 rises above degree 2, read at degree 2 on the left
    ({"x": "x^2"}, 2, 2),
], ids=["falls", "rises"])
def test_an_off_degree_image_is_reported_at_the_degree_it_is_read(images, cutoff, named):
    alg = GradedAlgebra([("x", 2), ("y", 3)])
    f = _bent(alg, CochainComplex(Derivation(alg, 1, {"y": "x^2"})), images)
    assert verify_chain_map(f, cutoff - 1) is None
    with pytest.raises(ChainMapError, match=f"bent: image of a degree-{named} monomial"):
        verify_chain_map(f, cutoff)


def test_a_map_on_degree_returns_its_first_failure():
    # f(y) = 2y: d f(y) = 2x^2 but f(d y) = x^2, and every lower degree holds
    alg = GradedAlgebra([("x", 2), ("y", 3)])
    f = _bent(alg, CochainComplex(Derivation(alg, 1, {"y": "x^2"})), {"y": "2*y"})
    assert verify_chain_map(f, 2) is None
    y = next(iter(alg.parse("y").terms))
    assert verify_chain_map(f, 5) == (3, y, alg.parse("2*x^2"), alg.parse("x^2"))


def test_format_betti_table_layout(data_path):
    cx = _loop_cx(data_path("s2.min"))
    text = "".join(format_betti_table(betti_table(cx, 3)))
    assert text == "0\t1\n1\t1\n2\t1\n3\t1\n"


def test_rational_model_eliminates_on_ints(monkeypatch):
    # the slices hold 49 * d for d y = -128/49*x^2, kernel vectors and so
    # representatives are int vectors, and the engine clears the
    # denominators of class coordinates as they enter, so no Fraction
    # reaches elimination anywhere on the path
    trackers = []
    init = SpanTracker.__init__

    def recorded(self, dim):
        init(self, dim)
        trackers.append(self)

    monkeypatch.setattr(SpanTracker, "__init__", recorded)
    string = equivariant_model(loop_model(parse_model(
        "gen x 2\ngen y 3\ngen z 3\nd y = -128/49*x^2\n")))
    cx = string.complex
    for n in range(13):
        cx.cohomology(n)
        cx.slice(n).rank()
    for n, sl in cx._slices.items():
        src, tgt = cx.algebra.basis(n), cx.algebra.basis(n + 1)
        assert sl.entries == {(tgt.index(m), j): 49 * c for j, mono in enumerate(src)
                              for m, c in cx.diff.image(mono).items()}, n
    assert gysin_report(string, 8).ok
    for complex_ in (cx, string.loop.complex):
        for n, sl in complex_._slices.items():
            assert all(type(v) is int for v in sl.entries.values()), n
        assert complex_._cohomology
        for n, (_, reps) in complex_._cohomology.items():
            assert all(type(x) is int for rep in reps for x in rep.values()), n
    assert trackers
    for tr in trackers:
        assert all(type(x) is int for row in tr._rows.values() for x in row.values())
