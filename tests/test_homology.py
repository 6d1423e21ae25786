"""Cochain complexes, Betti numbers, induced maps."""

import pytest

from loopspace.gca import Derivation, GradedAlgebra
from loopspace.homology import (
    ChainMap,
    ComplexError,
    CochainComplex,
    betti_table,
    euler_check,
    format_betti_table,
    induced_map,
    verify_chain_map,
)
from loopspace.models import based_complex, load_model, loop_model

from reference import apply_map, compose, element, generator_images_map, identity_map
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
    bad = CochainComplex(alg, Derivation(alg, 1, {"x": "y", "y": "x^2"}))
    with pytest.raises(ComplexError) as err:
        betti_table(bad, 5)
    # both generators fail; the first in generator order is named
    assert str(err.value) == "differential does not square to zero at 'x': d(d(x)) = x^2"


def test_euler_identity(data_path):
    for name in ("s2.min", "s2xs3.min", "cp2.min"):
        cx = _loop_cx(data_path(name))
        for cutoff in (0, 1, 5, 8):
            assert euler_check(cx, cutoff), (name, cutoff)


def test_coords_and_element_roundtrip(data_path):
    cx = _loop_cx(data_path("s2.min"))
    for n in (0, 2, 5):
        dim = cx.dim(n)
        for k in range(dim):
            vec = [0] * dim
            vec[k] = 1
            assert cx.coords(element(cx, n, vec).terms, n) == vec


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
        assert rep.rank == b == rep.src_betti == rep.tgt_betti
        assert rep.matrix == [[1 if i == j else 0 for j in range(b)] for i in range(b)]


def test_rotation_is_a_chain_map_and_squares_to_zero(data_path):
    lm = loop_model(load_model(data_path("s2.min")))
    cx = lm.complex
    rot = ChainMap.from_derivation(cx, cx, lm.delta, name="rotation")
    assert rot.degree == -1
    assert verify_chain_map(rot, 9) is None
    for n in range(2, 8):
        step_n = induced_map(rot, n)
        step_prev = induced_map(rot, n - 1)
        a, b = step_prev.matrix, step_n.matrix
        squared = [
            [sum(x * b[k][j] for k, x in enumerate(row)) for j in range(step_n.src_betti)]
            for row in a
        ]
        assert all(not v for row in squared for v in row), f"degree {n}"


def test_composition_matches_matrix_product(data_path):
    lm = loop_model(load_model(data_path("s2.min")))
    cx = lm.complex
    rot = ChainMap.from_derivation(cx, cx, lm.delta, name="rotation")
    left = compose(identity_map(cx), rot)
    for n in range(6):
        assert induced_map(left, n).matrix == induced_map(rot, n).matrix


def test_from_generator_images_is_multiplicative():
    small = GradedAlgebra([("x", 2), ("y", 3)])
    big = GradedAlgebra([("x", 2), ("y", 3), ("z", 4)])
    d_small = Derivation(small, 1, {"y": "x^2"})
    d_big = Derivation(big, 1, {"y": "x^2"})
    src = CochainComplex(big, d_big)
    tgt = CochainComplex(small, d_small)
    f = generator_images_map(src, tgt, {"z": 0})
    assert verify_chain_map(f, 10) is None
    assert apply_map(f, big.parse("x*z + y")) == small.parse("y")
    assert apply_map(f, big.parse("x^2")) == small.parse("x^2")


def test_format_betti_table_layout(data_path):
    cx = _loop_cx(data_path("s2.min"))
    text = format_betti_table(betti_table(cx, 3))
    assert text == "0\t1\n1\t1\n2\t1\n3\t1\n"
