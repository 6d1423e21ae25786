"""Sparse derivation and chain-map images against the GradedElement
constructions they replace (kept in tests/reference.py)."""

import pytest

from loopspace.gca import Derivation, GradedElement
from loopspace.homology import ChainMap, verify_chain_map
from loopspace.models import (
    CIRCLE_CLASS,
    equivariant_model,
    gysin_maps,
    load_model,
    loop_model,
    parse_model,
)

from reference import (
    apply_monomial,
    generator_images_map,
    reference_transfer,
    reference_verify_chain_map,
)

FIXTURES = ("s2.min", "s3.min", "cp2.min", "s2xs3.min")
CUTOFF = 10

INLINE = {
    # s2xs3.min with x rescaled, so the differentials carry proper fractions
    "rescaled": "gen x 2\ngen y 3\ngen z 3\nd y = 3/4*x^2\n",
    # odd generators inside a differential: in the fixtures the only odd
    # factor of any D(g) is the first generator, so every mono_mul sign
    # there is +1; here D(cb) = -2/3*ab*b + 2/3*a*bb moves b past a
    "odd": "gen a 3\ngen b 3\ngen c 5\nd c = 2/3*a*b\n",
}


def _models(name, data_path):
    model = parse_model(INLINE[name]) if name in INLINE else load_model(data_path(name))
    loop = loop_model(model)
    return loop, equivariant_model(loop)


def _one(alg, mono):
    return GradedElement(alg, {mono: 1})


@pytest.mark.parametrize("name", FIXTURES + tuple(INLINE))
def test_derivation_image_matches_leibniz_reference(name, data_path):
    loop, string = _models(name, data_path)
    for deriv in (loop.d, loop.delta, string.d):
        for n in range(CUTOFF + 1):
            for mono in deriv.algebra.basis(n):
                want = apply_monomial(deriv, mono)
                assert deriv.image(mono) == want.terms, (n, mono)
                assert deriv(_one(deriv.algebra, mono)) == want


@pytest.mark.parametrize("name", FIXTURES + tuple(INLINE))
def test_gysin_images_match_element_constructions(name, data_path):
    loop, string = _models(name, data_path)
    restr, mult_u, conn, rot = gysin_maps(loop)
    S, L = string.algebra, loop.algebra
    old_restr = generator_images_map(
        string.complex, loop.complex, {CIRCLE_CLASS: 0}
    )
    u = S.gen(CIRCLE_CLASS)
    for n in range(CUTOFF + 1):
        for mono in S.basis(n):
            assert restr.image(mono) == old_restr.image(mono), (n, mono)
            assert mult_u.image(mono) == (u * _one(S, mono)).terms, (n, mono)
        for mono in L.basis(n):
            old_conn = reference_transfer(loop.delta(_one(L, mono)), S)
            assert conn.image(mono) == old_conn.terms, (n, mono)
            assert rot.image(mono) == loop.delta(_one(L, mono)).terms, (n, mono)


def _negated_rotation(loop, name):
    """The rotation derivation with the value on one generator negated."""
    alg = loop.algebra
    values = {}
    for g in alg.names:
        v = loop.delta(alg.gen(g))
        if v:
            values[g] = -v if g == name else v
    deriv = Derivation(alg, -1, values)
    return ChainMap(loop.complex, loop.complex, deriv.degree, deriv.image)


@pytest.mark.parametrize("name", FIXTURES + tuple(INLINE))
def test_chain_map_check_matches_reference(name, data_path):
    # the library's check against the reference one: the same verdict
    # and, for a broken map, the same first monomial and the same two sides
    loop, string = _models(name, data_path)
    maps = list(gysin_maps(loop))
    for g in string.algebra.names:
        if g != CIRCLE_CLASS:
            images = {CIRCLE_CLASS: 0, g: f"2*{g}"}
            maps.append(generator_images_map(string.complex, loop.complex, images))
    maps += [_negated_rotation(loop, g) for g in loop.algebra.names
             if loop.delta(loop.algebra.gen(g))]
    failures = 0
    for f in maps:
        got = verify_chain_map(f, CUTOFF)
        assert got == reference_verify_chain_map(f, CUTOFF), f.name
        failures += got is not None
    # the differential of s3.min is zero, so each of its maps is a chain map
    assert failures >= 2 or name == "s3.min", failures
