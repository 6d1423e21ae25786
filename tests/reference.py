"""Reference constructions kept for the tests.

The library applies derivations and chain maps through sparse
{monomial: coefficient} image functions.  The helpers here build the same
things the slow, obvious way, through GradedElement arithmetic, so the
tests can compare the two; they also hold the chain-map combinators that
only tests use.
"""

from fractions import Fraction

from loopspace.gca import GradedElement
from loopspace.homology import ChainMap, ChainMapError


def apply_monomial(deriv, mono):
    """D(mono) by the Leibniz rule written out factor by factor:
    prefix * (sign * e * D(g)) * g^(e-1) * rest, summed over the factors."""
    alg = deriv.algebra
    out = alg.zero()
    prefix_parity = 0
    d_parity = deriv.degree % 2
    for t, (g, e) in enumerate(mono):
        val = deriv._values.get(g)
        if val is not None:
            prefix = mono[:t]
            rest = list(mono[t + 1:])
            if e > 1:
                rest.insert(0, (g, e - 1))
            sign = -1 if (d_parity and prefix_parity % 2) else 1
            term = GradedElement(alg, {prefix: Fraction(sign * e)})
            term = term * val
            term = term * GradedElement(alg, {tuple(rest): Fraction(1)})
            out = out + term
        prefix_parity += alg.degrees[g] * e
    return out


def apply_map(f, elt):
    """The chain map f on an element of its source algebra."""
    out = {}
    for mono, c in elt.terms.items():
        for m, v in f.image(mono).items():
            out[m] = out.get(m, 0) + c * v
    return GradedElement(f.tgt.algebra, out)


def generator_images_map(src, tgt, images, name=""):
    """The degree-0 algebra map sending each generator to the given target
    element; generators not listed map to their namesakes.  Each monomial's
    image is the GradedElement product of its generators' images."""
    src_alg, tgt_alg = src.algebra, tgt.algebra
    table = {}
    for i, gname in enumerate(src_alg.names):
        v = images.get(gname)
        if v is None:
            v = tgt_alg.gen(gname)
        elif isinstance(v, str):
            v = tgt_alg.parse(v)
        elif not isinstance(v, GradedElement):
            v = tgt_alg.one() * v
        table[i] = v

    def image(mono):
        out = tgt_alg.one()
        for g, e in mono:
            for _ in range(e):
                out = out * table[g]
        return out.terms

    return ChainMap(src, tgt, 0, image, name=name)


def identity_map(cx):
    return ChainMap(cx, cx, 0, lambda mono: {mono: Fraction(1)}, name="identity")


def compose(outer, inner):
    """outer after inner."""
    if inner.tgt.algebra != outer.src.algebra:
        raise ChainMapError("composition: inner target does not match outer source")

    def image(mono):
        out = {}
        for m, c in inner.image(mono).items():
            for m2, v in outer.image(m).items():
                out[m2] = out.get(m2, 0) + c * v
        return {m: c for m, c in out.items() if c}

    return ChainMap(
        inner.src, outer.tgt, inner.degree + outer.degree, image,
        name=f"{outer.name or 'map'} after {inner.name or 'map'}",
    )


def element(cx, n, vec):
    """The element of cx with coordinate vector vec over basis(n)."""
    return cx.algebra.element(
        {m: c for m, c in zip(cx.algebra.basis(n), vec) if c}
    )


def span_contains(tracker, vec):
    """Whether vec lies in the span a SpanTracker holds."""
    return not tracker.reduce(vec)
