"""Rational models of a simply connected space and of its loop spaces.

A minimal model is a free graded-commutative algebra on generators of degree
at least two with a decomposable degree +1 differential.  From it we build:

- the free-loop model: one extra generator per original one, a degree lower,
  with the rotation operator sending each generator to its new partner and
  the differential extended so that it anticommutes with rotation;
- the based-loop complex: the new generators alone, zero differential;
- the circle-equivariant model: the free-loop generators plus one degree-2
  class, differential d + (degree-2 class) * rotation.

The minimal, free-loop and circle-equivariant models are one Model type,
whose algebra is its differential's.  The barred partner of generator ``z``
is named ``z`` + "b"; the degree-2 class is named "u".  Both names are
reserved and collisions are rejected.  Each larger algebra holds the
smaller one's generators under the same names and degrees, and _mover
carries values into it.  parse_model checks that d squares to zero;
betti_table and validate_model check it again on the complex or model they
are given.  gysin_report takes the loop model, validates it, and builds the
circle-equivariant model from it: all its proof needs.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .checks import (NAME_RE, CheckReport, InputError, LineError, apply_map,
                     content_lines, read_input)
from .gca import Derivation, GradedAlgebra, GradedElement
from .homology import ChainMap, CochainComplex, induced_map

__all__ = [
    "ModelError",
    "ModelFileError",
    "Model",
    "parse_model",
    "load_model",
    "loop_model",
    "based_complex",
    "equivariant_model",
    "validate_model",
    "format_model_report",
    "GysinReport",
    "gysin_maps",
    "gysin_report",
]

BAR_SUFFIX = "b"
CIRCLE_CLASS = "u"


class ModelError(InputError):
    """Model violates a structural requirement."""


class ModelFileError(ModelError, LineError):
    """Model file rejected; carries the offending line number."""


class Model:
    """A degree +1 differential d, its algebra and its cochain complex,
    built once.  A free-loop model also carries its degree -1 rotation
    delta, which is None on the other models."""

    def __init__(self, d, delta=None):
        self.algebra = d.algebra
        self.d = d
        self.delta = delta
        self.complex = CochainComplex(d)


_GEN_LINE = re.compile(r"^gen\s+(\S+)\s+(-?\d+)$")
_D_LINE = re.compile(r"^d\s+(\S+)\s*=\s*(.+)$")


def parse_model(text):
    """Parse a model file into a minimal Model.

    Format: one declaration per line.  ``gen <name> <degree>`` introduces a
    generator; ``d <name> = <element>`` sets its differential (omitted means
    zero).  ``#`` starts a comment.  Differentials may only use generators
    already declared somewhere in the file.  A generator with an invalid
    name or below degree 2, and a differential that does not parse or is
    off its degree, are rejected on their line.  A differential that does
    not square to zero on some generator
    (CochainComplex.check_differential on the model's complex) raises
    ModelError.
    """
    gens = []
    seen = set()
    d_lines = []
    for lineno, line in content_lines(text):
        m = _GEN_LINE.match(line)
        if m:
            try:
                name, deg = m.group(1), int(m.group(2))
            except ValueError as e:  # an int past the digit limit
                raise ModelFileError(lineno, str(e)) from None
            if name in seen:
                raise ModelFileError(lineno, f"duplicate generator {name!r}")
            if deg < 2:
                raise ModelFileError(
                    lineno,
                    f"generator {name!r} has degree {deg}; "
                    "generators must have degree 2 or higher",
                )
            if not NAME_RE.fullmatch(name):
                raise ModelFileError(lineno, f"invalid generator name {name!r}")
            seen.add(name)
            gens.append((name, deg))
            continue
        m = _D_LINE.match(line)
        if m:
            d_lines.append((lineno, m.group(1), m.group(2)))
            continue
        raise ModelFileError(lineno, f"unrecognized declaration: {line!r}")

    algebra = GradedAlgebra(gens)
    diffs = {}
    for lineno, name, expr in d_lines:
        if name not in seen:
            raise ModelFileError(lineno, f"differential for unknown generator {name!r}")
        if name in diffs:
            raise ModelFileError(lineno, f"duplicate differential for {name!r}")
        try:
            diffs[name] = algebra.parse(expr)
            Derivation(algebra, 1, {name: diffs[name]})  # checks its degree
        except ValueError as e:  # an InputError, or an int past the digit limit
            raise ModelFileError(lineno, str(e)) from e
    model = Model(Derivation(algebra, 1, diffs))
    bad = model.complex.check_differential()
    if bad is not None:
        raise ModelError(bad)
    return model


def load_model(path):
    return parse_model(read_input(path))


def _bar_name(name):
    return name + BAR_SUFFIX


def _mover(src, tgt):
    """The map re-indexing {monomial: coefficient} dicts of algebra src
    into tgt, which holds src's generators under the same names and
    degrees.  Both order their generators by (degree, name), so a moved
    monomial keeps its factor order and needs no sort and no sign."""
    to = [tgt.index(n) for n in src.names]
    return lambda combo: {tuple((to[g], e) for g, e in m): c for m, c in combo.items()}


def loop_model(model):
    """Model of the free loop space: original and barred generators, the
    extended differential, and the degree -1 rotation operator."""
    base_alg = model.algebra
    bar_names = [_bar_name(n) for n in base_alg.names]
    clash = set(bar_names) & set(base_alg.names)
    if clash:
        raise ModelError(
            f"generator names collide with barred partners: {sorted(clash)}"
        )
    algebra = GradedAlgebra(base_alg.generators
                            + tuple((_bar_name(n), deg - 1) for n, deg in base_alg.generators))

    delta = Derivation(
        algebra, -1, {n: algebra.gen(_bar_name(n)) for n in base_alg.names}
    )
    move = _mover(base_alg, algebra)
    d_values = {}
    for n in base_alg.names:
        val = GradedElement(algebra, move(model.d(base_alg.gen(n)).terms))
        d_values[n] = val
        d_values[_bar_name(n)] = -delta(val)
    return Model(Derivation(algebra, 1, d_values), delta=delta)


def based_complex(model):
    """Complex of the based loop space: barred generators only, zero
    differential."""
    algebra = GradedAlgebra((_bar_name(n), deg - 1) for n, deg in model.algebra.generators)
    return CochainComplex(Derivation(algebra, 1, {}))


def equivariant_model(loop):
    """Circle-equivariant model: loop generators plus the degree-2 class,
    differential d + u * rotation."""
    loop_alg = loop.algebra
    if CIRCLE_CLASS in loop_alg.names:
        raise ModelError(
            f"generator name {CIRCLE_CLASS!r} is reserved for the degree-2 class"
        )
    algebra = GradedAlgebra(loop_alg.generators + ((CIRCLE_CLASS, 2),))
    u, move = algebra.gen(CIRCLE_CLASS), _mover(loop_alg, algebra)
    d_values = {}
    for n in loop_alg.names:
        g = loop_alg.gen(n)
        dval, rval = (GradedElement(algebra, move(f(g).terms)) for f in (loop.d, loop.delta))
        d_values[n] = dval + rval * u
    return Model(Derivation(algebra, 1, d_values))


def _at(witness):
    """A generator-level witness (name, detail...) as report text."""
    if witness is None:
        return None
    name, *detail = witness
    return f"at {name} -> {'; '.join(str(x) for x in detail)}"


def validate_model(model):
    """Run the structural checks on a Model: d, and its rotation delta when
    it has one.

    Returns a CheckReport whose witnesses read ``at <generator> -> <detail>``.
    Checks are complete: on a free algebra an operator identity holds
    everywhere once it holds on every generator.
    """
    rep = CheckReport()
    d, delta = model.d, model.delta

    rep.add("differential respects degrees", _at(d.check_degrees()))
    if delta is not None:
        rep.add("rotation respects degrees", _at(delta.check_degrees()))
    if not rep.ok:
        return rep

    walk = model.algebra.first_nonzero
    rep.add("d squares to zero", _at(walk(lambda g: d(d(g)))))
    if delta is not None:
        rep.add("rotation squares to zero", _at(walk(lambda g: delta(delta(g)))))
        rep.add("d anticommutes with rotation",
                _at(walk(lambda g: d(delta(g)) + delta(d(g)))))
    return rep


def format_model_report(model, rep):
    """Deterministic listing, one line at a time: generators, nonzero
    differentials, nonzero rotation values, then the validation report."""
    alg = model.algebra
    yield from (f"gen {n} {deg}\n" for n, deg in alg.generators)
    for n in alg.names:
        v = model.d(alg.gen(n))
        if v:
            yield f"d {n} = {v}\n"
    if model.delta is not None:
        for n in alg.names:
            v = model.delta(alg.gen(n))
            if v:
                yield f"delta {n} = {v}\n"
    yield from rep.pieces()


class GysinReport(namedtuple("GysinReport", "cutoff rows factor_rotation factor_zero")):
    """Rank table of the long exact sequence linking the equivariant and
    free-loop models, plus the two factorization verdicts.  rows holds
    (degree, h_string, h_loop, rank_u, rank_restr, rank_conn, exact)."""

    __slots__ = ()

    @property
    def ok(self):
        return (
            all(r[6] for r in self.rows)
            and all(self.factor_rotation)
            and all(self.factor_zero)
        )

    def pieces(self):
        out = [
            f"# long exact sequence report, degrees 0..{self.cutoff}",
            "# columns: degree, dim H(string), dim H(loop), rank of multiplication "
            "by the degree-2 class into this degree, rank of restriction, rank of "
            "the connecting map out of this degree, exactness verdict",
            "# dictionary: restriction (degree-2 class set to zero) realizes "
            "erasing the marked point, degree i -> i",
            "# dictionary: the connecting map realizes marking in all ways, "
            "degree i -> i-1; it sends the class of z to the class of rotation(z), "
            "with no extra sign",
            "# dictionary: multiplication by the degree-2 class realizes the "
            "euler-class cap, degree i-2 -> i",
            "# parity statements about even/odd dimensions are read on these "
            "cohomological degrees",
            "# degree\thString\thLoop\trank_u\trank_restr\trank_conn\texact",
        ]
        for row in self.rows:
            out.append(
                "\t".join(str(x) for x in row[:6])
                + "\t"
                + ("true" if row[6] else "false")
            )
        out.append(
            "# factorization: restriction after connecting equals the "
            "rotation-induced map: "
            + ("pass" if all(self.factor_rotation) else "FAIL")
        )
        out.append(
            "# factorization: connecting after restriction vanishes: "
            + ("pass" if all(self.factor_zero) else "FAIL")
        )
        return (line + "\n" for line in out)


def gysin_maps(loop):
    """The chain maps of the sequence between the loop model and the
    string model, equivariant_model(loop), built here once, as sparse
    images: restriction (string -> loop), multiplication by the degree-2
    class (string -> string), the connecting map (loop -> string) and the
    rotation (loop -> loop).  The connecting map is the rotation moved
    into the string algebra by _mover; restriction also drops u, so it
    re-indexes on its own."""
    S, L = equivariant_model(loop).complex, loop.complex
    ui = S.algebra.index(CIRCLE_CLASS)
    to_l = {i: L.algebra.index(n) for i, n in enumerate(S.algebra.names) if i != ui}
    u, move = ((ui, 1),), _mover(L.algebra, S.algebra)

    def restrict(mono):
        if any(g == ui for g, _ in mono):
            return {}
        return {tuple((to_l[g], e) for g, e in mono): 1}

    def times_u(mono):
        prod, sign = S.algebra.mono_mul(u, mono)
        return {prod: sign}

    return (
        ChainMap(S, L, 0, restrict, name="restriction"),
        ChainMap(S, S, 2, times_u, name="multiplication by the degree-2 class"),
        ChainMap(L, S, -1, lambda m: move(loop.delta.image(m)), name="connecting map"),
        ChainMap(L, L, -1, loop.delta.image, name="rotation"),
    )


def _after(outer, inner):
    """Sparse columns of the composite outer after inner of two induced
    maps, one per source representative of inner."""
    return [apply_map(outer.columns.__getitem__, col) for col in inner.columns]


def _vanishes(outer, inner):
    return not any(_after(outer, inner))


def gysin_report(loop, cutoff):
    """Exactness and factorization report for the sequence

        ... -> H^{i-2}(string) -> H^i(string) -> H^i(loop) -> H^{i-1}(string) -> ...

    built from multiplication by the degree-2 class, restriction, and the
    connecting map.  Row i is exact when the sequence is exact at H^i(string),
    H^i(loop) and H^{i-1}(string): the rank counts add up at all three, and
    the three composites through them vanish.  The induced maps read
    cohomology through degree cutoff + 1, so no slice above it is built.
    Multiplication by the degree-2 class is induced from source degree -2
    and restriction from -1, where both are zero maps out of zero spaces,
    so every row and both factorizations read one formula.

    validate_model runs on the loop model, and a model that fails raises
    before any map is built.  gysin_maps builds the string model from it,
    so its differential D is d + u*rotation on generators by construction,
    and D^2 = d^2 + u (d rotation + rotation d) + u^2 rotation^2 is zero.
    The four maps commute with the differentials in every degree, and none
    is checked monomial by monomial: a derivation of a free
    graded-commutative algebra, or one along an algebra map out of it, is
    fixed by its values on generators (Felix-Halperin-Thomas, Rational
    Homotopy Theory, GTM 205, 2001), and the rotation is the free-loop
    model's (Vigue-Poirrier-Burghelea, J. Diff. Geom. 22, 1985).  With r
    the restriction and i the inclusion of the loop algebra:

    - r is an algebra map, and d r and r D are r-derivations that agree on
      generators, as D(u) = 0 and D = d + u rotation there;
    - u is even, central and a D-cycle, so D(u z) = u D(z);
    - d rotation + rotation d, the commutator of two odd derivations, is a
      derivation that validate_model finds zero on generators;
    - D i and i d + u i rotation are i-derivations that agree on
      generators, so D(i rotation x) = i(d rotation x) +
      u i(rotation rotation x) = -i(rotation d x).
    """
    for label, witness in validate_model(loop).failures():
        where = witness.partition(" -> ")[0]
        raise ModelError(f"loop model: {label} fails {where}")
    restr, mult_u, conn, rot = gysin_maps(loop)
    S, L = restr.src, restr.tgt

    def induced(f, degrees):
        return {i: induced_map(f, i) for i in degrees}

    restr_at = induced(restr, range(-1, cutoff + 2))
    mult_at = induced(mult_u, range(-2, cutoff))
    conn_at = induced(conn, range(cutoff + 1))
    rot_at = induced(rot, range(cutoff + 1))

    rows = []
    factor_rotation = []
    factor_zero = []
    for i in range(cutoff + 1):
        h_s, h_l = S.betti(i), L.betti(i)
        u_in, u_out = mult_at[i - 2], mult_at[i - 1]
        restr_i, conn_i = restr_at[i], conn_at[i]
        factor_zero.append(_vanishes(conn_i, restr_i))
        exact = (
            u_in.rank + restr_i.rank == h_s
            and restr_i.rank + conn_i.rank == h_l
            and conn_i.rank + u_out.rank == S.betti(i - 1)
            and factor_zero[-1]
            and _vanishes(restr_i, u_in)
            and _vanishes(u_out, conn_i)
        )
        rows.append((i, h_s, h_l, u_in.rank, restr_i.rank, conn_i.rank, exact))
        factor_rotation.append(_after(restr_at[i - 1], conn_i) == rot_at[i].columns)

    return GysinReport(cutoff, rows, factor_rotation, factor_zero)
