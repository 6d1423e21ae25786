"""Cochain complexes over graded algebras and their cohomology.

A complex pairs a free graded-commutative algebra with a degree +1 square-zero
derivation.  Everything downstream is exact rational linear algebra on the
finite graded slices: Betti numbers, deterministic cocycle representatives,
and the matrices that chain maps induce on cohomology.

Representative convention: the cohomology basis in degree n consists of the
first kernel vectors (in kernel_basis order) that enlarge the span of the
coboundaries.  The choice is deterministic, so report files are stable.
"""

from __future__ import annotations

from fractions import Fraction

from .gca import AlgebraError, GradedElement
from .linalg import MatrixSlice, SpanTracker, column_solver, kernel_basis, matrix_rank

__all__ = [
    "ComplexError",
    "ChainMapError",
    "CochainComplex",
    "BettiTable",
    "betti_table",
    "ChainMap",
    "verify_chain_map",
    "MapDegreeReport",
    "induced_map",
    "euler_check",
    "format_betti_table",
]


class ComplexError(ValueError):
    """Differential fails a structural requirement (degree or square)."""


class ChainMapError(ValueError):
    """Map does not commute with the differentials as its degree requires."""


class CochainComplex:
    """A graded algebra with a degree +1 differential derivation."""

    def __init__(self, algebra, diff, name=""):
        if diff.algebra != algebra:
            raise ComplexError("differential lives on a different algebra")
        if diff.degree != 1:
            raise ComplexError(f"differential must have degree +1, got {diff.degree}")
        self.algebra = algebra
        self.diff = diff
        self.name = name
        self._slices = {}
        self._ranks = {}
        self._reps = {}

    def check_differential(self):
        """First generator on which d(d(g)) is nonzero, as (name, d(d(g))),
        or None."""
        return self.algebra.first_nonzero(lambda g: self.diff(self.diff(g)))

    def dim(self, n):
        if n < 0:
            return 0
        return len(self.algebra.basis(n))

    def element(self, n, vec):
        basis = self.algebra.basis(n)
        return self.algebra.element(
            {m: c for m, c in zip(basis, vec) if c}
        )

    def coords(self, elt, n):
        basis = self.algebra.basis(n)
        index = {m: k for k, m in enumerate(basis)}
        vec = [Fraction(0)] * len(basis)
        for mono, c in elt.terms.items():
            if self.algebra.monomial_degree(mono) != n:
                raise AlgebraError(
                    f"element has a term outside degree {n}: {elt}"
                )
            vec[index[mono]] = c
        return vec

    def slice(self, n):
        """Matrix of the differential from degree n to degree n+1."""
        if n not in self._slices:
            src = self.algebra.basis(n) if n >= 0 else []
            tgt = self.algebra.basis(n + 1) if n + 1 >= 0 else []
            index = {m: k for k, m in enumerate(tgt)}
            entries = {}
            for j, mono in enumerate(src):
                img = self.diff(GradedElement(self.algebra, {mono: Fraction(1)}))
                for m, c in img.terms.items():
                    entries[(index[m], j)] = c
            self._slices[n] = MatrixSlice(len(tgt), len(src), entries)
        return self._slices[n]

    def rank(self, n):
        if n not in self._ranks:
            self._ranks[n] = self.slice(n).rank() if self.dim(n) else 0
        return self._ranks[n]

    def betti(self, n):
        if n < 0:
            return 0
        return self.dim(n) - self.rank(n) - (self.rank(n - 1) if n > 0 else 0)

    def cocycles(self, n):
        if self.dim(n) == 0:
            return []
        return kernel_basis(self.slice(n).row_vectors(), self.dim(n))

    def boundary_columns(self, n):
        """Images of the degree n-1 basis under d, nonzero columns only,
        as sparse {index: value} dicts over basis(n)."""
        if n < 1 or self.dim(n) == 0:
            return []
        return [col for col in self.slice(n - 1).column_vectors() if col]

    def cohomology(self, n):
        """Deterministic cocycle representatives of H^n, as coordinate
        vectors over basis(n)."""
        if n not in self._reps:
            tracker = SpanTracker(self.dim(n))
            for col in self.boundary_columns(n):
                tracker.add(col)
            reps = [v for v in self.cocycles(n) if tracker.add(v)]
            assert len(reps) == self.betti(n)
            self._reps[n] = reps
        return self._reps[n]


class BettiTable:
    """Betti numbers of a complex through a degree cutoff."""

    def __init__(self, cutoff, values):
        self.cutoff = cutoff
        self.values = list(values)

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        if isinstance(other, BettiTable):
            return self.cutoff == other.cutoff and self.values == other.values
        return self.values == list(other)

    def __repr__(self):
        return f"BettiTable({self.values})"


def betti_table(cx, cutoff):
    """Betti numbers b_0..b_cutoff; fails fast when d does not square to
    zero on some generator."""
    bad = cx.check_differential()
    if bad is not None:
        name, val = bad
        raise ComplexError(f"differential does not square to zero at {name!r}: d(d({name})) = {val}")
    return BettiTable(cutoff, [cx.betti(i) for i in range(cutoff + 1)])


def euler_check(cx, cutoff):
    """Truncated Euler identity.

    Sum (-1)^i b_i over i <= N telescopes against the dimension counts,
    leaving one boundary rank: it equals
    Sum (-1)^i dim_i  -  (-1)^N rank(d at N).
    """
    lhs = sum((-1) ** i * cx.betti(i) for i in range(cutoff + 1))
    rhs = sum((-1) ** i * cx.dim(i) for i in range(cutoff + 1))
    rhs -= (-1) ** cutoff * cx.rank(cutoff)
    return lhs == rhs


class ChainMap:
    """A linear map between complexes, defined monomial by monomial.

    ``degree`` is the shift: a monomial of degree n maps into degree
    n + degree of the target.  The chain condition is
    d_target(f(m)) = (-1)^degree f(d_source(m)); verify_chain_map checks it.
    """

    def __init__(self, src, tgt, degree, fn, name=""):
        self.src = src
        self.tgt = tgt
        self.degree = int(degree)
        self._fn = fn
        self.name = name

    def __call__(self, elt):
        if elt.algebra != self.src.algebra:
            raise ChainMapError(f"{self.name or 'map'}: element not in the source algebra")
        out = self.tgt.algebra.zero()
        for mono, c in elt.terms.items():
            out = out + c * self._fn(mono)
        return out

    def compose(self, inner):
        """self after inner."""
        if inner.tgt is not self.src and inner.tgt.algebra != self.src.algebra:
            raise ChainMapError("composition: inner target does not match outer source")
        outer = self

        def fn(mono):
            mid = inner._fn(mono)
            return outer(mid)

        return ChainMap(
            inner.src, outer.tgt, inner.degree + outer.degree, fn,
            name=f"{outer.name or 'map'} after {inner.name or 'map'}",
        )

    @classmethod
    def identity(cls, cx):
        def fn(mono):
            return GradedElement(cx.algebra, {mono: Fraction(1)})

        return cls(cx, cx, 0, fn, name="identity")

    @classmethod
    def from_derivation(cls, src, tgt, deriv, name=""):
        if deriv.algebra != src.algebra or deriv.algebra != tgt.algebra:
            raise ChainMapError("derivation map: algebra mismatch")

        def fn(mono):
            return deriv(GradedElement(src.algebra, {mono: Fraction(1)}))

        return cls(src, tgt, deriv.degree, fn, name=name)

    @classmethod
    def from_generator_images(cls, src, tgt, images, name=""):
        """The degree-0 algebra map sending each generator to the given
        target element; generators not listed map to their namesakes."""
        src_alg, tgt_alg = src.algebra, tgt.algebra
        table = {}
        for i, gname in enumerate(src_alg.names):
            if gname in images:
                v = images[gname]
                if isinstance(v, str):
                    v = tgt_alg.parse(v)
            else:
                v = tgt_alg.gen(gname)
            if v and v.degrees() != [src_alg.degrees[i]]:
                raise ChainMapError(
                    f"image of {gname!r} must be homogeneous of degree {src_alg.degrees[i]}"
                )
            table[i] = v
        cache = {}

        def fn(mono):
            out = tgt_alg.one()
            for g, e in mono:
                base = table[g]
                key = (g, e)
                if key not in cache:
                    p = tgt_alg.one()
                    for _ in range(e):
                        p = p * base
                    cache[key] = p
                out = out * cache[key]
            return out

        return cls(src, tgt, 0, fn, name=name)


def verify_chain_map(f, cutoff):
    """First monomial (degree <= cutoff) where the chain condition fails,
    as (degree, monomial, lhs, rhs); None when the map is a chain map."""
    sign = -1 if f.degree % 2 else 1
    for n in range(cutoff + 1):
        for mono in f.src.algebra.basis(n):
            m = GradedElement(f.src.algebra, {mono: Fraction(1)})
            lhs = f.tgt.diff(f(m))
            rhs = sign * f(f.src.diff(m))
            if lhs != rhs:
                return (n, mono, lhs, rhs)
    return None


class MapDegreeReport:
    """Induced map on cohomology in one source degree."""

    __slots__ = ("degree", "src_betti", "tgt_betti", "rank", "matrix")

    def __init__(self, degree, src_betti, tgt_betti, rank, matrix):
        self.degree = degree
        self.src_betti = src_betti
        self.tgt_betti = tgt_betti
        self.rank = rank
        self.matrix = matrix

    def __repr__(self):
        return (
            f"MapDegreeReport(degree={self.degree}, src={self.src_betti}, "
            f"tgt={self.tgt_betti}, rank={self.rank})"
        )


def induced_map(f, n):
    """Matrix of the map induced on cohomology by the chain map f, from
    source degree n; rows index target representatives, columns source
    representatives."""
    src, tgt = f.src, f.tgt
    t = n + f.degree
    src_reps = src.cohomology(n)
    tgt_reps = tgt.cohomology(t) if t >= 0 else []
    solve = column_solver(tgt_reps + tgt.boundary_columns(t), tgt.dim(t))
    mat = [[Fraction(0)] * len(src_reps) for _ in range(len(tgt_reps))]
    for j, vec in enumerate(src_reps):
        img = f(src.element(n, vec))
        if t < 0:
            if img:
                raise ChainMapError(
                    f"{f.name or 'map'}: image in negative degree is nonzero"
                )
            continue
        coords = solve(tgt.coords(img, t))
        if coords is None:
            raise ChainMapError(
                f"{f.name or 'map'}: image of a degree-{n} cocycle is not a cocycle"
            )
        for i in range(len(tgt_reps)):
            mat[i][j] = coords[i]
    rank = matrix_rank(mat) if mat and mat[0] else 0
    return MapDegreeReport(n, len(src_reps), len(tgt_reps), rank, mat)


def format_betti_table(table):
    return "".join(f"{i}\t{b}\n" for i, b in enumerate(table.values))

