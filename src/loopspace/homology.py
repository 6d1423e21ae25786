"""Cochain complexes over graded algebras and their cohomology.

A complex pairs a free graded-commutative algebra with a degree +1 square-zero
derivation.  Everything downstream is exact rational linear algebra on the
finite graded slices: Betti numbers, deterministic cocycle representatives,
and the matrices that chain maps induce on cohomology.

Derivations and chain maps enter as sparse image functions: a monomial goes
to a {monomial: coefficient} dict (``Derivation.image``, ``ChainMap.image``).
Slices, the chain condition and induced maps are built from those dicts,
accumulated through ``checks.add_into``.  Each image is computed when it is
needed and none is stored, for the peak-memory reason given in ``gca``.  The
slices themselves are cached per degree, and the elimination pass that finds
the cocycles of a degree also records its rank.

Representative convention: the cohomology basis in degree n consists of the
first kernel vectors (in kernel_basis order) that enlarge the span of the
coboundaries.  The choice is deterministic, so report files are stable.
"""

from __future__ import annotations

from fractions import Fraction

from .checks import add_into
from .gca import AlgebraError, GradedElement
from .linalg import MatrixSlice, SpanTracker, column_solver, matrix_rank

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

    def coords(self, terms, n):
        """Coordinate vector over basis(n) of a sparse {monomial:
        coefficient} dict."""
        basis = self.algebra.basis(n)
        index = {m: k for k, m in enumerate(basis)}
        vec = [Fraction(0)] * len(basis)
        for mono, c in terms.items():
            if self.algebra.monomial_degree(mono) != n:
                raise AlgebraError(
                    f"element has a term outside degree {n}: "
                    f"{GradedElement(self.algebra, terms)}"
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
                for m, c in self.diff.image(mono).items():
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
        """Kernel basis of d in degree n; the same elimination pass records
        rank(n)."""
        if self.dim(n) == 0:
            return []
        ech = self.slice(n).echelon()
        self._ranks[n] = ech.rank()
        return ech.kernel_basis()

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
    """A linear map between complexes, given by its sparse image function.

    ``image(mono)`` returns f(mono) as a {monomial: coefficient} dict over
    the target algebra, computed on each call and never stored.
    ``degree`` is the shift: a monomial of degree n maps into degree
    n + degree of the target.  The chain condition is
    d_target(f(m)) = (-1)^degree f(d_source(m)); verify_chain_map checks it.
    """

    def __init__(self, src, tgt, degree, image, name=""):
        self.src = src
        self.tgt = tgt
        self.degree = int(degree)
        self.image = image
        self.name = name

    @classmethod
    def from_derivation(cls, src, tgt, deriv, name=""):
        if deriv.algebra != src.algebra or deriv.algebra != tgt.algebra:
            raise ChainMapError("derivation map: algebra mismatch")
        return cls(src, tgt, deriv.degree, deriv.image, name=name)


def verify_chain_map(f, cutoff):
    """First monomial (degree <= cutoff) where the chain condition fails,
    as (degree, monomial, lhs, rhs) with both sides as elements of the
    target algebra; None when the map is a chain map."""
    sign = -1 if f.degree % 2 else 1
    image, d_src, d_tgt = f.image, f.src.diff.image, f.tgt.diff.image
    for n in range(cutoff + 1):
        for mono in f.src.algebra.basis(n):
            lhs = {}
            for m, c in image(mono).items():
                add_into(lhs, d_tgt(m), c)
            rhs = {}
            for m, c in d_src(mono).items():
                add_into(rhs, image(m), sign * c)
            if lhs != rhs:
                alg = f.tgt.algebra
                return (n, mono, GradedElement(alg, lhs), GradedElement(alg, rhs))
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
    basis = src.algebra.basis(n)
    for j, vec in enumerate(src_reps):
        img = {}
        for mono, c in zip(basis, vec):
            if c:
                add_into(img, f.image(mono), c)
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

