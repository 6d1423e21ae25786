"""Cochain complexes over graded algebras and their cohomology.

A complex is a degree +1 square-zero derivation of a free graded-commutative
algebra, and reads its algebra from it.  Everything downstream is exact
rational linear algebra on the finite graded slices: Betti numbers,
deterministic cocycle representatives, and the maps that chain maps induce
on cohomology.

Derivations and chain maps enter as sparse image functions: a monomial goes
to a {monomial: coefficient} dict (``Derivation.image``, ``ChainMap.image``).
Every vector is a sparse {index: value} dict over a degree's basis: slice
columns, kernel vectors, representatives and induced-map columns.  No image
is memoised, for the peak-memory reason given in ``gca``: the differential's
images live on only as the slices, which are cached per degree, and the
chain condition is checked one monomial at a time through the image
functions.

Slices and elimination run on ints.  Each complex keeps an int copy of its
differential, d times the lcm of the denominators of d's values
(``Derivation.integral``), and builds its slices from it; scaling d by a
nonzero constant changes no rank, kernel or class, and the complex's own
d, which reports print, is never scaled.

Representative convention: the cohomology basis in degree n consists of the
first kernel vectors that enlarge the span of the coboundaries.  Kernel
vectors are primitive int vectors, one per free column in order
(MatrixSlice.kernel), each a positive multiple of the reduced row echelon
one; no report depends on those scales, as ranks and vanishing composites
do not, and the rotation check compares maps in the same bases.  One
elimination per degree chooses them and gives class coordinates: the
coboundaries enter untagged and each accepted cocycle j tagged in column
dim + j, so reducing a cocycle leaves minus its class in the tag columns,
times the multiplier that the reduction reports.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .checks import InputError, apply_map, ksign
from .gca import GradedElement
from .linalg import MatrixSlice, SpanTracker

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
    "format_betti_table",
]


class ComplexError(InputError):
    """Differential fails a structural requirement (degree or square)."""


class ChainMapError(InputError):
    """Map does not commute with the differentials as its degree requires."""


class CochainComplex:
    """A degree +1 differential derivation and its graded algebra, which is
    the differential's own."""

    def __init__(self, diff):
        if diff.degree != 1:
            raise ComplexError(f"differential must have degree +1, got {diff.degree}")
        self.algebra = diff.algebra
        self.diff = diff
        self._scaled = diff.integral()
        self._slices = {}
        self._ranks = {}
        self._cohomology = {}   # n -> (tagged SpanTracker, representatives)

    def check_differential(self):
        """The error line naming the first generator on which d(d(g)) is
        nonzero, or None when d squares to zero."""
        bad = self.algebra.first_nonzero(lambda g: self.diff(self.diff(g)))
        if bad is None:
            return None
        name, val = bad
        return f"differential does not square to zero at {name!r}: d(d({name})) = {val}"

    def dim(self, n):
        return len(self.algebra.basis(n))

    def slice(self, n):
        """Matrix of the int copy of d from degree n to degree n+1."""
        if n not in self._slices:
            src, tgt = self.algebra.basis(n), self.algebra.basis(n + 1)
            index = {m: k for k, m in enumerate(tgt)}
            entries = {}
            for j, mono in enumerate(src):
                for m, c in self._scaled.image(mono).items():
                    entries[(index[m], j)] = c
            self._slices[n] = MatrixSlice(len(tgt), len(src), entries)
        return self._slices[n]

    def rank(self, n):
        if n not in self._ranks:
            self._ranks[n] = self.slice(n).rank() if self.dim(n) else 0
        return self._ranks[n]

    def betti(self, n):
        return self.dim(n) - self.rank(n) - self.rank(n - 1)

    def cocycles(self, n):
        """Kernel basis of d in degree n; the same pass records rank(n)."""
        if self.dim(n) == 0:
            return []
        self._ranks[n], kernel = self.slice(n).kernel()
        return kernel

    def boundary_columns(self, n):
        """Images of the degree n-1 basis under d, nonzero columns only,
        as sparse {index: value} dicts over basis(n)."""
        if self.dim(n) == 0:
            return []
        return [col for col in self.slice(n - 1).column_vectors() if col]

    def cohomology(self, n):
        """Deterministic cocycle representatives of H^n, as sparse vectors
        over basis(n).  The elimination that chose them is kept beside
        them for class_of: cocycle j entered it tagged at dim(n) + j."""
        if n not in self._cohomology:
            dim = self.dim(n)
            tracker = SpanTracker(dim)
            for col in self.boundary_columns(n):
                tracker.add(col)
            reps = []
            for v in self.cocycles(n):
                if tracker.add({**v, dim + len(reps): 1}):
                    reps.append(v)
            assert len(reps) == self.betti(n)
            self._cohomology[n] = (tracker, reps)
        return self._cohomology[n][1]

    def class_of(self, n, vec):
        """Class of a sparse vector over basis(n), as sparse coordinates
        over the representatives of H^n; None when vec is no cocycle."""
        self.cohomology(n)
        tracker = self._cohomology[n][0]
        rem, m = tracker.reduce(vec)
        if any(c < tracker.dim for c in rem):
            return None
        return {c - tracker.dim: Fraction(-x, m) for c, x in rem.items()}


class BettiTable(list):
    """Betti numbers b_0..b_cutoff.  A list; ``values`` is a copy of it,
    kept for the benchmark input generator's self-test."""

    values = property(list)


def betti_table(cx, cutoff):
    """Betti numbers b_0..b_cutoff; fails fast when d does not square to
    zero on some generator."""
    bad = cx.check_differential()
    if bad is not None:
        raise ComplexError(bad)
    return BettiTable(cx.betti(i) for i in range(cutoff + 1))


# A linear map between complexes, given by its sparse image function:
# image(mono) returns f(mono) as a {monomial: coefficient} dict over the
# target algebra, computed on each call and never stored.  degree is the
# shift: a monomial of degree n maps into degree n + degree of the target.
# The chain condition is d_target(f(m)) = (-1)^degree f(d_source(m));
# verify_chain_map checks it.
ChainMap = namedtuple("ChainMap", "src tgt degree image name", defaults=("",))


def _in_degree(f, n, ok):
    """Raise unless ok says an image of f from degree n lies in degree n + f.degree."""
    if not ok:
        raise ChainMapError(
            f"{f.name or 'map'}: image of a degree-{n} monomial has a "
            f"term outside degree {n + f.degree}"
        )


def _indexed(f, n, img, index):
    """An image of f from degree n, as a sparse column over index's basis."""
    _in_degree(f, n, img.keys() <= index.keys())
    return {index[m]: c for m, c in img.items()}


def verify_chain_map(f, cutoff):
    """First monomial m (degree <= cutoff), in basis order, where d_tgt(f(m))
    differs from (-1)^degree f(d_src(m)), as (degree, m, lhs, rhs) with both
    sides as elements of the target algebra; None when the map is a chain
    map.  Each image of f is checked to lie in its degree as it is read.
    """
    sign, alg = ksign(f.degree), f.tgt.algebra

    def image(mono, n):
        img = f.image(mono)
        _in_degree(f, n, all(alg.monomial_degree(m) == n + f.degree for m in img))
        return img

    for n in range(cutoff + 1):
        for mono in f.src.algebra.basis(n):
            lhs = apply_map(f.tgt.diff.image, image(mono, n))
            rhs = apply_map(lambda m: image(m, n + 1), f.src.diff.image(mono), scale=sign)
            if lhs != rhs:
                return (n, mono, GradedElement(alg, lhs), GradedElement(alg, rhs))
    return None


# Induced map on cohomology in one source degree: its rank, and one sparse
# column over the target representatives per source representative.
MapDegreeReport = namedtuple("MapDegreeReport", "rank columns")


def induced_map(f, n):
    """The map induced on cohomology by the chain map f from source degree
    n: the class of f on each source representative, as a sparse column
    over the target representatives."""
    src, tgt = f.src, f.tgt
    t = n + f.degree
    basis = src.algebra.basis(n)
    index = {m: i for i, m in enumerate(tgt.algebra.basis(t))}
    columns = []
    span = SpanTracker(len(tgt.cohomology(t)))
    for vec in src.cohomology(n):
        img = apply_map(lambda k: f.image(basis[k]), vec)
        col = tgt.class_of(t, _indexed(f, n, img, index))
        if col is None:
            raise ChainMapError(
                f"{f.name or 'map'}: image of a degree-{n} cocycle is not a cocycle"
            )
        columns.append(col)
        span.add(col)
    return MapDegreeReport(span.rank(), columns)


def format_betti_table(table):
    return (f"{i}\t{b}\n" for i, b in enumerate(table))

