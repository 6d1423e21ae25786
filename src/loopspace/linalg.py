"""Exact linear algebra over the rationals, run on ints.

One sparse echelon engine, SpanTracker, does all the elimination.  Its rows
are primitive {col: int} dicts (entries of gcd 1, leading entry positive),
keyed by their lead column.  A vector enters as an int dict, times the lcm
of its denominators, and is reduced fraction-free (Bareiss, Math. Comp. 22,
1968) against the rows in ascending lead order, so its remainder is zero
in every lead column; a nonzero remainder becomes a new row.  The
differential slices are about 1% dense, so the work follows the nonzero
entries, never the full rows x cols grid (sparse exact rank as in
Dumas-Villard, "Computing the rank of sparse matrices", CASC 2002).
Division happens once, at the edges: reduce returns the multiplier it put
on its vector, and kernel_basis and solve_coords return Fractions.

matrix_rank, kernel_basis and solve_coords are short functions over the
engine.  Their results do not depend on how the engine stores its rows, so
representative choices downstream never depend on insertion or dict order:
kernel_basis back-substitutes to the unique reduced row echelon form, and
solve_coords inserts columns greedily in order, which accepts exactly the
leftmost independent ones, and sets every other coordinate to zero.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

__all__ = [
    "MatrixSlice",
    "matrix_rank",
    "kernel_basis",
    "solve_coords",
    "SpanTracker",
]


def _ints(vec):
    """(v, m): a dense sequence or sparse dict times the lcm m of its
    denominators, as an {index: int} dict with zeros dropped."""
    items = vec.items() if isinstance(vec, dict) else list(enumerate(vec))
    m = lcm(*{x.denominator for _, x in items})
    if m == 1:      # the common case, and twice as fast
        return {j: x.numerator for j, x in items if x}, m
    return {j: x.numerator * (m // x.denominator) for j, x in items if x}, m


def _subtract(v, x, row, lead):
    """Clear v's entry x in column lead, already popped, with the row that
    leads there: v becomes a*v - b*row in place, for g = gcd(row[lead], x),
    a = row[lead]/g and b = x/g.  Returns a, the positive multiplier put
    on v, and the columns that entered v."""
    g = gcd(row[lead], x)
    a, b = row[lead] // g, x // g
    if a != 1:
        for k in v:
            v[k] *= a
    fresh = []
    for k, y in row.items():
        if k != lead:
            if k not in v:
                fresh.append(k)
            y = v.get(k, 0) - b * y
            if y:
                v[k] = y
            else:
                del v[k]
    return a, fresh


class MatrixSlice:
    """A rows x cols rational matrix of sparse entries, kept as given."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows, self.ncols = nrows, ncols
        self.entries = {(i, j): v for (i, j), v in (entries or {}).items() if v}
        for i, j in self.entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")

    def row_vectors(self):
        """The rows as sparse {col: value} dicts."""
        rows = [{} for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def column_vectors(self):
        """The columns as sparse {row: value} dicts."""
        cols = [{} for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def echelon(self):
        """A SpanTracker over the rows: one elimination pass."""
        return _echelon(self.ncols, self.row_vectors())

    def rank(self):
        return self.echelon().rank()

    def __repr__(self):
        return f"MatrixSlice({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


class SpanTracker:
    """Incrementally maintained echelon basis of a growing span.

    Vectors are dense sequences or sparse {index: value} dicts of ints or
    Fractions.  Indices at or past dim never lead a row; callers tag their
    inputs there to record which inputs each row combines.  add() reports
    whether the vector enlarged the span, which depends only on the span.
    """

    def __init__(self, dim):
        self.dim = dim
        self._rows = {}       # lead column -> primitive int row, row[lead] > 0

    def rank(self):
        return len(self._rows)

    def reduce(self, vec):
        """(r, m): m * vec minus a combination of the rows, as an int dict
        zero in every lead column, and the positive int m; the exact
        remainder of vec is r / m."""
        v, m = _ints(vec)
        rows = self._rows
        heap = [c for c in v if c in rows]
        heapify(heap)
        while heap:
            lead = heappop(heap)
            x = v.pop(lead, None)
            if x is None:     # cancelled since it was queued
                continue
            a, fresh = _subtract(v, x, rows[lead], lead)
            m *= a
            for k in fresh:
                if k in rows:
                    heappush(heap, k)
        return v, m

    def add(self, vec):
        v, _ = self.reduce(vec)
        lead = min(v, default=self.dim)
        if lead >= self.dim:
            return False
        g = gcd(*v.values()) * (1 if v[lead] > 0 else -1)
        self._rows[lead] = v if g == 1 else {k: x // g for k, x in v.items()}
        return True

    def reduced_rows(self):
        """Back-substitute to the reduced row echelon form of the span, up
        to a positive scale per row: {lead: primitive row}, each row zero in
        every other lead column."""
        rows = self._rows
        for lead in sorted(rows, reverse=True):
            row = rows[lead]
            # rows with larger leads are already reduced, so clearing one
            # lead column never refills another
            cols = [c for c in row if c != lead and c in rows]
            for c in cols:
                _subtract(row, row.pop(c), rows[c], c)
            if cols:
                g = gcd(*row.values())
                rows[lead] = {k: x // g for k, x in row.items()}
        return rows

    def kernel_basis(self):
        """kernel_basis of the rows added so far, over columns 0..dim-1:
        {free: 1, lead: -x/p, ...}, where a reduced row has x in the free
        column and p in its lead."""
        ech = self.reduced_rows()
        basis = {free: {free: Fraction(1)} for free in range(self.dim) if free not in ech}
        for lead, row in ech.items():
            for c, x in row.items():
                if c != lead:
                    basis[c][lead] = Fraction(-x, row[lead])
        return list(basis.values())


def _echelon(dim, vectors):
    tracker = SpanTracker(dim)
    for vec in vectors:
        tracker.add(vec)
    return tracker


def matrix_rank(rows):
    """Rank of a matrix given as a list of equal-length rows."""
    return _echelon(len(rows[0]), rows).rank() if rows else 0


def kernel_basis(rows, ncols):
    """Basis of the right kernel of dense or sparse rows, one sparse vector
    per free column in ascending order, with a 1 there and zeros in the
    other free columns, which pins the representative choice."""
    return _echelon(ncols, rows).kernel_basis()


def solve_coords(columns, target):
    """Coordinates of target in the span of the given column vectors, as
    a list of Fractions (free coordinates zero); None outside the span."""
    dim = len(target)
    tracker = SpanTracker(dim)
    for j, col in enumerate(columns):
        v, m = _ints(col)
        v[dim + j] = m        # reduction turns this into the row's combination
        tracker.add(v)
    rem, m = tracker.reduce(target)
    if any(c < dim for c in rem):
        return None
    return [Fraction(-rem.get(dim + j, 0), m) for j in range(len(columns))]
