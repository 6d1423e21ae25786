"""Exact linear algebra over the rationals.

One sparse echelon engine, SpanTracker, does all the elimination.  Its rows
are {col: Fraction} dicts, each with a leading 1, keyed by that lead
column.  A vector is reduced against the rows in ascending lead order, so
its remainder is zero in every lead column; a nonzero remainder becomes a
new row.  The differential slices are about 1% dense, so the work follows
the nonzero entries, never the full rows x cols grid (sparse exact rank as
in Dumas-Villard, "Computing the rank of sparse matrices", CASC 2002).

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

__all__ = [
    "MatrixSlice",
    "matrix_rank",
    "kernel_basis",
    "solve_coords",
    "SpanTracker",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sparse(vec):
    """{index: Fraction} copy of a dense sequence or a sparse dict, zeros
    dropped; values that already are Fractions are kept, not rebuilt."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {j: v if isinstance(v, Fraction) else Fraction(v) for j, v in items if v}


class MatrixSlice:
    """A rows x cols rational matrix with sparse entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        for (i, j), v in (entries or {}).items():
            v = v if isinstance(v, Fraction) else Fraction(v)
            if v:
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                self.entries[(i, j)] = v

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

    Vectors are dense sequences or sparse {index: value} dicts.  Indices at
    or past dim are carried along but never lead a row; callers tag their
    inputs there to record which inputs each row combines.

    add() reports whether the vector enlarged the span; the answer depends
    only on the span, so feeding candidate vectors in a fixed order always
    selects the same independent subset.
    """

    def __init__(self, dim):
        self.dim = dim
        self._rows = {}       # lead column -> row, with row[lead] == 1

    def rank(self):
        return len(self._rows)

    def reduce(self, vec):
        """Sparse remainder of vec, zero in every lead column."""
        v = _sparse(vec)
        rows = self._rows
        heap = [c for c in v if c in rows]
        heapify(heap)
        while heap:
            lead = heappop(heap)
            f = v.pop(lead, None)
            if f is None:     # cancelled since it was queued
                continue
            for k, x in rows[lead].items():
                if k == lead:
                    continue
                old = v.get(k)
                if old is None:
                    v[k] = -f * x
                    if k in rows:
                        heappush(heap, k)
                else:
                    y = old - f * x
                    if y:
                        v[k] = y
                    else:
                        del v[k]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        if not v:
            return False
        lead = min(v)
        if lead >= self.dim:
            return False
        p = v[lead]
        if p != 1:
            v = {k: x / p for k, x in v.items()}
        self._rows[lead] = v
        return True

    def reduced_rows(self):
        """Back-substitute to the unique reduced row echelon form of the
        span: {lead: row}, each row zero in every other lead column."""
        rows = self._rows
        for lead in sorted(rows, reverse=True):
            row = rows[lead]
            # rows with larger leads are already reduced, so clearing one
            # lead column never refills another
            for c in [c for c in row if c != lead and c in rows]:
                f = row.pop(c)
                for k, x in rows[c].items():
                    if k != c:
                        y = row.get(k, _ZERO) - f * x
                        if y:
                            row[k] = y
                        else:
                            row.pop(k, None)
        return rows

    def kernel_basis(self):
        """kernel_basis of the rows added so far, over columns 0..dim-1,
        as sparse vectors {free: 1, lead: -x, ...} read off the reduced
        row echelon form."""
        ech = self.reduced_rows()
        basis = {free: {free: _ONE} for free in range(self.dim) if free not in ech}
        for lead, row in ech.items():
            for c, x in row.items():
                if c != lead:
                    basis[c][lead] = -x
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
    """Basis of the right kernel, one sparse {index: value} vector per free
    column.

    Rows are dense sequences or sparse dicts.  Free columns are visited in
    ascending order; each basis vector has a 1 in its free column and zeros
    in the other free columns, which pins the representative choice for
    every caller.
    """
    return _echelon(ncols, rows).kernel_basis()


def solve_coords(columns, target):
    """Coordinates of target in the span of the given column vectors.

    Returns a coefficient list (free coordinates set to zero) or None when
    target is outside the span.
    """
    dim = len(target)
    tracker = SpanTracker(dim)
    for j, col in enumerate(columns):
        v = _sparse(col)
        v[dim + j] = _ONE     # reduction turns this into the row's combination
        tracker.add(v)
    rem = tracker.reduce(target)
    if any(c < dim for c in rem):
        return None
    return [-rem.get(dim + j, _ZERO) for j in range(len(columns))]
