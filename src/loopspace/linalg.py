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

MatrixSlice.kernel gets rank and kernel from one pass over the columns,
column j tagged at nrows + j.  A column that the earlier ones span reduces
to tags only: a kernel vector zero at every other free column, so the
reduced row echelon one of free column j times a positive int, whatever
order the engine stores its rows in.  matrix_rank, kernel_basis and
solve_coords are short functions over it that divide once, at the end;
solve_coords tags the target as the last column, so it uses the leftmost
independent columns and sets every other coordinate to zero.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

__all__ = ["MatrixSlice", "matrix_rank", "kernel_basis", "solve_coords", "SpanTracker"]


def _items(vec):
    """The (index, value) pairs of a dense sequence or a sparse dict."""
    return vec.items() if isinstance(vec, dict) else list(enumerate(vec))


def _ints(vec):
    """(v, m): a dense sequence or sparse dict times the lcm m of its
    denominators, as an {index: int} dict with zeros dropped."""
    items = _items(vec)
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

    def column_vectors(self):
        """The columns as sparse {row: value} dicts."""
        cols = [{} for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def rank(self):
        """The rank, from one untagged pass over the columns."""
        tracker = SpanTracker(self.nrows)
        for col in self.column_vectors():
            tracker.add(col)
        return tracker.rank()

    def kernel(self):
        """(rank, kernel): one primitive {col: int} vector per free column
        j, in ascending order, positive at j, its largest index, and zero
        at every other free column."""
        dim = self.nrows
        tracker = SpanTracker(dim)
        kernel = []
        for j, col in enumerate(self.column_vectors()):
            col[dim + j] = 1
            v, _ = tracker.reduce(col)
            if not tracker._keep(v):
                g = gcd(*v.values())
                kernel.append({c - dim: x // g for c, x in v.items()})
        return tracker.rank(), kernel

    def __repr__(self):
        return f"MatrixSlice({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


class SpanTracker:
    """Incrementally maintained echelon basis of a growing span.

    Vectors are dense sequences or sparse {index: value} dicts of ints or
    Fractions.  Indices at or past dim never lead a row; callers tag their
    inputs there to record which inputs each row combines.  add() is
    reduce() then _keep(), and reports whether the vector enlarged the span,
    which depends only on the span; MatrixSlice.kernel calls the two itself,
    so that it reduces each column once and reads what add() would drop.
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
        return self._keep(self.reduce(vec)[0])

    def _keep(self, v):
        """Store a remainder from reduce as a new row, made primitive with
        a positive lead, when it leads before dim; whether it did."""
        lead = min(v, default=self.dim)
        if lead >= self.dim:
            return False
        g = gcd(*v.values()) * (1 if v[lead] > 0 else -1)
        self._rows[lead] = v if g == 1 else {k: x // g for k, x in v.items()}
        return True


def _from_rows(rows, ncols):
    return MatrixSlice(len(rows), ncols,
                       {(i, j): x for i, row in enumerate(rows) for j, x in _items(row)})


def matrix_rank(rows):
    """Rank of a matrix given as a list of equal-length rows."""
    return _from_rows(rows, len(rows[0])).rank() if rows else 0


def kernel_basis(rows, ncols):
    """Basis of the right kernel of dense or sparse rows, one sparse vector
    per free column in ascending order, with a 1 there and zeros in the
    other free columns: the reduced row echelon kernel vectors."""
    kernel = _from_rows(rows, ncols).kernel()[1]
    tops = [vec[max(vec)] for vec in kernel]
    return [{c: Fraction(x, top) for c, x in vec.items()} for vec, top in zip(kernel, tops)]


def solve_coords(columns, target):
    """Coordinates of target in the span of the given column vectors, as
    a list of Fractions (free coordinates zero); None outside the span."""
    k = len(columns)
    entries = {(i, j): x for j, col in enumerate([*columns, target]) for i, x in _items(col)}
    kernel = MatrixSlice(len(target), k + 1, entries).kernel()[1]
    if not kernel or k not in kernel[-1]:
        return None
    vec = kernel[-1]
    return [Fraction(-vec.get(j, 0), vec[k]) for j in range(k)]
