"""Exact linear algebra, cross-checked against a plain dense elimination
oracle: the sparse engine must give the same numbers, not merely
consistent ones, because report representatives depend on them."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace.linalg import (
    MatrixSlice,
    SpanTracker,
    kernel_basis,
    matrix_rank,
    solve_coords,
)
from loopspace.models import equivariant_model, load_model, loop_model

from reference import span_contains


def naive_rank(rows):
    """Straight Gaussian elimination over Fraction, no cleverness."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col] / work[rank][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def dense_rref(rows):
    """Reduced row echelon form over Fraction on dense rows.

    Returns (echelon rows, pivot column list).  Input is not mutated.
    """
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        p = work[r][col]
        work[r] = [v / p for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def dense_kernel(rows, ncols):
    """One kernel vector per free column, ascending, 1 on the free column."""
    ech, pivots = dense_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -ech[r][free]
        basis.append(vec)
    return basis


def dense_solve(columns, target):
    """Coordinates over the pivot columns of [columns | target], free ones
    zero; None when target is outside the span."""
    k = len(columns)
    aug = [[col[i] for col in columns] + [Fraction(target[i])] for i in range(len(target))]
    ech, pivots = dense_rref(aug)
    if k in pivots:
        return None
    coords = [Fraction(0)] * k
    for r, pc in enumerate(pivots):
        coords[pc] = ech[r][k]
    return coords


def dense_tracker(rows, dim):
    """The echelon basis SpanTracker builds, in Fractions: (lead, row with a
    leading 1) pairs in ascending lead order, and whether each row enlarged
    the span; a row whose remainder leads at or past dim is refused."""
    basis, verdicts = [], []
    for row in rows:
        v = dense_remainder(basis, row)
        lead = next((i for i, x in enumerate(v) if x), None)
        verdicts.append(lead is not None and lead < dim)
        if verdicts[-1]:
            basis.append((lead, [x / v[lead] for x in v]))
            basis.sort(key=lambda pb: pb[0])
    return basis, verdicts


def dense_remainder(basis, vec):
    """vec minus the combination of the basis rows that agrees with it in
    every lead column."""
    v = [Fraction(x) for x in vec]
    for pc, b in basis:
        if v[pc]:
            f = v[pc]
            v = [x - f * y for x, y in zip(v, b)]
    return v


def mul(a, b):
    """Product of dense row-list matrices."""
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))] for row in a]


_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=ncols, max_size=ncols),
        min_size=0,
        max_size=6,
    )
)


@given(_matrices)
def test_rank_matches_naive_elimination(rows):
    assert matrix_rank(rows) == naive_rank(rows)


@given(_matrices, st.randoms(use_true_random=False))
def test_rank_invariant_under_row_shuffle_and_scaling(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    # one scalar per row, so the row space is unchanged
    scaled = []
    for row in shuffled:
        c = Fraction(rng.choice([1, 2, 3, -1, 5]), rng.choice([1, 2, 7]))
        scaled.append([v * c for v in row])
    assert matrix_rank(scaled) == matrix_rank(rows)


def test_rank_fixed_values():
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 2], [3, 4]]) == 2
    assert matrix_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1


@given(_matrices)
def test_rref_pivots_and_kernel(rows):
    if not rows:
        return
    ncols = len(rows[0])
    ech, pivots = dense_rref(rows)
    assert len(ech) == matrix_rank(rows) == len(pivots)
    for r, pc in enumerate(pivots):
        assert ech[r][pc] == 1
        for other in range(len(ech)):
            if other != r:
                assert ech[other][pc] == 0
    kern = [_dense(vec, ncols) for vec in kernel_basis(rows, ncols)]
    assert len(kern) == ncols - len(pivots)
    for vec in kern:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


@given(_matrices, st.data())
def test_solve_coords_finds_exact_preimages(rows, data):
    if not rows:
        return
    ncols = len(rows[0])
    nrows = len(rows)
    columns = [[Fraction(rows[i][j]) for i in range(nrows)] for j in range(ncols)]
    coeffs = data.draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=ncols, max_size=ncols)
    )
    target = [
        sum(columns[j][i] * coeffs[j] for j in range(ncols)) for i in range(nrows)
    ]
    coords = solve_coords(columns, target)
    assert coords is not None
    rebuilt = [
        sum(columns[j][i] * coords[j] for j in range(ncols)) for i in range(nrows)
    ]
    assert rebuilt == target


def test_solve_coords_reports_outside_span():
    cols = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]]
    assert solve_coords(cols, [Fraction(0), Fraction(1)]) is None
    assert solve_coords(cols, [Fraction(3), Fraction(0)]) == [3, 0]


def test_matrix_slice_roundtrip():
    sl = MatrixSlice(2, 3, {(0, 0): 1, (1, 2): Fraction(1, 2), (1, 1): 0})
    assert sl.column_vectors() == [{0: 1}, {}, {1: Fraction(1, 2)}]
    assert sl.rank() == 2
    dense = [[sl.entries.get((i, j), 0) for j in range(3)] for i in range(2)]
    assert mul(dense, [[2], [0], [4]]) == [[2], [2]]


def test_slice_keeps_entries_and_solve_returns_fractions():
    # the engine clears denominators itself, so a slice stores its entries
    # as given: an int stays an int, a Fraction is kept as it is, zeros
    # are dropped, and an entry out of range is refused
    half = Fraction(1, 2)
    sl = MatrixSlice(1, 3, {(0, 0): 3, (0, 1): half, (0, 2): 0})
    assert type(sl.entries[(0, 0)]) is int
    assert sl.entries[(0, 1)] is half
    assert sl.entries.keys() == {(0, 0), (0, 1)}
    for bad in ((1, 0), (0, 3), (-1, 0)):
        with pytest.raises(IndexError):
            MatrixSlice(1, 3, {bad: 1})
    # coordinates divide at the engine's edge, so they are Fractions
    coords = solve_coords([[3, 0], [0, 7]], [1, 1])
    assert coords == [Fraction(1, 3), Fraction(1, 7)]
    assert all(type(c) is Fraction for c in coords)


def test_span_tracker_selects_independent_vectors():
    tr = SpanTracker(3)
    assert tr.add([1, 0, 0])
    assert not tr.add([2, 0, 0])
    assert tr.add([1, 1, 0])
    assert span_contains(tr, [5, -3, 0])
    assert not span_contains(tr, [0, 0, 1])
    assert tr.rank() == 2


@given(_matrices)
def test_span_tracker_rank_agrees(rows):
    if not rows:
        return
    tr = SpanTracker(len(rows[0]))
    for row in rows:
        tr.add(row)
    assert tr.rank() == matrix_rank(rows)


_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


# The oracle tests below run without Hypothesis' deadline: their time goes
# to the dense references, whose cost varies with the drawn size.
@st.composite
def _sparse_matrices(draw):
    """Up to 30 x 30, about two nonzeros per column, and a few rows that
    combine others so that dependencies occur."""
    nrows = draw(st.integers(1, 27))
    ncols = draw(st.integers(1, 30))
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for j in range(ncols):
        for i, v in draw(st.lists(st.tuples(st.integers(0, nrows - 1), _fractions), max_size=4)):
            rows[i][j] = v
    index = st.integers(0, nrows - 1)
    for a, b, c in draw(st.lists(st.tuples(index, index, _fractions), max_size=3)):
        rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
    return rows


def _sparse_rows(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def _dense(vec, n):
    """A sparse kernel vector as a dense list; it holds no zero value."""
    assert all(vec.values()) and all(0 <= j < n for j in vec)
    return [vec.get(j, Fraction(0)) for j in range(n)]


@settings(deadline=None)
@given(_sparse_matrices())
def test_engine_rank_equals_reference(rows):
    want = naive_rank(rows)
    assert matrix_rank(rows) == want
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    assert MatrixSlice(len(rows), len(rows[0]), entries).rank() == want


@settings(deadline=None)
@given(_sparse_matrices())
def test_kernel_basis_equals_reference(rows):
    ncols = len(rows[0])
    want = dense_kernel(rows, ncols)
    for given_rows in (rows, _sparse_rows(rows)):
        assert [_dense(vec, ncols) for vec in kernel_basis(given_rows, ncols)] == want


@settings(deadline=None)
@given(_sparse_matrices(), st.data())
def test_solve_coords_equals_reference(rows, data):
    columns = [list(col) for col in zip(*rows)]
    coeffs = data.draw(st.lists(_fractions, min_size=len(columns), max_size=len(columns)))
    inside = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(len(rows))]
    outside = data.draw(st.lists(_fractions, min_size=len(rows), max_size=len(rows)))
    for target in (inside, outside):
        want = dense_solve(columns, target)
        assert solve_coords(columns, target) == want
        assert solve_coords(_sparse_rows(columns), target) == want


@settings(deadline=None)
@given(_sparse_matrices())
def test_span_tracker_verdicts_equal_reference(rows):
    tr = SpanTracker(len(rows[0]))
    assert [tr.add(row) for row in rows] == dense_tracker(rows, len(rows[0]))[1]
    assert tr.rank() == naive_rank(rows)


# The fraction-free engine against the dense Fraction references, on
# integral matrices whose entries are non-unit leads and on rational ones:
# its rows, multipliers and remainders are ints, and every number it
# hands out must still equal the exact rational one.

def _check_rows(tr):
    """SpanTracker's own invariant: every row is a primitive int dict whose
    leading entry is positive."""
    for lead, row in tr._rows.items():
        assert lead == min(row) and row[lead] > 0
        assert all(type(x) is int for x in row.values())
        assert math.gcd(*row.values()) == 1


_leads = st.sampled_from([0, 0, 0, 2, 3, 5, 7, -2, -3, -5, -7])


@st.composite
def _engine_matrices(draw, entries):
    """Up to 8 x 8 rows with entries of the given kind, and a few rows that
    combine others, so that dependencies occur."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=8))
    index = st.integers(0, len(rows) - 1)
    for a, b, c in draw(st.lists(st.tuples(index, index, st.sampled_from([2, 3, -5])),
                                 max_size=2)):
        rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
    return rows


HILBERT = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
# the next two columns of the Hilbert pattern, so that the kernel is not zero
HILBERT_WIDE = [[Fraction(1, i + j + 1) for j in range(10)] for i in range(8)]


def _engine_against_references(rows, probes):
    ncols = len(rows[0])
    tr = SpanTracker(ncols)
    basis, verdicts = dense_tracker(rows, ncols)
    assert [tr.add(row) for row in rows] == verdicts
    _check_rows(tr)
    assert tr.rank() == naive_rank(rows)
    for vec in probes:
        rem, m = tr.reduce(vec)
        assert m > 0 and all(type(x) is int for x in rem.values())
        assert _dense({k: Fraction(x, m) for k, x in rem.items()}, ncols) \
            == dense_remainder(basis, vec)
    assert [_dense(vec, ncols) for vec in kernel_basis(rows, ncols)] == dense_kernel(rows, ncols)
    _check_rows(tr)


@settings(deadline=None)
@given(_engine_matrices(_leads), st.data())
def test_engine_on_non_unit_leads_equals_reference(rows, data):
    probes = data.draw(st.lists(st.lists(_leads, min_size=len(rows[0]),
                                         max_size=len(rows[0])), max_size=3))
    _engine_against_references(rows, probes)


@settings(deadline=None)
@given(_engine_matrices(_fractions), st.data())
def test_engine_on_rational_entries_equals_reference(rows, data):
    probes = data.draw(st.lists(st.lists(_fractions, min_size=len(rows[0]),
                                         max_size=len(rows[0])), max_size=3))
    _engine_against_references(rows, probes)


def test_engine_on_hilbert_matrices():
    probe = [Fraction(k + 1, 11 - k) for k in range(10)]
    _engine_against_references(HILBERT, [probe[:8], [1] * 8])
    _engine_against_references(HILBERT_WIDE, [probe, [7, 0, 0, 0, 0, 0, 0, 0, 0, 3]])
    assert len(kernel_basis(HILBERT_WIDE, 10)) == 2
    columns = [list(col) for col in zip(*HILBERT)]
    assert solve_coords(columns, probe[:8]) == dense_solve(columns, probe[:8])
    # the inverse of the Hilbert matrix is integral: H x = e_0 has an
    # int solution whose first entry is 64
    assert solve_coords(columns, [1] + [0] * 7)[0] == 64


def _kernel_against_reference(sl):
    """MatrixSlice.kernel's contract: the rank, and per free column j one
    primitive int vector, positive at j, its largest index, annihilated by
    the slice and equal to the reduced row echelon kernel vector times its
    entry at j."""
    rows = [[sl.entries.get((i, j), 0) for j in range(sl.ncols)] for i in range(sl.nrows)]
    rank, kernel = sl.kernel()
    assert rank == naive_rank(rows)
    want = dense_kernel(rows, sl.ncols)
    assert len(kernel) == len(want)
    for vec, ref in zip(kernel, want):
        assert all(type(x) is int for x in vec.values())
        assert math.gcd(*vec.values()) == 1
        top = vec[max(vec)]
        assert top > 0
        assert all(sum(row[j] * x for j, x in vec.items()) == 0 for row in rows)
        assert _dense(vec, sl.ncols) == [top * x for x in ref]


def _as_slice(rows):
    return MatrixSlice(len(rows), len(rows[0]),
                       {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})


@settings(deadline=None)
@given(_engine_matrices(_leads), _engine_matrices(_fractions))
def test_kernel_vectors_are_primitive_multiples_of_reference(integral, rational):
    _kernel_against_reference(_as_slice(integral))
    _kernel_against_reference(_as_slice(rational))


@pytest.mark.parametrize("name", ["s2.min", "s3.min", "cp2.min", "s2xs3.min"])
def test_fixture_slice_kernels_equal_reference(name, data_path):
    string = equivariant_model(loop_model(load_model(data_path(name))))
    for cx in (string.loop.complex, string.complex):
        for n in range(10):
            _kernel_against_reference(cx.slice(n))


@settings(deadline=None)
@given(_engine_matrices(_leads), _engine_matrices(_leads), st.data())
def test_tagged_class_coordinates_equal_reference(bounds, cands, data):
    # the elimination of CochainComplex.cohomology: boundaries untagged,
    # then each accepted candidate tagged at dim + j; a vector's class is
    # minus its remainder in the tag columns
    dim = min(len(bounds[0]), len(cands[0]))
    bounds, cands = [row[:dim] for row in bounds], [row[:dim] for row in cands]
    tr = SpanTracker(dim)
    for row in bounds:
        tr.add(row)
    reps = []
    for row in cands:
        if tr.add({**dict(enumerate(row)), dim + len(reps): 1}):
            reps.append(row)
    _check_rows(tr)
    coeffs = data.draw(st.lists(_leads, min_size=len(reps), max_size=len(reps)))
    mix = data.draw(st.lists(_fractions, min_size=len(bounds), max_size=len(bounds)))
    vec = [sum(c * r[i] for c, r in zip(coeffs, reps))
           + sum(c * b[i] for c, b in zip(mix, bounds)) for i in range(dim)]
    rem, m = tr.reduce(vec)
    assert all(c >= dim for c in rem)
    got = {c - dim: Fraction(-x, m) for c, x in rem.items()}
    assert got == {j: c for j, c in enumerate(coeffs) if c}
    tags = [[int(j == k) for k in range(len(reps))] for j in range(len(reps))]
    basis, _ = dense_tracker([b + [0] * len(reps) for b in bounds]
                             + [r + t for r, t in zip(reps, tags)], dim)
    assert _dense({k: Fraction(x, m) for k, x in rem.items()}, dim + len(reps)) \
        == dense_remainder(basis, vec + [0] * len(reps))
