"""Exact linear algebra, cross-checked against a plain dense elimination
oracle: the sparse engine must give the same numbers, not merely
consistent ones, because report representatives depend on them."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace.linalg import (
    MatrixSlice,
    SpanTracker,
    kernel_basis,
    matrix_rank,
    solve_coords,
)

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


def dense_span_verdicts(rows):
    """Whether each row enlarges the span of the rows before it, by
    reduction against a dense echelon basis kept in ascending pivot order."""
    basis = []
    verdicts = []
    for row in rows:
        v = [Fraction(x) for x in row]
        for pc, b in basis:
            if v[pc]:
                f = v[pc]
                v = [x - f * y for x, y in zip(v, b)]
        lead = next((i for i, x in enumerate(v) if x), None)
        verdicts.append(lead is not None)
        if lead is not None:
            basis.append((lead, [x / v[lead] for x in v]))
            basis.sort(key=lambda pb: pb[0])
    return verdicts


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
    kern = kernel_basis(rows, ncols)
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
    assert sl.row_vectors() == [{0: 1}, {2: Fraction(1, 2)}]
    assert sl.column_vectors() == [{0: 1}, {}, {1: Fraction(1, 2)}]
    assert sl.rank() == 2
    dense = [[sl.entries.get((i, j), 0) for j in range(3)] for i in range(2)]
    assert mul(dense, [[2], [0], [4]]) == [[2], [2]]


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
    assert kernel_basis(rows, ncols) == want
    assert kernel_basis(_sparse_rows(rows), ncols) == want


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
    assert [tr.add(row) for row in rows] == dense_span_verdicts(rows)
    assert tr.rank() == naive_rank(rows)
