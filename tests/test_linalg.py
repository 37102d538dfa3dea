"""Properties of the exact eliminator, checked without reusing rref."""

import functools
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vkg import linalg


@st.composite
def matrices(draw, square=False):
    """Up to 8 x 8, mostly zeros, so rows differ in length and fill in."""
    nrows = draw(st.integers(1, 8))
    ncols = nrows if square else draw(st.integers(1, 8))
    entries = st.just(0) | st.integers(-3, 3)
    return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


def sparse(dense):
    return [{c: Q(x) for c, x in enumerate(row) if x} for row in dense]


def transpose(dense):
    return [list(col) for col in zip(*dense)]


def times(dense, v):
    return [sum((Q(x) * v.get(c, Q(0)) for c, x in enumerate(row)), Q(0))
            for row in dense]


def det(dense):
    """Laplace expansion along the first row, memoized on the columns left."""
    n = len(dense)

    @functools.lru_cache(maxsize=None)
    def minor(cols):
        if not cols:
            return Q(1)
        row = dense[n - len(cols)]
        return sum(((-1) ** i * row[c] * minor(cols[:i] + cols[i + 1:])
                    for i, c in enumerate(cols) if row[c]), Q(0))

    return minor(tuple(range(n)))


def independent(dense, cols):
    """Whether the given columns are linearly independent.

    Their Gram determinant is the sum of the squares of their maximal
    minors (Cauchy-Binet), so it is nonzero exactly when one minor is.
    """
    gram = [[sum((Q(row[i]) * row[j] for row in dense), Q(0)) for j in cols]
            for i in cols]
    return det(gram) != 0


def greedy_pivots(dense, ncols):
    """The leftmost independent columns among the first ncols, greedily."""
    chosen = []
    for c in range(ncols):
        if independent(dense, chosen + [c]):
            chosen.append(c)
    return chosen


@given(matrices())
def test_rank_of_transpose(a):
    ncols = len(a[0])
    assert linalg.rank(sparse(a), ncols) == linalg.rank(sparse(transpose(a)), len(a))


@given(matrices())
def test_rank_nullity(a):
    ncols = len(a[0])
    kernel = linalg.nullspace(sparse(a), ncols)
    assert linalg.rank(sparse(a), ncols) + len(kernel) == ncols


@given(matrices())
def test_kernel_vectors(a):
    ncols = len(a[0])
    kernel = linalg.nullspace(sparse(a), ncols)
    for v in kernel:
        assert all(x == 0 for x in times(a, v))
    # each vector has entry 1 in a column where every other vector is 0
    for i, v in enumerate(kernel):
        others = kernel[:i] + kernel[i + 1:]
        assert any(x == 1 and all(c not in w for w in others)
                   for c, x in v.items())


@given(matrices(square=True))
def test_invert(a):
    n = len(a)
    if det(a) == 0:
        with pytest.raises(ValueError):
            linalg.invert(sparse(a), n)
        return
    inv = linalg.invert(sparse(a), n)
    for i in range(n):
        for j in range(n):
            got = sum((inv[i][m] * a[m][j] for m in range(n)), Q(0))
            assert got == (1 if i == j else 0)


@given(matrices(square=True))
def test_singular_iff_rank_deficient(a):
    n = len(a)
    assert (det(a) == 0) == (linalg.rank(sparse(a), n) < n)


@given(matrices())
def test_pivots_are_leftmost_independent_columns(a):
    ncols = len(a[0])
    _, pivots = linalg.rref(sparse(a), ncols)
    assert pivots == greedy_pivots(a, ncols)


@given(matrices())
def test_reduced_echelon_form(a):
    ncols = len(a[0])
    rows, pivots = linalg.rref(sparse(a), ncols)
    assert len(rows) == len(pivots)
    for row, p in zip(rows, pivots):
        assert row[p] == 1
        assert all(v != 0 and c >= p for c, v in row.items())
        assert not any(q in row for q in pivots if q != p)
    # the rows lie in the row space of a: stacking them keeps the rank
    stacked = transpose(a + [[row.get(c, 0) for c in range(ncols)]
                             for row in rows])
    assert len(greedy_pivots(stacked, len(stacked[0]))) == len(pivots)


@given(matrices(), st.randoms(use_true_random=False))
def test_row_order_and_scale_do_not_matter(a, rng):
    ncols = len(a[0])
    moved = []
    for row in rng.sample(sparse(a), len(a)):
        scale = Q(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 7))
        moved.append({c: scale * x for c, x in row.items()})
    assert linalg.rref(moved, ncols) == linalg.rref(sparse(a), ncols)
    assert linalg.nullspace(moved, ncols) == linalg.nullspace(sparse(a), ncols)


@given(matrices(), st.data())
def test_columns_past_ncols_never_pivot(a, data):
    width = len(a[0])
    ncols = data.draw(st.integers(0, width))
    rows, pivots = linalg.rref(sparse(a), ncols)
    assert pivots == greedy_pivots(a, ncols)
    left = [row[:ncols] for row in a]
    assert linalg.rref(sparse(left), ncols) == (
        [{c: v for c, v in row.items() if c < ncols} for row in rows], pivots)
    # When no nonzero combination of the rows vanishes on the first ncols
    # columns, as for invert and _expand, the carried columns are unique.
    if len(greedy_pivots(a, width)) == len(pivots):
        flipped = list(reversed(sparse(a)))
        assert linalg.rref(flipped, ncols) == (rows, pivots)
