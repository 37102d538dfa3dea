"""Properties of the exact eliminator, checked without reusing rref."""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vkg import linalg


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
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
    """Laplace expansion along the first row."""
    if not dense:
        return Q(1)
    return sum(
        (-1) ** j * x * det([row[:j] + row[j + 1:] for row in dense[1:]])
        for j, x in enumerate(dense[0]) if x
    )


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
