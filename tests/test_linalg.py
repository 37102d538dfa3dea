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


# The mod-p rank certificate of nullspace.  The references below are dense
# Gauss-Jordan or Gram determinants written here, not rref's output.

PRIMES = (2, 3, 5, linalg.P)


@st.composite
def rational_matrices(draw):
    """Up to 8 x 6 with small numerators and denominators, often tall."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 8))
    entries = st.just(Q(0)) | st.builds(Q, st.integers(-4, 4), st.integers(1, 6))
    return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


def reference_kernel(dense, ncols):
    """Kernel basis by dense Gauss-Jordan over Q, normalized as nullspace's:
    1 on its free column, supported on the pivot columns otherwise."""
    rows = [[Q(x) for x in row[:ncols]] for row in dense]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = {fc: Q(1)}
        v.update({pc: -rows[i][fc] for i, pc in enumerate(pivots) if rows[i][fc]})
        basis.append(v)
    return basis


def counting_rref(monkeypatch):
    """Count the exact eliminations nullspace runs."""
    calls = []
    exact = linalg.rref

    def rref(rows, ncols):
        calls.append(ncols)
        return exact(rows, ncols)

    monkeypatch.setattr(linalg, "rref", rref)
    return calls


@given(matrices(), st.sampled_from(PRIMES))
def test_rank_mod_p_at_most_rank_on_integer_matrices(a, p):
    ncols = len(a[0])
    assert linalg.rank_mod(sparse(a), ncols, p) <= len(greedy_pivots(a, ncols))


@given(rational_matrices(), st.sampled_from(PRIMES))
def test_rank_mod_p_at_most_rank_on_rational_matrices(a, p):
    ncols = len(a[0])
    got = linalg.rank_mod(sparse(a), ncols, p)
    if any(x.denominator % p == 0 for row in a for x in row):
        assert got is None
    else:
        assert got <= len(greedy_pivots(a, ncols))


@given(st.data())
def test_planted_kernel_is_never_certified_empty(data):
    """M = A B with B of rank below ncols has a kernel: the exact path runs
    and finds vectors that M sends to 0."""
    ncols = data.draw(st.integers(2, 6))
    inner = data.draw(st.integers(1, ncols - 1))
    nrows = data.draw(st.integers(1, 10))
    ints = st.integers(-5, 5)
    a = data.draw(st.lists(st.lists(ints, min_size=inner, max_size=inner),
                           min_size=nrows, max_size=nrows))
    b = data.draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                           min_size=inner, max_size=inner))
    m = [[sum(x * b[i][c] for i, x in enumerate(row)) for c in range(ncols)]
         for row in a]
    assert linalg.rank_mod(sparse(m), ncols) < ncols
    kernel = linalg.nullspace(sparse(m), ncols)
    assert len(kernel) >= ncols - inner
    for v in kernel:
        assert all(x == 0 for x in times(m, v))


def test_planted_kernel_runs_the_exact_path(monkeypatch):
    calls = counting_rref(monkeypatch)
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]      # column 2 = 0 + 1
    assert linalg.nullspace(sparse(m), 3) == [{2: Q(1), 0: Q(-1), 1: Q(-1)}]
    assert calls == [3]


def test_full_rank_mod_p_skips_the_exact_path(monkeypatch):
    calls = counting_rref(monkeypatch)
    assert linalg.nullspace(sparse([[1, 2], [3, 4], [5, 6]]), 2) == []
    assert calls == []


def test_denominator_divisible_by_p_takes_the_exact_path(monkeypatch):
    """No reduction mod p exists, so the kernel comes from Q alone."""
    calls = counting_rref(monkeypatch)
    p = linalg.P
    rows = [{0: Q(1, p), 1: Q(1)}, {0: Q(2, p), 1: Q(2)}]
    assert linalg.rank_mod(rows, 2) is None
    assert linalg.nullspace(rows, 2) == [{1: Q(1), 0: Q(-p)}]
    full = [{0: Q(1, p), 1: Q(1)}, {1: Q(3, 2 * p)}]
    assert linalg.nullspace(full, 2) == []
    assert calls == [2, 2]


def test_numerator_divisible_by_p_takes_the_exact_path(monkeypatch):
    """An entry p vanishes mod p: the rank drops there, not over Q."""
    calls = counting_rref(monkeypatch)
    rows = [{0: Q(linalg.P)}, {1: Q(1)}]
    assert linalg.rank_mod(rows, 2) == 1
    assert linalg.nullspace(rows, 2) == []
    assert calls == [2]


@given(rational_matrices())
def test_nullspace_matches_a_certificate_free_reference(a):
    ncols = len(a[0])
    assert linalg.nullspace(sparse(a), ncols) == reference_kernel(a, ncols)
