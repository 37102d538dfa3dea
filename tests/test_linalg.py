"""Properties of the exact eliminator, checked without reusing rref."""

import functools
import hashlib
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vkg import linalg
from vkg.liealg import build_realization
from vkg.pbw import _Engine, constraint_rows, graded_basis
from vkg.rootdata import vec


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


def pivot_count(dense, ncols):
    """The rank of the first ncols columns, as rref's pivot count."""
    return len(linalg.rref(sparse(dense), ncols)[1])


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
    assert pivot_count(a, ncols) == pivot_count(transpose(a), len(a))


@given(matrices())
def test_rank_nullity(a):
    ncols = len(a[0])
    kernel = linalg.nullspace(sparse(a), ncols)
    assert pivot_count(a, ncols) + len(kernel) == ncols


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
    assert (det(a) == 0) == (pivot_count(a, n) < n)


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


def reference_rref(dense, ncols):
    """Dense Gauss-Jordan over Q on the first ncols columns: the nonzero
    reduced rows, as dense lists, and the pivot columns."""
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
    return rows[:len(pivots)], pivots


def reference_kernel(dense, ncols):
    """Kernel basis from reference_rref, normalized as nullspace's:
    1 on its free column, supported on the pivot columns otherwise."""
    rows, pivots = reference_rref(dense, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = {fc: Q(1)}
        v.update({pc: -rows[i][fc] for i, pc in enumerate(pivots) if rows[i][fc]})
        basis.append(v)
    return basis


def reference_rank_mod(dense, p):
    """Rank mod p of an integer matrix, by dense elimination."""
    rows = [[x % p for x in row] for row in dense]
    rank = 0
    for c in range(len(rows[0])):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def sparse_matrices(draw):
    """Up to 30 x 30 integer matrices: drawn rows with at most 4 nonzeros,
    and planted dependent rows, each a combination of two drawn rows, all
    shuffled.  Pivot rows fill in and clear columns from one another."""
    ncols = draw(st.integers(1, 30))
    ndrawn = draw(st.integers(1, 30))
    nplanted = draw(st.integers(0, 30 - ndrawn))
    entries = st.integers(-5, 5).filter(bool)
    drawn = [draw(st.dictionaries(st.integers(0, ncols - 1), entries,
                                  min_size=min(2, ncols), max_size=4))
             for _ in range(ndrawn)]
    planted = []
    for _ in range(nplanted):
        u, w = draw(st.sampled_from(drawn)), draw(st.sampled_from(drawn))
        x, y = draw(entries), draw(entries)
        planted.append({c: x * u.get(c, 0) + y * w.get(c, 0)
                        for c in range(ncols)})
    dense = [[row.get(c, 0) for c in range(ncols)] for row in drawn + planted]
    return draw(st.permutations(dense))


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


# Gates on the package's own matrices: the raising-operator constraint rows
# of components that kernel searches eliminate.

def component_rows(family, rank, weight, degree, k):
    lr = build_realization(family, rank)
    basis = graded_basis(lr, vec(*weight), degree)
    return constraint_rows(_Engine(lr, k), basis), len(basis)


# SHA-256 of repr(nullspace(rows, n)): each kernel with its key order, which
# fixes the order of the terms that singular-search prints.
NULLSPACE_DIGESTS = [
    ("D", 8, (1,) * 8, 4, Q(-6),
     "192656d36f7bd775c86c02802fd7a211e73fc87f6292f52167f301cf59cd34f7"),
    ("D", 6, (2,) * 6, 6, Q(-3),
     "906a5065b1fcbb05331b9262a19afba6a0a99001998b30b3376234f648a1d145"),
]


@pytest.mark.parametrize("family, rank, weight, degree, k, digest",
                         NULLSPACE_DIGESTS)
def test_nullspace_digest(family, rank, weight, degree, k, digest):
    rows, n = component_rows(family, rank, weight, degree, k)
    kernel = linalg.nullspace(rows, n)
    assert len(kernel) == 1
    assert hashlib.sha256(repr(kernel).encode()).hexdigest() == digest


# The components of the generic-level searches, with the dual Coxeter number.
HALF = Q(1, 2)
GENERIC_COMPONENTS = [
    ("D", 4, (1, 1, 0, 0), 4, 6),
    ("A", 3, (1, 0, 0, -1), 4, 4),
    ("B", 3, (1, 1, 0), 4, 5),
    ("E", 6, (HALF,) * 5 + (-HALF, -HALF, HALF), 3, 12),
]


@pytest.mark.parametrize("family, rank, weight, degree, h_dual",
                         GENERIC_COMPONENTS)
def test_rank_mod_certifies_generic_components(family, rank, weight, degree,
                                               h_dual):
    """Gorelik-Kac: no singular vector at k = -h - 3/7, so full rank mod P."""
    rows, n = component_rows(family, rank, weight, degree, -h_dual - Q(3, 7))
    assert linalg.rank_mod(rows, n) == n


@given(sparse_matrices())
def test_sparse_matrices_match_dense_gauss_jordan(a):
    ncols = len(a[0])
    rows, pivots = linalg.rref(sparse(a), ncols)
    want_rows, want_pivots = reference_rref(a, ncols)
    assert pivots == want_pivots
    assert rows == [{c: x for c, x in enumerate(row) if x} for row in want_rows]
    assert linalg.nullspace(sparse(a), ncols) == reference_kernel(a, ncols)


@given(sparse_matrices(), st.sampled_from(PRIMES))
def test_rank_mod_matches_a_dense_rank_mod_p(a, p):
    assert linalg.rank_mod(sparse(a), len(a[0]), p) == reference_rank_mod(a, p)


@given(matrices())
def test_rank_mod_p_is_the_rank_on_small_integer_matrices(a):
    """Every minor is below P (Hadamard: (3 sqrt 8)^8 < 2^61 - 1), so no
    minor vanishes mod P that does not vanish over Q."""
    ncols = len(a[0])
    assert linalg.rank_mod(sparse(a), ncols) == len(greedy_pivots(a, ncols))


def test_rref_work_on_a_generic_component(monkeypatch):
    """A work count, not a wall-clock bound: the entries that row_sub
    reads while rref eliminates the 968 x 422 D4 component at k = -15/2.
    Gauss-Jordan insertion reads about 7 100; a pass that leaves the pivot
    rows unreduced and back-substitutes at the end reads about 60 000."""
    rows, n = component_rows("D", 4, (1, 1, 0, 0), 4, Q(-15, 2))
    touched = []
    exact = linalg.row_sub

    def row_sub(target, factor, source):
        touched.append(len(source))
        exact(target, factor, source)

    monkeypatch.setattr(linalg, "row_sub", row_sub)
    _, pivots = linalg.rref(rows, n)
    assert len(pivots) == n
    assert sum(touched) <= 15000
