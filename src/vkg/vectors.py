"""Constructors for the explicit singular vectors, and the involution sums.

Every formula vector has the shape (sum_i c_i e_a(-1) e_b(-1) ...)^n 1 at a
fixed level, and ``_power`` is the one path that builds it.  Each vector is
built at its paper level; ``StateVector.at_level`` moves it to another.

The D-type families are built literally from their defining formulas; the
signs come out right in the canonical matrix realization because every
summand carries the same total weight, so any Chevalley-compatible sign
choice changes the whole vector by one global sign.  The rank-two B vector
and the E7 vector are pinned instead by exact elimination (on the full
graded component and on the displayed support, respectively), since their
root-vector normalizations are not determined by the formulas alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .liealg import LieRealization, UnsupportedAlgebraError, dynkin_flip
from .pbw import (
    CapExceededError,
    LoopGenerator,
    StateVector,
    _Engine,
    apply_string,
    component_size,
    constraint_rows,
    singular_kernel,
    vacuum,
)
from .rootdata import Vec, basis_vector, vadd, vscale

DEFAULT_COMPONENT_CAP = 200_000

PairInvolution = Tuple[Tuple[int, int], ...]
Summand = Tuple[Q, Sequence[LoopGenerator]]


def enumerate_involutions(l: int) -> List[PairInvolution]:
    """All fixed-point-free involutions of {1..2l} in canonical pair order.

    Each involution is the list of its pairs (i_h, j_h) with i_h < j_h and
    i_1 < i_2 < ... < i_l; there are (2l-1)!! of them.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    out: List[PairInvolution] = []

    def rec(free: Tuple[int, ...], acc: List[Tuple[int, int]]):
        if not free:
            out.append(tuple(acc))
            return
        i = free[0]
        for j in free[1:]:
            acc.append((i, j))
            rec(tuple(x for x in free if x != i and x != j), acc)
            acc.pop()

    rec(tuple(range(1, 2 * l + 1)), [])
    return out


def involution_sign(p: PairInvolution) -> int:
    """Sign of the flattening (i_1, j_1, i_2, j_2, ...) as a permutation."""
    flat = [x for pair in p for x in pair]
    n = len(flat)
    sign = 1
    for a in range(n):
        for b in range(a + 1, n):
            if flat[a] > flat[b]:
                sign = -sign
    return sign


def double_factorial_odd(l: int) -> int:
    """(2l - 1)!! = 1 * 3 * ... * (2l - 1)."""
    out = 1
    for m in range(1, 2 * l, 2):
        out *= m
    return out


# ---------------------------------------------------------------------------
# helpers


def _eps(lr: LieRealization, i: int) -> Vec:
    return basis_vector(lr.rs.ambient, i - 1)


def vadd_eps(lr, i, j) -> Vec:
    return vadd(_eps(lr, i), _eps(lr, j))


def vsub_eps(lr, i, j) -> Vec:
    return vadd(_eps(lr, i), vscale(-1, _eps(lr, j)))


def _products(lr: LieRealization, signed_roots) -> Iterator[Summand]:
    """Summands (sign, prod_r e_r(-1)) from tuples (sign, root, root, ...)."""
    return ((Q(s), [LoopGenerator(lr.e(r), -1) for r in roots])
            for s, *roots in signed_roots)


def _power(lr: LieRealization, summands: Iterable[Summand], level, n: int = 1,
           weight: Optional[Vec] = None, degree: Optional[int] = None,
           cap: Optional[int] = None) -> StateVector:
    """(sum of coef * product of loop generators)^n 1 at the given level.

    The one construction path of the formula vectors.  With a cap, the
    (weight, degree) component is counted first and refused when larger,
    before ``summands`` is read, so a lazy iterable of summands is not built
    for a refused component; with a weight and degree, the result must land
    in that component.
    """
    if cap is not None and component_size(lr, weight, degree, cap) is None:
        raise CapExceededError(
            f"graded component at degree {degree} exceeds cap {cap}"
        )
    summands = list(summands)
    if not summands:
        raise ValueError("operator has no summands")
    engine = _Engine(lr, level)
    state = vacuum(lr, level)
    for _ in range(n):
        total: Optional[StateVector] = None
        for coef, gens in summands:
            piece = apply_string(lr, gens, state, engine=engine).scaled(coef)
            total = piece if total is None else total + piece
        state = total
    if weight is not None and (state.weight, state.degree) != (weight, degree):
        raise ValueError("vector landed outside its weight and degree")
    return state


# ---------------------------------------------------------------------------
# The D-type families


def build_v_n(lr: LieRealization, n: int,
              cap: int = DEFAULT_COMPONENT_CAP) -> StateVector:
    """(sum_i e_{eps1 - eps_i}(-1) e_{eps1 + eps_i}(-1))^n 1 in type D.

    Weight 2n eps_1, conformal degree 2n, level n - rank + 1.
    """
    rs = lr.rs
    if rs.family != "D" or rs.rank < 3:
        raise UnsupportedAlgebraError("build_v_n needs type D of rank >= 3")
    if n < 1:
        raise ValueError("n must be positive")
    l = rs.rank
    summands = _products(lr, [(1, vsub_eps(lr, 1, i), vadd_eps(lr, 1, i))
                              for i in range(2, l + 1)])
    return _power(lr, summands, Q(n - l + 1), n, cap=cap,
                  weight=vscale(2 * n, _eps(lr, 1)), degree=2 * n)


def build_w1_D(lr: LieRealization) -> StateVector:
    """The three-term quadratic vector at level -2, in the D4 subalgebra."""
    rs = lr.rs
    if rs.family != "D" or rs.rank < 4:
        raise UnsupportedAlgebraError("build_w1_D needs type D of rank >= 4")
    return _matching_vector(lr)


def build_w3_D4(lr: LieRealization) -> StateVector:
    """The companion quadratic vector of D4 at level -2, eps_4 reflected."""
    rs = lr.rs
    if (rs.family, rs.rank) != ("D", 4):
        raise UnsupportedAlgebraError("build_w3_D4 needs D4")
    return _power(lr, _products(lr, [
        (1, vadd_eps(lr, 1, 2), vsub_eps(lr, 3, 4)),
        (-1, vadd_eps(lr, 1, 3), vsub_eps(lr, 2, 4)),
        (1, vsub_eps(lr, 1, 4), vadd_eps(lr, 2, 3)),
    ]), Q(-2))


# the three perfect matchings of {1, 2, 3, 4}, with their signs
_D4_MATCHINGS = (((1, 2), (3, 4), 1), ((1, 3), (2, 4), -1), ((1, 4), (2, 3), 1))


def _matching_vector(lr) -> StateVector:
    """sum over _D4_MATCHINGS of sign * e_{eps_i+eps_j}(-1) e_{eps_k+eps_m}(-1) 1."""
    return _power(lr, _products(lr, [
        (sign, vadd_eps(lr, *a), vadd_eps(lr, *b)) for a, b, sign in _D4_MATCHINGS
    ]), Q(-2))


def build_w_n(lr: LieRealization, n: int,
              cap: int = DEFAULT_COMPONENT_CAP) -> StateVector:
    """(sum over fixed-point-free involutions, weighted by sign)^n 1 on D_{2l}.

    Weight n(eps_1 + ... + eps_{2l}), conformal degree n l, level n - 2l + 1.
    """
    rs = lr.rs
    if rs.family != "D" or rs.rank % 2:
        raise UnsupportedAlgebraError("build_w_n needs type D of even rank")
    if n < 1:
        raise ValueError("n must be positive")
    l = rs.rank // 2

    def signed_products():  # lazy: the (2l-1)!! involutions follow the cap
        for p in enumerate_involutions(l):
            yield (involution_sign(p), *(vadd_eps(lr, i, j) for i, j in p))

    return _power(lr, _products(lr, signed_products()), Q(n - 2 * l + 1), n,
                  cap=cap, weight=(Q(n),) * rs.rank, degree=n * l)


def theta_image(lr: LieRealization, v: StateVector) -> StateVector:
    """Image of v under the order-two diagram automorphism of D_l.

    Applied factor-wise with the flip's signs, then re-normal-ordered
    through the standard engine.
    """
    flip = dynkin_flip(lr)
    summands = []
    for mono, coef in v.terms.items():
        gens = [LoopGenerator(flip[b][0], mode) for mode, b in mono]
        for _, b in mono:
            coef *= flip[b][1]
        summands.append((coef, gens))
    return _power(lr, summands, v.level)


# ---------------------------------------------------------------------------
# The B-type conformal-weight-two vectors


def build_w1_B(lr: LieRealization) -> StateVector:
    """The quadratic singular vector of so(2l+1) at level -2.

    For l >= 3 this is the displayed three-term combination (for l >= 4 it
    lives in the D4 subalgebra spanned by the long roots).  For l = 2 the
    displayed formula depends on a short-root normalization that the matrix
    realization does not share, so the vector is pinned by exact elimination
    on its two-dimensional-weight component, normalized to +1 on the leading
    quadratic monomial.
    """
    rs = lr.rs
    if rs.family != "B" or rs.rank < 2:
        raise UnsupportedAlgebraError("build_w1_B needs type B of rank >= 2")
    if rs.rank >= 4:
        return _matching_vector(lr)
    if rs.rank == 3:
        return _power(lr, _products(lr, [
            (1, vadd_eps(lr, 1, 2), _eps(lr, 3)),
            (-1, vadd_eps(lr, 1, 3), _eps(lr, 2)),
            (1, _eps(lr, 1), vadd_eps(lr, 2, 3)),
        ]), Q(-2))
    # l = 2: solve on the full (eps_1, degree 2) component
    kernel = singular_kernel(lr, Q(-2), _eps(lr, 1), 2)
    if len(kernel) != 1:
        raise ValueError(
            f"expected a one-dimensional kernel for B2, got {len(kernel)}"
        )
    v = kernel[0]
    lead = (( -1, lr.e(vscale(-1, _eps(lr, 2)))),
            ( -1, lr.e(vadd_eps(lr, 1, 2))))
    lead = tuple(sorted(lead))
    return v.scaled(1 / v.terms[lead])


# ---------------------------------------------------------------------------
# The E7 vector, with sign resolution on its displayed support


E7_SUPPORT_SUBSETS = (
    ((1, 5, 6), (2, 3, 4, 5, 6)),
    ((2, 5, 6), (1, 3, 4, 5, 6)),
    ((3, 5, 6), (1, 2, 4, 5, 6)),
    ((4, 5, 6), (1, 2, 3, 5, 6)),
)


def _require_e7(lr: LieRealization, what: str) -> None:
    if (lr.rs.family, lr.rs.rank) != ("E", 7):
        raise UnsupportedAlgebraError(f"{what} needs E7, got {lr.rs.label}")


def e7_subset_root(subset: Sequence[int]) -> Vec:
    """Half-sum root of E7 labeled by an odd subset of {1..6}.

    Coordinates i in the subset enter with +1/2, the rest of {1..6} with
    -1/2, and the tail is fixed to (-eps_7 + eps_8)/2.
    """
    if len(subset) % 2 == 0:
        raise ValueError("subset must have odd size")
    v = [Q(-1, 2)] * 6 + [Q(-1, 2), Q(1, 2)]
    for i in subset:
        v[i - 1] = Q(1, 2)
    return tuple(v)


def e7_support_products(lr: LieRealization) -> List[Tuple[Vec, Vec]]:
    """The five displayed quadratic products for the E7 singular vector."""
    _require_e7(lr, "e7_support_products")
    e = lambda i: basis_vector(8, i - 1)
    first = (vadd(e(8), vscale(-1, e(7))), vadd(e(6), e(5)))
    rest = [
        (e7_subset_root(a), e7_subset_root(b)) for a, b in E7_SUPPORT_SUBSETS
    ]
    return [first] + rest


def e7_d6_a1_subalgebra(lr: LieRealization):
    """The D6 x A1 equal-rank subalgebra of E7 behind the quadratic vector.

    Returns (d6_positive_roots, a1_root, d6_generator_roots): thirty
    positive roots spanning a D6 subsystem, the orthogonal A1 root, and the
    six roots whose root vectors generate the D6 factor.
    """
    _require_e7(lr, "e7_d6_a1_subalgebra")
    e = lambda i: basis_vector(8, i - 1)
    pos: List[Vec] = [vadd(e(6), e(5)), vadd(e(8), vscale(-1, e(7)))]
    pos += [e7_subset_root((i,)) for i in range(1, 5)]
    triples = list(itertools.combinations(range(1, 5), 3))
    pos += [e7_subset_root(t) for t in triples]
    pos += [e7_subset_root((i, 5, 6)) for i in range(1, 5)]
    pos += [e7_subset_root(t + (5, 6)) for t in triples]
    for i in range(1, 5):
        for j in range(i + 1, 5):
            pos.append(vadd(e(i), e(j)))
            pos.append(vadd(vscale(-1, e(i)), e(j)))
    a1_root = vadd(e(6), vscale(-1, e(5)))
    generators = (
        vadd(e(6), e(5)),
        e7_subset_root((1,)),
        vadd(vscale(-1, e(1)), e(2)),
        vadd(vscale(-1, e(2)), e(3)),
        vadd(e(1), e(2)),
        vadd(vscale(-1, e(3)), e(4)),
    )
    return tuple(pos), a1_root, generators


def resolve_signs(lr: LieRealization):
    """Solve for the support coefficients of the E7 vector at level -4.

    Returns (coefficients, monomials).  Raises if the solution space on the
    displayed support is not one-dimensional, or if the resolved
    coefficients fail to share one magnitude.
    """
    products = e7_support_products(lr)
    weights = {vadd(a, b) for a, b in products}
    if len(weights) != 1:
        raise ValueError("support products are not weight-homogeneous")
    monos: List[Tuple] = []
    for a, b in products:
        state = _power(lr, _products(lr, [(1, a, b)]), Q(-4))
        if state.support_size() != 1:
            raise ValueError(f"product {a} * {b} is not one monomial")
        ((mono, c),) = state.terms.items()
        if c != 1:
            raise ValueError(f"product {a} * {b} has coefficient {c}")
        monos.append(mono)
    rows = constraint_rows(_Engine(lr, Q(-4)), monos)
    kernel = linalg.nullspace(rows, len(monos))
    if len(kernel) != 1:
        raise ValueError(
            f"support solve gave solution space of dimension {len(kernel)}"
        )
    sol = [kernel[0].get(c, Q(0)) for c in range(len(monos))]
    lead = sol[0]
    if not lead:
        raise ValueError("leading support coefficient vanished")
    sol = [c / lead for c in sol]
    mags = {abs(c) for c in sol}
    if mags != {Q(1)}:
        raise ValueError(f"support coefficients not of one magnitude: {sol}")
    return sol, monos


def build_vE7(lr: LieRealization) -> StateVector:
    """The quadratic singular vector of E7 at level -4, signs resolved."""
    sol, monos = resolve_signs(lr)
    weight = vadd(*e7_support_products(lr)[0])
    terms = {m: c for m, c in zip(monos, sol) if c}
    return StateVector(Q(-4), weight, Q(2), terms)


# ---------------------------------------------------------------------------
# Sign-flip equivalence (GF(2) solver)


def sign_pattern_flip_equivalent(
    monomial_roots: Sequence[Sequence[Vec]],
    observed: Sequence[int],
    reference: Sequence[int],
) -> bool:
    """Is there a per-root sign flip taking `observed` to `reference`?

    Each monomial is given as the multiset of roots of its factors; a flip
    assignment delta changes the sign of a monomial by the product of
    delta over its factors.  Consistency is a linear system over GF(2).
    """
    roots = sorted({r for ms in monomial_roots for r in ms})
    col = {r: i for i, r in enumerate(roots)}
    nvars = len(roots)
    rows: List[List[int]] = []
    for ms, obs, ref in zip(monomial_roots, observed, reference):
        bits = [0] * (nvars + 1)
        for r in ms:
            bits[col[r]] ^= 1
        bits[nvars] = 0 if obs == ref else 1
        rows.append(bits)
    # GF(2) elimination
    pivot_row = 0
    for c in range(nvars):
        r = next((i for i in range(pivot_row, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[pivot_row], rows[r] = rows[r], rows[pivot_row]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
    return all(row[nvars] == 0 for row in rows if not any(row[:nvars]))


def monomial_roots(lr: LieRealization, mono) -> List[Vec]:
    """Roots of the root-vector factors of a monomial (Cartan factors skipped)."""
    out = []
    for _, b in mono:
        lab = lr.labels[b]
        if lab[0] == "e":
            out.append(lab[1])
    return out


def flip_vector_signs(lr: LieRealization, v: StateVector, root: Vec) -> StateVector:
    """Coordinates of v in the basis with e_{+-root} negated."""
    targets = {lr.e(root), lr.e(vscale(-1, root))}
    terms = {}
    for mono, c in v.terms.items():
        flips = sum(1 for _, b in mono if b in targets)
        terms[mono] = -c if flips % 2 else c
    return StateVector(v.level, v.weight, v.degree, terms)
