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
import sys
from fractions import Fraction as Q
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .liealg import (LieRealization, UnsupportedAlgebraError, _acc, _lift,
                     dynkin_flip)
from .pbw import (
    CapExceededError,
    EngineTerms,
    Gen,
    StateVector,
    _Engine,
    _grade,
    _lattice_weights,
    component_size,
    constraint_rows,
    singular_kernel,
)
from .rootdata import Vec, basis_vector, vadd, vscale, vzero

DEFAULT_COMPONENT_CAP = 200_000

PairInvolution = Tuple[Tuple[int, int], ...]
Summand = Tuple[Q, Sequence[Gen]]


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


def double_factorial_odd(l: int) -> Optional[int]:
    """(2l - 1)!! = 1 * 3 * ... * (2l - 1), or None once the product reaches
    10**sys.get_int_max_str_digits(): past that the interpreter refuses to
    write it as a decimal string.  A limit of 0 sets no bound (nor does an
    interpreter without the limit)."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = 10 ** digits if digits else None
    out = 1
    for m in range(1, 2 * l, 2):
        out *= m
        if bound is not None and out >= bound:
            return None
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
    return ((Q(s), [(-1, lr.e(r)) for r in roots])
            for s, *roots in signed_roots)


def _power(lr: LieRealization, summands: Iterable[Summand], level, n: int = 1,
           weight: Optional[Vec] = None, degree: Optional[int] = None,
           cap: Optional[int] = None) -> StateVector:
    """(sum of coef * product of loop generators)^n 1 at the given level.

    The one construction path of the formula vectors.  With a cap, the
    (weight, degree) component is counted first and refused when larger,
    before ``summands`` is read, so a lazy iterable of summands is not built
    for a refused component; with a weight and degree, the result must land
    in that component.  The summands must share one weight and degree,
    which is checked on the doubled int lattice; the state takes its
    Fraction grade from the first summand.  Each power is summed into one
    dict of engine coefficients, turned into Fractions once at the end.
    Generators of negative mode whose bases have no partner entries
    ([a, b] = 0, (a | b) = 0) commute: then a summand times a monomial is
    the sorted run of both, else (B3's ``w1``) the engine straightens it."""
    if cap is not None and component_size(lr, weight, degree, cap) is None:
        raise CapExceededError(
            f"graded component at degree {degree} exceeds cap {cap}"
        )
    summands = [(_lift(coef), tuple(gens)) for coef, gens in summands]
    if not summands:
        raise ValueError("operator has no summands")
    lat, zero = _lattice_weights(lr), (0,) * lr.rs.ambient
    grades = {(tuple(map(sum, zip(zero, *(lat[b] for _, b in gens)))),
               sum(mode for mode, _ in gens)) for _, gens in summands}
    if len(grades) > 1:
        raise ValueError("summands differ in weight or degree")
    step_weight, step_degree = _grade(lr, summands[0][1])
    state_weight, state_degree = vscale(n, step_weight), Q(n * step_degree)
    if weight is not None and (state_weight, state_degree) != (weight, degree):
        raise ValueError("vector landed outside its weight and degree")
    engine = _Engine(lr, level)
    used = {g for _, gens in summands for g in gens}
    commuting = all(mode < 0 and (engine._rows[a] or engine._row(a))[b] is None
                    for mode, a in used for _, b in used)
    terms: EngineTerms = {(): 1}
    for _ in range(n):
        total: EngineTerms = {}
        for coef, gens in summands:
            for mono, c in (((tuple(sorted(m + gens)), c) for m, c in
                             terms.items()) if commuting
                            else engine.act_string(gens, terms).items()):
                _acc(total, mono, coef * c)
        terms = total
    return StateVector(Q(level), state_weight, state_degree,
                       {m: Q(c) for m, c in terms.items()})


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
    return _matching_vector(lr, 1)


def build_w3_D4(lr: LieRealization) -> StateVector:
    """The companion quadratic vector of D4 at level -2, eps_4 reflected."""
    rs = lr.rs
    if (rs.family, rs.rank) != ("D", 4):
        raise UnsupportedAlgebraError("build_w3_D4 needs D4")
    return _matching_vector(lr, -1)


# the three perfect matchings of {1, 2, 3, 4}, with their signs
_D4_MATCHINGS = (((1, 2), (3, 4), 1), ((1, 3), (2, 4), -1), ((1, 4), (2, 3), 1))


def _matching_vector(lr: LieRealization, s: int) -> StateVector:
    """sum over _D4_MATCHINGS of sign * e_{eps_i+eps_j}(-1) e_{eps_k+eps_m}(-1) 1
    at level -2, with eps_4 scaled by s.

    s = 1 gives the D4-subalgebra vector, s = -1 its eps_4-reflected
    companion, and s = 0 the B3 vector, whose eps_4 is absent.
    """
    eps = {i: _eps(lr, i) for i in (1, 2, 3)}
    eps[4] = vscale(s, _eps(lr, 4)) if s else vzero(lr.rs.ambient)
    return _power(lr, _products(lr, [
        (sign, vadd(eps[i], eps[j]), vadd(eps[k], eps[m]))
        for (i, j), (k, m), sign in _D4_MATCHINGS
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
        gens = [(mode, flip[b][0]) for mode, b in mono]
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
    if rs.rank >= 3:
        return _matching_vector(lr, 1 if rs.rank >= 4 else 0)
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
    first = (vsub_eps(lr, 8, 7), vadd_eps(lr, 6, 5))
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
    pos: List[Vec] = [vadd_eps(lr, 6, 5), vsub_eps(lr, 8, 7)]
    pos += [e7_subset_root((i,)) for i in range(1, 5)]
    triples = list(itertools.combinations(range(1, 5), 3))
    pos += [e7_subset_root(t) for t in triples]
    pos += [e7_subset_root((i, 5, 6)) for i in range(1, 5)]
    pos += [e7_subset_root(t + (5, 6)) for t in triples]
    for i in range(1, 5):
        for j in range(i + 1, 5):
            pos.append(vadd_eps(lr, i, j))
            pos.append(vsub_eps(lr, j, i))
    a1_root = vsub_eps(lr, 6, 5)
    generators = (
        vadd_eps(lr, 6, 5),
        e7_subset_root((1,)),
        vsub_eps(lr, 2, 1),
        vsub_eps(lr, 3, 2),
        vadd_eps(lr, 1, 2),
        vsub_eps(lr, 4, 3),
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
    engine = _Engine(lr, Q(-4))
    monos: List[Tuple] = []
    for a, b in products:
        terms = engine.act_string([(-1, lr.e(a)), (-1, lr.e(b))], {(): 1})
        if len(terms) != 1:
            raise ValueError(f"product {a} * {b} is not one monomial")
        ((mono, c),) = terms.items()
        if c != 1:
            raise ValueError(f"product {a} * {b} has coefficient {c}")
        monos.append(mono)
    rows = constraint_rows(engine, monos)
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
