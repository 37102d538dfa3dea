"""Explicit bracket realizations over a Chevalley-style basis.

One table builder fills every realization: [h, e_alpha] = alpha(h) e_alpha,
[e_alpha, e_{-alpha}] = (e_alpha | e_{-alpha}) nu(alpha), and [e_alpha,
e_beta] = N_{alpha,beta} e_{alpha+beta} when alpha + beta is a root, where
the Cartan basis elements h_i equal nu(d_i) for stored dual weights d_i.
Each constant is an exact ``Coef``: an ``int`` when integral, else a
``Fraction``, never a float; the audits here and the ``pbw`` engine read it
as it is.  Two sources supply the duals, the pairings (e_alpha | e_{-alpha})
and the constants N_{alpha,beta}:

* so(n) and sp(n) (types B, C, D): their int matrix realizations,
  antisymmetric with respect to the anti-diagonal form and the standard
  symplectic form, which pin every sign canonically.  One rule over pairs
  of rows builds every root matrix: X_alpha = E_rc -+ E_(n-1-c)(n-1-r) for
  the first pair of rows of the standard representation whose weights
  differ by alpha.  N is the exact quotient of an int matrix commutator by
  X_{alpha+beta}.

* The simply-laced types A and E6/E7/E8: a bimultiplicative sign cocycle eps
  on the root lattice with eps(alpha, alpha) = (-1)^((alpha,alpha)/2),
  evaluated on the int simple-root coefficients, with every pairing 1.

The restricted dual Coxeter numbers of the minimal grading are cross-checked
on the tables as half the Casimir eigenvalue sum [x, [x^dual, e_theta_i]],
summed over one set of exact dual pairs (``_dual_pairs``) per component.
"""

import itertools
import operator
from fractions import Fraction as Q
from functools import lru_cache
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from . import linalg
from .rootdata import (
    GradingData,
    Lat,
    RootSystem,
    UnsupportedAlgebraError,
    Vec,
    _idot,
    _lat,
    build_root_system,
    minimal_grading_data,
    vscale,
    vzero,
)

Label = Tuple[str, object]        # ("h", i) or ("e", root)
Coef = Union[int, Q]              # exact coefficient: an int when integral
Term = Tuple[int, Coef]           # (basis index, coefficient)
SparseMat = Dict[Tuple[int, int], int]
Sparse = Dict[int, Q]             # basis index -> coefficient


class LieRealization(NamedTuple):
    """Bracket and form tables over an indexed basis {h_i} cup {e_alpha}."""

    rs: RootSystem
    labels: Tuple[Label, ...]
    weights: Tuple[Vec, ...]            # zero for Cartan elements
    cartan_duals: Tuple[Vec, ...]       # h_i = nu(cartan_duals[i])
    bracket_table: Dict[Tuple[int, int], Tuple[Term, ...]]
    form_table: Dict[Tuple[int, int], Coef]
    root_index: Dict[Vec, int]

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def rank(self) -> int:
        return self.rs.rank

    def e(self, root: Vec) -> int:
        return self.root_index[root]

    def h(self, i: int) -> int:
        """Cartan basis index, 1-indexed to match h_1 .. h_rank."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"Cartan index {i} out of range")
        return i - 1

    def bracket(self, a: int, b: int) -> Tuple[Term, ...]:
        return self.bracket_table.get((a, b), ())

    def form(self, a: int, b: int) -> Coef:
        return self.form_table.get((a, b), 0)

    def coroot(self, alpha: Vec) -> Tuple[Term, ...]:
        """nu(alpha) in the Cartan basis, with ``Fraction`` values: the
        tables store [e_alpha, e_-alpha] = (e_alpha|e_-alpha) nu(alpha)."""
        ia, ina = self.e(alpha), self.e(vscale(-1, alpha))
        pairing = Q(self.form(ia, ina))
        return tuple((i, c / pairing) for i, c in self.bracket(ia, ina))


def _lift(c: Coef) -> Coef:
    """The ``Coef`` of an exact rational: its int when integral."""
    return c.numerator if c.denominator == 1 else c


def _quo(a: int, b: int) -> Coef:
    """The exact quotient a / b of two ints, as a ``Coef``."""
    q, r = divmod(a, b)
    return Q(a, b) if r else q


def _lattice_form(rs: RootSystem):
    """(a|b) on doubled vectors: 2 (a . b) / (theta . theta), as a ``Coef``."""
    theta = _lat(rs.theta)
    norm = _idot(theta, theta)
    return lambda a, b: _quo(2 * _idot(a, b), norm)


def _acc(out: dict, key, c: Coef) -> None:
    """out[key] += c, dropping the entry when it cancels to zero."""
    new = out.get(key, 0) + c
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def _build_tables(rs: RootSystem, duals: Sequence[Lat], pairing,
                  structure) -> LieRealization:
    """The bracket and form tables over {h_i} and the roots in lexicographic
    order.

    ``duals`` are the d_i in doubled lattice coordinates, ``pairing[p]`` is
    (e_a|e_-a) and ``structure(p, q, r)`` is N_{a,b}, each a ``Coef``, for
    the roots at positions p, q and r of ``rs.coefficients`` with a + b the
    root at r.  a(h_i) = (d_i|a) and nu(a) are linear in those int
    coefficients, so the loop runs on ints wherever they are integral.  A
    root's coefficients are packed into one int code in base 4 max|coef| + 1:
    the code is linear, and one-to-one on sums of two roots, whose digits
    lie in [-2 max|coef|, 2 max|coef|], so a + b is looked up by its code.
    """
    coeffs, rank, npos = rs.coefficients, rs.rank, len(rs.positive_roots)
    form_of = _lattice_form(rs)
    gram = [[form_of(di, dj) for dj in duals] for di in duals]
    # column j: alpha_j(h_i) = (d_i|alpha_j), and nu(alpha_j) = gram^-1 of it
    simple = [_lat(a) for a in rs.simple_roots]
    act = [[form_of(d, a) for a in simple] for d in duals]
    ginv = linalg.invert([{j: Q(g) for j, g in enumerate(row) if g}
                          for row in gram], rank)
    nu = [[_lift(sum(map(operator.mul, row, col))) for col in zip(*act)]
          for row in ginv]
    base = 4 * max(map(max, coeffs)) + 1   # negative roots mirror positives
    powers = [base ** i for i in range(rank)]
    code = [_idot(c, powers) for c in coeffs]
    position = {c: p for p, c in enumerate(code)}
    # lexicographic order of the doubled roots is that of the roots
    order = sorted(range(len(coeffs)), key=rs.lattice.__getitem__)
    index = [0] * len(order)
    for k, p in enumerate(order):
        index[p] = rank + k
    roots = [rs.roots[p] for p in order]
    bracket: Dict[Tuple[int, int], Tuple[Term, ...]] = {}
    form = {(i, j): g for i, row in enumerate(gram)
            for j, g in enumerate(row) if g}
    for k, p in enumerate(order):
        ca, ia, cp = coeffs[p], rank + k, code[p]
        neg = (p + npos) % len(coeffs)
        form[(ia, index[neg])] = pair = pairing[p]
        for i, row in enumerate(act):
            c = _lift(sum(map(operator.mul, row, ca)))
            if c:
                bracket[(i, ia)] = ((ia, c),)
                bracket[(ia, i)] = ((ia, -c),)
        for q in order[k + 1:]:
            ib = index[q]
            r = position.get(cp + code[q])
            if r is not None:
                n = structure(p, q, r)
                bracket[(ia, ib)] = ((index[r], n),)
                bracket[(ib, ia)] = ((index[r], -n),)
            elif q == neg:
                coroot = (sum(map(operator.mul, row, ca)) for row in nu)
                terms = tuple((i, _lift(pair * c))
                              for i, c in enumerate(coroot) if c)
                bracket[(ia, ib)] = terms
                bracket[(ib, ia)] = tuple((i, -c) for i, c in terms)
    return LieRealization(
        rs=rs,
        labels=tuple([("h", i + 1) for i in range(rank)]
                     + [("e", a) for a in roots]),
        weights=(vzero(rs.ambient),) * rank + tuple(roots),
        cartan_duals=tuple(tuple(Q(x, 2) for x in d) for d in duals),
        bracket_table=bracket, form_table=form,
        root_index={a: rank + k for k, a in enumerate(roots)})


# ---------------------------------------------------------------------------
# Structure constants from the so(n) and sp(n) matrices


def _matrix_basis(rs: RootSystem):
    """Sparse int matrices for the chosen basis of so(n) / sp(n), each root
    keyed by its int epsilon-coordinates, and the pairing factor.

    Row r of the standard representation has weight eps_(r+1) for r < l,
    -eps_(n-r) for the last l rows and 0 for the middle row of B.  X_a has
    1 at the entry (r, c) with the smallest row whose weights differ by a,
    and at its mirror (n-1-c, n-1-r), when that is another entry, -1 for
    so(n); for sp(n) -1 within one half and +1 across the halves.  so(n)
    skips the pairs with r = n-1-c, whose weight 2 eps_i is not a root.
    """
    l = rs.rank
    n = 2 * l + (rs.family == "B")
    symplectic = rs.family == "C"
    factor = 1 if symplectic else Q(1, 2)
    weight = [tuple((j == r) - (j == n - 1 - r) for j in range(l))
              for r in range(n)]
    mats: Dict[Label, SparseMat] = {
        ("h", i + 1): {(i, i): 1, (n - 1 - i, n - 1 - i): -1}
        for i in range(l)}
    for r, c in itertools.product(range(n), repeat=2):
        mirror = (n - 1 - c, n - 1 - r)
        if r == c or (mirror == (r, c) and not symplectic):
            continue
        key = ("e", tuple(map(operator.sub, weight[r], weight[c])))
        if key not in mats:
            x = mats[key] = {(r, c): 1}
            if mirror != (r, c):
                x[mirror] = 1 if symplectic and (r < l) != (c < l) else -1
    return mats, factor


def _mat_bracket(x: SparseMat, y: SparseMat) -> SparseMat:
    out: SparseMat = {}
    for (a, b), xv in x.items():
        for (c, d), yv in y.items():
            if b == c:
                out[(a, d)] = out.get((a, d), 0) + xv * yv
            if d == a:
                out[(c, b)] = out.get((c, b), 0) - xv * yv
    return {k: v for k, v in out.items() if v}


def _matrix_constants(rs: RootSystem):
    """Duals, pairings factor * tr(X_a X_-a) and N_{a,b} for B, C and D.

    h_i is the diagonal matrix ``mats[("h", i)]`` and d_i = scale e_i, so
    a(h_i) is the i-th coordinate of a.  Each X_a is certified a weight
    vector of a, and each [X_a, X_b] to equal N_{a,b} X_{a+b} with N the
    exact quotient of two int entries; either failure raises ValueError.
    """
    mats, factor = _matrix_basis(rs)
    l = rs.rank
    # B, C and D roots are integral: halving rs.lattice gives the matrix keys
    xs = [mats[("e", tuple(x // 2 for x in a))] for a in rs.lattice]
    hs = [mats[("h", i + 1)] for i in range(l)]
    diag = {k: tuple(2 * h.get((k, k), 0) for h in hs)   # doubled too
            for x in xs for pos in x for k in pos}
    for a, lat, x in zip(rs.roots, rs.lattice, xs):
        if any(tuple(map(operator.sub, diag[r], diag[c])) != lat
               for r, c in x):
            raise ValueError(f"matrix of root {a} is not a weight vector")
    neg = lambda p: (p + len(rs.positive_roots)) % len(xs)
    pairing = [_lift(factor * sum(v * xs[neg(p)].get((c, r), 0)
                                  for (r, c), v in x.items()))
               for p, x in enumerate(xs)]

    def structure(p: int, q: int, r: int) -> Coef:
        br = _mat_bracket(xs[p], xs[q])
        pos, v = next(iter(xs[r].items()))
        n = _quo(br.get(pos, 0), v)
        if br != {k: n * w for k, w in xs[r].items()}:
            raise ValueError(f"[X_a, X_b] is not N X_(a+b) for a = "
                             f"{rs.roots[p]}, b = {rs.roots[q]}")
        return n

    two_scale = int(2 * rs.scale)   # d_i = scale e_i, doubled
    duals = [tuple(two_scale * (j == i) for j in range(l)) for i in range(l)]
    return duals, pairing, structure


# ---------------------------------------------------------------------------
# Structure constants from a sign cocycle, for the simply-laced types


def _cocycle_constants(rs: RootSystem):
    """Simple-root duals, every pairing 1, and a sign cocycle N_{a,b}.

    N_{a,b} = eps(a, b) sgn(a) sgn(b) sgn(a + b) on simple-root
    coefficients, with eps(a, b) = (-1)^(a U b) and U upper triangular: 1
    on the diagonal and the Gram entries mod 2 above it.  The parity row
    a U is a bitmask made once per root.
    """
    rank, coeffs = rs.rank, rs.coefficients
    # (alpha_i|alpha_j) is odd for i < j exactly when alpha_i + alpha_j is a root
    roots = set(coeffs)
    upper = [[i == j or tuple(int(k in (i, j)) for k in range(rank)) in roots
              for j in range(rank)] for i in range(rank)]
    mask = lambda bits: sum(1 << j for j, b in enumerate(bits) if b % 2)
    parity_row = [
        mask([sum(c[i] for i in range(j + 1) if upper[i][j])
              for j in range(rank)])
        for c in coeffs
    ]
    parity = [mask(c) for c in coeffs]
    sgn = [1 if sum(c) > 0 else -1 for c in coeffs]

    def structure(p: int, q: int, r: int) -> int:
        odd = (parity_row[p] & parity[q]).bit_count() % 2
        return (-1 if odd else 1) * sgn[p] * sgn[q] * sgn[r]

    return [_lat(a) for a in rs.simple_roots], [1] * len(coeffs), structure


@lru_cache(maxsize=None)
def build_realization(family: str, rank: int) -> LieRealization:
    """Bracket realization: matrices for B/C/D, sign cocycle for A and E."""
    rs = build_root_system(family, rank)
    if rs.family in ("B", "C", "D"):
        source = _matrix_constants
    elif rs.family in ("A", "E"):
        source = _cocycle_constants
    else:
        raise UnsupportedAlgebraError(
            f"no bracket realization for {rs.label}; root-data operations "
            "remain available"
        )
    lr = _build_tables(rs, *source(rs))
    _spot_check(lr)
    return lr


def _spot_check(lr: LieRealization):
    """a(h_i) and [e_a, e_-a] for the simple roots and theta, re-derived
    from int dot products on the doubled lattice.

    ([e_a, e_-a] | h_i) = (e_a|e_-a) a(h_i) for every i pins [e_a, e_-a] =
    (e_a|e_-a) nu(a), the Gram block of the duals being nondegenerate.
    """
    rs = lr.rs
    form_of = _lattice_form(rs)
    duals = [_lat(d) for d in lr.cartan_duals]
    gram = [[form_of(di, dj) for dj in duals] for di in duals]
    for a in rs.simple_roots + (rs.theta,):
        ia, ina, lat = lr.e(a), lr.e(vscale(-1, a)), _lat(a)
        values = [form_of(d, lat) for d in duals]
        pairing = lr.form(ia, ina)
        terms = lr.bracket(ia, ina)
        if (any(i >= rs.rank for i, _ in terms)
                or [sum(c * gram[i][j] for i, c in terms) for j in range(rs.rank)]
                != [pairing * v for v in values]):
            raise ValueError(f"[e,f] != (e|f) nu for {a}")
        for i, c in enumerate(values):
            if lr.bracket(lr.h(i + 1), ia) != (((ia, c),) if c else ()):
                raise ValueError(f"[h_{i + 1}, e] != alpha(h_{i + 1}) e for {a}")


def identity_failure(lr: LieRealization, triples: Iterable[Tuple[int, int, int]]
                     ) -> Optional[Tuple[Tuple[int, int, int], bool, bool]]:
    """The first basis triple (a, b, c) of ``triples``, in iteration order,
    that fails Jacobi, [a, [b, c]] + [b, [c, a]] + [c, [a, b]] = 0, or
    invariance, ([a, b] | c) + (b | [a, c]) = 0, as (triple, jacobi_ok,
    invariance_ok); None when both identities hold on every triple.

    One pass checks both on every triple, over dense bracket rows built
    from the tables at each call.  An empty sum is skipped: Jacobi when
    [b, c], [c, a] and [a, b] are zero, invariance when [a, b] and [a, c] are.
    """
    n, get, form = lr.dim, lr.bracket_table.get, lr.form_table.get
    rows = [[get((x, y), ()) for y in range(n)] for x in range(n)]
    for triple in triples:
        a, b, c = triple
        ra, rb, rc = rows[a], rows[b], rows[c]
        ab, ac, bc, ca = ra[b], ra[c], rb[c], rc[a]
        jacobi = invariance = True
        if ab or bc or ca:
            total: Dict[int, Coef] = {}
            for row, inner in ((ra, bc), (rb, ca), (rc, ab)):
                for i, cv in inner:
                    for j, cc in row[i]:
                        total[j] = total.get(j, 0) + cv * cc
            jacobi = not any(total.values())
        if ab or ac:
            lhs = 0
            for i, cv in ab:
                lhs += cv * form((i, c), 0)
            for i, cv in ac:
                lhs += cv * form((b, i), 0)
            invariance = lhs == 0
        if not (jacobi and invariance):
            return triple, jacobi, invariance
    return None


# ---------------------------------------------------------------------------
# Minimal grading and the restricted Casimir, at the realization level


class MinimalGrading(NamedTuple):
    """ad(x) eigenspace data for x = theta^vee / 2, tied to a realization."""

    lr: LieRealization
    pieces: Dict[Q, Tuple[int, ...]]        # grade -> basis indices
    data: GradingData                       # root-level component analysis


def minimal_grading(lr: LieRealization) -> MinimalGrading:
    rs = lr.rs
    pieces: Dict[Q, List[int]] = {}
    for idx in range(lr.dim):
        w = lr.weights[idx]
        grade = rs.form(w, rs.theta) / 2 if any(w) else Q(0)
        pieces.setdefault(grade, []).append(idx)
    grading = MinimalGrading(
        lr=lr,
        pieces={g: tuple(v) for g, v in pieces.items()},
        data=minimal_grading_data(rs),
    )
    _check_grading(grading)
    return grading


def _check_grading(mg: MinimalGrading):
    lr, rs = mg.lr, mg.lr.rs
    if mg.pieces.get(Q(1)) != (lr.e(rs.theta),):
        raise ValueError("grade 1 is not spanned by e_theta")
    if mg.pieces.get(Q(-1)) != (lr.e(vscale(-1, rs.theta)),):
        raise ValueError("grade -1 is not spanned by e_-theta")
    dim_half = len(mg.pieces.get(Q(1, 2), ()))
    if dim_half != mg.data.dim_g_half:
        raise ValueError("grade 1/2 disagrees with the root data")
    if lr.dim != mg.data.dim_gnat + 1 + 2 + 2 * dim_half:
        raise ValueError("graded pieces do not add up to the dimension")


class DegenerateFormError(ValueError):
    """Restricted form is degenerate on a component: realization bug."""


def restricted_dual_coxeter(mg: MinimalGrading, i: int) -> Q:
    """Half the Casimir eigenvalue of component i on its highest root vector.

    The Casimir is sum [x, [x^dual, e_theta_i]] over the dual pairs of
    ``_dual_pairs``; abelian components (the center) give 0 by convention.
    """
    if i == -1:  # the abelian center
        return Q(0)
    lr, comp = mg.lr, mg.data.components[i]
    v0 = lr.e(comp.highest_root)
    acc: Sparse = {}
    for x, dual in _dual_pairs(lr, comp.roots):
        inner = _bracket_vec(lr, dual, {v0: Q(1)})
        _add_into(acc, _bracket_vec(lr, x, inner).items())
    if set(acc) - {v0}:
        raise ValueError(f"Casimir not diagonal on e_theta: {sorted(acc)}")
    return Q(acc.get(v0, 0), 2)


def _dual_pairs(lr: LieRealization, roots: Sequence[Vec]):
    """Pairs (x, x^dual) of dual bases of the subalgebra the roots span.

    e_alpha pairs with e_-alpha / (e_alpha|e_-alpha); the Cartan part is the
    rref basis of the roots' coroots, paired through the inverse Gram block.
    A degenerate restricted form raises DegenerateFormError.
    """
    pairs: List[Tuple[Sparse, Sparse]] = []
    for a in roots:
        ia, ina = lr.e(a), lr.e(vscale(-1, a))
        c = lr.form(ia, ina)
        if not c:
            raise DegenerateFormError(f"(e_a|e_-a) = 0 for a = {a}")
        pairs.append(({ia: Q(1)}, {ina: Q(1) / c}))
    cartan, _ = linalg.rref([dict(lr.coroot(a)) for a in roots], lr.rank)
    gram = [{c: g for c, v in enumerate(cartan) if (g := _pair(lr, u, v))}
            for u in cartan]
    try:
        ginv = linalg.invert(gram, len(cartan))
    except ValueError as exc:
        raise DegenerateFormError("degenerate Cartan block") from exc
    duals = [{} for _ in cartan]
    for dual, row in zip(duals, ginv):
        for g, v in zip(row, cartan):
            _add_into(dual, ((k, g * c) for k, c in v.items()))
    for r, u in enumerate(cartan):
        for c, dual in enumerate(duals):
            if _pair(lr, u, dual) != int(r == c):
                raise DegenerateFormError("dual Cartan basis is not dual")
    return pairs + list(zip(cartan, duals))


def _add_into(acc: Sparse, terms) -> Sparse:
    """acc += the (index, coefficient) terms, dropping cancelled entries."""
    for idx, c in terms:
        _acc(acc, idx, c)
    return acc


def _bracket_vec(lr: LieRealization, x: Sparse, y: Sparse) -> Sparse:
    """[x, y] for sparse vectors over the basis."""
    out: Sparse = {}
    for a, ca in x.items():
        for b, cb in y.items():
            _add_into(out, ((i, ca * cb * c) for i, c in lr.bracket(a, b)))
    return out


def _pair(lr: LieRealization, x: Sparse, y: Sparse) -> Q:
    """(x | y) for sparse vectors over the basis."""
    return sum((ca * cb * lr.form(a, b) for a, ca in x.items()
                for b, cb in y.items()), Q(0))


# ---------------------------------------------------------------------------
# The order-two diagram automorphism of D_l


def dynkin_flip(lr: LieRealization) -> Dict[int, Term]:
    """The involutive automorphism swapping the two fork nodes of D_l.

    e_alpha maps to e_alpha', where alpha' is alpha with its last coordinate
    negated, h_l maps to -h_l, and every other h_i is fixed; on the matrix
    realization this is conjugation by the swap of the two middle indices.
    Returns a map basis index -> (image index, sign), certified an
    involutive automorphism by ``_check_flip``.
    """
    rs = lr.rs
    if rs.family != "D":
        raise UnsupportedAlgebraError(f"dynkin_flip needs type D, got {rs.label}")
    out: Dict[int, Term] = {}
    for idx, (kind, data) in enumerate(lr.labels):
        if kind == "h":
            out[idx] = (idx, Q(-1) if data == rs.rank else Q(1))
        else:
            out[idx] = (lr.e(data[:-1] + (-data[-1],)), Q(1))
    _check_flip(lr, out)
    return out


def _check_flip(lr: LieRealization, out: Dict[int, Term]):
    for idx, (jdx, s) in out.items():
        j2, s2 = out[jdx]
        if j2 != idx or s * s2 != 1:
            raise ValueError("flip is not an involution")
    # automorphism property on every bracket pair
    for (a, b), terms in lr.bracket_table.items():
        if a > b:
            continue
        (fa, sa), (fb, sb) = out[a], out[b]
        direct = _add_into({}, ((out[i][0], out[i][1] * c) for i, c in terms))
        if _bracket_vec(lr, {fa: sa}, {fb: sb}) != direct:
            raise ValueError(f"flip is not an automorphism on ({a}, {b})")
