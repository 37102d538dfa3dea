"""Explicit bracket realizations over a Chevalley-style basis.

Two constructions, both with every structure constant an exact rational:

* so(n) and sp(n) come from their matrix realizations (antisymmetric with
  respect to the anti-diagonal form, and the standard symplectic form), which
  pins every sign canonically.

* The simply-laced types (A, D as an alternative, E6/E7/E8) come from a
  bimultiplicative sign cocycle eps on the root lattice with
  eps(alpha, alpha) = (-1)^((alpha,alpha)/2).  It is evaluated on the int
  simple-root coefficients of the roots; only the table values are
  ``Fraction``.

Conventions common to both: the Cartan basis elements h_i equal nu(d_i) for
stored dual weights d_i, [e_alpha, e_{-alpha}] = (e_alpha | e_{-alpha}) *
nu(alpha), and [h, e_alpha] = alpha(h) e_alpha.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .rootdata import (
    GradingData,
    RootSystem,
    UnsupportedAlgebraError,
    Vec,
    build_root_system,
    minimal_grading_data,
    vscale,
    vzero,
)

Label = Tuple[str, object]        # ("h", i) or ("e", root)
Term = Tuple[int, Q]              # (basis index, coefficient)
SparseMat = Dict[Tuple[int, int], Q]


@dataclass(frozen=True)
class LieRealization:
    """Bracket and form tables over an indexed basis {h_i} cup {e_alpha}."""

    rs: RootSystem
    labels: Tuple[Label, ...]
    weights: Tuple[Vec, ...]            # zero for Cartan elements
    cartan_duals: Tuple[Vec, ...]       # h_i = nu(cartan_duals[i])
    bracket_table: Dict[Tuple[int, int], Tuple[Term, ...]]
    form_table: Dict[Tuple[int, int], Q]
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

    def form(self, a: int, b: int) -> Q:
        return self.form_table.get((a, b), Q(0))

    def coroot(self, alpha: Vec) -> Tuple[Term, ...]:
        """nu(alpha) expanded in the Cartan basis."""
        coeffs = _expand(self.cartan_duals, alpha)
        return tuple((i, c) for i, c in enumerate(coeffs) if c)


def _expand(basis: Sequence[Vec], target: Vec) -> List[Q]:
    """Exact coefficients of target in the given (independent) vectors."""
    m = len(basis)
    dim = len(target)
    rows = []
    for r in range(dim):
        row = {c: basis[c][r] for c in range(m) if basis[c][r]}
        if target[r]:
            row[m] = target[r]
        rows.append(row)
    reduced, pivots = linalg.rref(rows, m + 1)
    if m in pivots:
        raise ValueError(f"{target} is not in the span")
    out = [Q(0)] * m
    for row, pc in zip(reduced, pivots):
        out[pc] = row.get(m, Q(0))
    return out


def _ordered_basis(rs: RootSystem):
    """Cartan elements first, then root vectors in lexicographic root order."""
    labels: List[Label] = [("h", i + 1) for i in range(rs.rank)]
    weights: List[Vec] = [vzero(rs.ambient)] * rs.rank
    root_index: Dict[Vec, int] = {}
    for a in sorted(rs.roots):
        root_index[a] = len(labels)
        labels.append(("e", a))
        weights.append(a)
    return labels, weights, root_index


# ---------------------------------------------------------------------------
# Matrix realizations for so(n) and sp(n)


def _matrix_basis(rs: RootSystem):
    """Sparse matrices for the chosen basis of so(n) / sp(n)."""
    l = rs.rank
    if rs.family == "B":
        n, factor = 2 * l + 1, Q(1, 2)
    elif rs.family == "D":
        n, factor = 2 * l, Q(1, 2)
    elif rs.family == "C":
        n, factor = 2 * l, Q(1)
    else:
        raise UnsupportedAlgebraError(
            f"matrix realization only for B/C/D, not {rs.label}"
        )
    pr = lambda i: n - 1 - i
    mats: Dict[Label, SparseMat] = {}
    for i in range(l):
        mats[("h", i + 1)] = {(i, i): Q(1), (pr(i), pr(i)): Q(-1)}

    def put(coords: Vec, entries):
        mats[("e", coords)] = {pos: Q(v) for pos, v in entries}

    e = lambda i: tuple(Q(1) if j == i else Q(0) for j in range(l))
    for i in range(l):
        for j in range(l):
            if i != j:
                coords = tuple(a - b for a, b in zip(e(i), e(j)))
                put(coords, [((i, j), 1), ((pr(j), pr(i)), -1)])
    sign = 1 if rs.family == "C" else -1
    for i in range(l):
        for j in range(i + 1, l):
            coords = tuple(a + b for a, b in zip(e(i), e(j)))
            put(coords, [((i, pr(j)), 1), ((j, pr(i)), sign)])
            coords = tuple(-c for c in coords)
            put(coords, [((pr(j), i), 1), ((pr(i), j), sign)])
    if rs.family == "B":
        m = l
        for i in range(l):
            put(e(i), [((i, m), 1), ((m, pr(i)), -1)])
            put(vscale(-1, e(i)), [((m, i), 1), ((pr(i), m), -1)])
    if rs.family == "C":
        for i in range(l):
            put(vscale(2, e(i)), [((i, pr(i)), 1)])
            put(vscale(-2, e(i)), [((pr(i), i), 1)])
    return mats, factor


def _mat_bracket(x: SparseMat, y: SparseMat) -> SparseMat:
    out: SparseMat = {}
    for (a, b), xv in x.items():
        for (c, d), yv in y.items():
            if b == c:
                out[(a, d)] = out.get((a, d), Q(0)) + xv * yv
            if d == a:
                out[(c, b)] = out.get((c, b), Q(0)) - xv * yv
    return {k: v for k, v in out.items() if v}


def _mat_trace_product(x: SparseMat, y: SparseMat) -> Q:
    total = Q(0)
    for (a, b), xv in x.items():
        yv = y.get((b, a))
        if yv:
            total += xv * yv
    return total


def _build_matrix_realization(rs: RootSystem) -> LieRealization:
    mats, factor = _matrix_basis(rs)
    duals = _matrix_duals(rs)
    labels, weights, root_index = _ordered_basis(rs)
    matrices = [mats[lab] for lab in labels]

    # every matrix position determines at most one basis element
    pos_map: Dict[Tuple[int, int], Tuple[int, Q]] = {}
    for idx, mat in enumerate(matrices):
        for pos, val in mat.items():
            if pos in pos_map:
                raise ValueError(f"ambiguous matrix position {pos}")
            pos_map[pos] = (idx, val)

    def decompose(m: SparseMat) -> Dict[int, Q]:
        coeffs: Dict[int, Q] = {}
        for pos, val in m.items():
            idx, base_val = pos_map[pos]
            c = val / base_val
            prev = coeffs.get(idx)
            if prev is None:
                coeffs[idx] = c
            elif prev != c:
                raise ValueError("inconsistent matrix decomposition")
        # exact reconstruction check
        recon: SparseMat = {}
        for idx, c in coeffs.items():
            for pos, val in matrices[idx].items():
                recon[pos] = recon.get(pos, Q(0)) + c * val
        if {k: v for k, v in recon.items() if v} != m:
            raise ValueError("matrix is not in the span of the basis")
        return coeffs

    dim = len(labels)
    bracket: Dict[Tuple[int, int], Tuple[Term, ...]] = {}
    form: Dict[Tuple[int, int], Q] = {}
    for a in range(dim):
        for b in range(a, dim):
            f = factor * _mat_trace_product(matrices[a], matrices[b])
            if f:
                form[(a, b)] = f
                form[(b, a)] = f
            if a == b:
                continue
            br = _mat_bracket(matrices[a], matrices[b])
            if br:
                terms = tuple(sorted(decompose(br).items()))
                bracket[(a, b)] = terms
                bracket[(b, a)] = tuple((i, -c) for i, c in terms)
    return LieRealization(
        rs=rs,
        labels=tuple(labels),
        weights=tuple(weights),
        cartan_duals=duals,
        bracket_table=bracket,
        form_table=form,
        root_index=root_index,
    )


def _matrix_duals(rs: RootSystem) -> Tuple[Vec, ...]:
    l, dim = rs.rank, rs.ambient
    unit = lambda i: tuple(Q(1) if j == i else Q(0) for j in range(dim))
    if rs.family == "C":
        return tuple(vscale(2, unit(i)) for i in range(l))
    return tuple(unit(i) for i in range(l))


# ---------------------------------------------------------------------------
# Cocycle realization for the simply-laced types


def _build_cocycle_realization(rs: RootSystem) -> LieRealization:
    """N_{a,b} = eps(a, b) sgn(a) sgn(b) sgn(a + b) on simple-root coefficients.

    eps(a, b) = (-1)^(a U b), with U upper triangular: 1 on the diagonal and
    the Gram entries mod 2 above it.  The parity row a U is a bitmask made
    once per root.
    """
    simple = rs.simple_roots
    rank = rs.rank
    gram = [[int(rs.form(simple[i], simple[j])) for j in range(rank)]
            for i in range(rank)]
    coeffs = rs.coefficients
    mask = lambda bits: sum(1 << j for j, b in enumerate(bits) if b % 2)
    parity_row = [
        mask([sum(c[i] for i in range(j + 1) if i == j or gram[i][j] % 2)
              for j in range(rank)])
        for c in coeffs
    ]
    parity = [mask(c) for c in coeffs]
    sgn = [1 if sum(c) > 0 else -1 for c in coeffs]
    position = {c: p for p, c in enumerate(coeffs)}
    npos = len(rs.positive_roots)
    labels, weights, root_index = _ordered_basis(rs)
    index = [root_index[a] for a in rs.roots]
    bracket: Dict[Tuple[int, int], Tuple[Term, ...]] = {}
    form: Dict[Tuple[int, int], Q] = {}
    for i in range(rank):
        for j in range(rank):
            if gram[i][j]:
                form[(i, j)] = Q(gram[i][j])
    for p, ca in enumerate(coeffs):
        ia = index[p]
        neg = (p + npos) % len(coeffs)
        form[(ia, index[neg])] = Q(1)
        for i in range(rank):
            c = sum(g * m for g, m in zip(gram[i], ca))
            if c:
                bracket[(i, ia)] = ((ia, Q(c)),)
                bracket[(ia, i)] = ((ia, Q(-c)),)
        for q, cb in enumerate(coeffs):
            ib = index[q]
            if ib <= ia:
                continue
            r = position.get(tuple(map(operator.add, ca, cb)))
            if r is not None:
                odd = (parity_row[p] & parity[q]).bit_count() % 2
                n = (-1 if odd else 1) * sgn[p] * sgn[q] * sgn[r]
                bracket[(ia, ib)] = ((index[r], Q(n)),)
                bracket[(ib, ia)] = ((index[r], Q(-n)),)
            elif q == neg:
                terms = tuple((i, Q(m)) for i, m in enumerate(ca) if m)
                bracket[(ia, ib)] = terms
                bracket[(ib, ia)] = tuple((i, -c) for i, c in terms)
    return LieRealization(
        rs=rs,
        labels=tuple(labels),
        weights=tuple(weights),
        cartan_duals=simple,
        bracket_table=bracket,
        form_table=form,
        root_index=root_index,
    )


@lru_cache(maxsize=None)
def build_realization(family: str, rank: int) -> LieRealization:
    """Bracket realization: matrices for B/C/D, sign cocycle for A and E."""
    rs = build_root_system(family, rank)
    if rs.family in ("B", "C", "D"):
        lr = _build_matrix_realization(rs)
    elif rs.family in ("A", "E"):
        lr = _build_cocycle_realization(rs)
    else:
        raise UnsupportedAlgebraError(
            f"no bracket realization for {rs.label}; root-data operations "
            "remain available"
        )
    _spot_check(lr)
    return lr


def _spot_check(lr: LieRealization):
    rs = lr.rs
    for a in rs.simple_roots + (rs.theta,):
        ia, ina = lr.e(a), lr.e(vscale(-1, a))
        pairing = lr.form(ia, ina)
        expected = tuple(
            (i, c * pairing) for i, c in lr.coroot(a)
        )
        if lr.bracket(ia, ina) != expected:
            raise ValueError(f"[e,f] != (e|f) nu for {a}")
        for i in range(rs.rank):
            terms = lr.bracket(lr.h(i + 1), ia)
            c = rs.form(lr.cartan_duals[i], a)
            if terms != (((ia, c),) if c else ()):
                raise ValueError(f"[h_{i + 1}, e] != alpha(h_{i + 1}) e for {a}")


def jacobi_holds(lr: LieRealization, a: int, b: int, c: int) -> bool:
    """[a, [b, c]] + [b, [c, a]] + [c, [a, b]] = 0 for basis indices a, b, c."""
    total: Dict[int, Q] = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for i, cv in lr.bracket(y, z):
            for j, cc in lr.bracket(x, i):
                total[j] = total.get(j, Q(0)) + cv * cc
    return not any(total.values())


def invariance_holds(lr: LieRealization, a: int, b: int, c: int) -> bool:
    """([a, b] | c) + (b | [a, c]) = 0 for basis indices a, b, c."""
    lhs = sum((cv * lr.form(i, c) for i, cv in lr.bracket(a, b)), Q(0))
    rhs = sum((cv * lr.form(b, i) for i, cv in lr.bracket(a, c)), Q(0))
    return lhs + rhs == 0


# ---------------------------------------------------------------------------
# Minimal grading and the restricted Casimir, at the realization level


@dataclass(frozen=True)
class MinimalGrading:
    """ad(x) eigenspace data for x = theta^vee / 2, tied to a realization."""

    lr: LieRealization
    x_coeffs: Tuple[Q, ...]                 # x in the Cartan basis
    pieces: Dict[Q, Tuple[int, ...]]        # grade -> basis indices
    data: GradingData                       # root-level component analysis

    def component_basis(self, i: int):
        """Basis of component i: root-vector indices plus Cartan rows."""
        comp = self.data.components[i]
        lr = self.lr
        e_idx = [lr.e(a) for a in comp.roots]
        rows = [dict(lr.coroot(a)) for a in comp.roots]
        reduced, _ = linalg.rref(rows, lr.rank)
        cartan = [tuple(r.get(c, Q(0)) for c in range(lr.rank)) for r in reduced]
        return e_idx, cartan


def minimal_grading(lr: LieRealization) -> MinimalGrading:
    rs = lr.rs
    x = [c / 2 for c in _expand(list(lr.cartan_duals), rs.theta)]
    pieces: Dict[Q, List[int]] = {}
    for idx in range(lr.dim):
        w = lr.weights[idx]
        grade = rs.form(w, rs.theta) / 2 if any(w) else Q(0)
        pieces.setdefault(grade, []).append(idx)
    data = minimal_grading_data(rs)
    grading = MinimalGrading(
        lr=lr,
        x_coeffs=tuple(x),
        pieces={g: tuple(v) for g, v in pieces.items()},
        data=data,
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
    """Half the Casimir eigenvalue of component i on itself.

    The Casimir is assembled from exact dual bases of the restricted form;
    abelian components (the center) give 0 by convention.
    """
    if i == -1:  # the abelian center
        return Q(0)
    lr = mg.lr
    e_idx, cartan = mg.component_basis(i)
    comp = mg.data.components[i]

    # dual of e_alpha is e_{-alpha} / (e_alpha | e_{-alpha})
    pair = {}
    for a in comp.roots:
        ia, ina = lr.e(a), lr.e(vscale(-1, a))
        c = lr.form(ia, ina)
        if not c:
            raise DegenerateFormError(f"(e_a|e_-a) = 0 on component {i}")
        pair[ia] = (ina, 1 / c)

    # dual Cartan rows via the inverse Gram block
    m = len(cartan)
    gram_rows = []
    for r in range(m):
        row = {}
        for c in range(m):
            val = _cartan_form(lr, cartan[r], cartan[c])
            if val:
                row[c] = val
        gram_rows.append(row)
    try:
        ginv = linalg.invert(gram_rows, m)
    except ValueError as exc:
        raise DegenerateFormError(f"degenerate Cartan block on component {i}") from exc
    dual_cartan = [
        tuple(
            sum((ginv[r][c] * cartan[c][k] for c in range(m)), Q(0))
            for k in range(lr.rank)
        )
        for r in range(m)
    ]
    for r in range(m):
        for c in range(m):
            want = Q(1) if r == c else Q(0)
            if _cartan_form(lr, cartan[r], dual_cartan[c]) != want:
                raise DegenerateFormError(f"dual Cartan basis wrong on component {i}")

    v0 = lr.e(comp.highest_root)
    acc: Dict[int, Q] = {}
    start = {v0: Q(1)}
    for ia in e_idx:
        ib, inv = pair[ia]
        _acc_double_bracket(lr, acc, _elem(ia), _elem(ib, inv), start)
    for r in range(m):
        _acc_double_bracket(lr, acc, _cart(cartan[r]), _cart(dual_cartan[r]), start)
    acc = {k: v for k, v in acc.items() if v}
    if not set(acc) <= {v0}:
        raise ValueError(f"Casimir not diagonal on e_theta: {sorted(acc)}")
    return acc.get(v0, Q(0)) / 2


def _elem(idx: int, coef: Q = Q(1)) -> Dict[int, Q]:
    return {idx: coef}


def _cart(coeffs: Sequence[Q]) -> Dict[int, Q]:
    return {i: c for i, c in enumerate(coeffs) if c}


def _cartan_form(lr: LieRealization, u: Sequence[Q], v: Sequence[Q]) -> Q:
    total = Q(0)
    for a, ua in enumerate(u):
        if not ua:
            continue
        for b, vb in enumerate(v):
            if vb:
                total += ua * vb * lr.form(a, b)
    return total


def _bracket_vec(lr: LieRealization, x: Dict[int, Q], y: Dict[int, Q]) -> Dict[int, Q]:
    out: Dict[int, Q] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for idx, coef in lr.bracket(a, b):
                new = out.get(idx, Q(0)) + ca * cb * coef
                if new:
                    out[idx] = new
                else:
                    out.pop(idx, None)
    return out


def _acc_double_bracket(lr, acc, upper, lower, v):
    w = _bracket_vec(lr, lower, v)
    if not w:
        return
    for idx, c in _bracket_vec(lr, upper, w).items():
        new = acc.get(idx, Q(0)) + c
        if new:
            acc[idx] = new
        else:
            acc.pop(idx, None)


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
        fa, sa = out[a]
        fb, sb = out[b]
        image = {}
        for idx, c in lr.bracket(fa, fb):
            image[idx] = image.get(idx, Q(0)) + sa * sb * c
        direct = {}
        for idx, c in terms:
            fi, si = out[idx]
            direct[fi] = direct.get(fi, Q(0)) + si * c
        if {k: v for k, v in image.items() if v} != \
                {k: v for k, v in direct.items() if v}:
            raise ValueError(f"flip is not an automorphism on ({a}, {b})")


# ---------------------------------------------------------------------------
# Per-root sign flips (basis rescaling; used by the equivalence tests)


def flip_root_pair(lr: LieRealization, root: Vec) -> LieRealization:
    """The same algebra in the basis with e_{+-root} replaced by -e_{+-root}."""
    flip = {lr.e(root), lr.e(vscale(-1, root))}
    s = lambda i: Q(-1) if i in flip else Q(1)
    bracket = {}
    for (a, b), terms in lr.bracket_table.items():
        bracket[(a, b)] = tuple((i, s(a) * s(b) * s(i) * c) for i, c in terms)
    form = {
        (a, b): s(a) * s(b) * v for (a, b), v in lr.form_table.items()
    }
    return LieRealization(
        rs=lr.rs,
        labels=lr.labels,
        weights=lr.weights,
        cartan_duals=lr.cartan_duals,
        bracket_table=bracket,
        form_table=form,
        root_index=lr.root_index,
    )
