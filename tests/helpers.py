"""Checks that only the tests use: a reference straightener, the per-triple
Jacobi and invariance checks, sign-flip equivalence, span membership, a
reference linear solve, the dominance of classified module lists
(``is_dominant_integral``), the closed forms of the collapsing-level
equations and the component levels (``component_level``), the all-pairs
rules of the minimal grading, the list form of a lazy JSON payload and the
JSON reader of a state vector (``state_from_json``, with
``weight_from_json`` and ``base_from_label``)."""

import operator
import types
from fractions import Fraction as Q
from typing import Dict, List, Sequence, Tuple

from vkg import linalg
from vkg.collapsing import GType, _levels
from vkg.conformal import KLSpectrum
from vkg.liealg import Coef, LieRealization
from vkg.pbw import Monomial, StateVector, graded_basis
from vkg.rootdata import (
    RootSubsystem,
    RootSystem,
    Vec,
    build_root_system,
    classify_subsystem,
    minimal_grading_data,
    vscale,
)
from vkg.serialize import parse_frac, parse_weight


# ---------------------------------------------------------------------------
# Reference straightener


class ReferenceStraightener:
    """The plain recursive normal ordering of ``pbw._Engine.act_string``
    on one generator and one monomial.

    One rule, with no fast path: x(m) passes the first factor y(n) of the
    monomial when x(m) > y(n), by x(m) y(n) = y(n) x(m) + [x, y](m + n)
    + m delta_{m+n,0} k (x | y), and x(m) vacuum = 0 for m >= 0.  Every
    coefficient is a ``Fraction``.
    """

    def __init__(self, lr: LieRealization, k):
        self.lr = lr
        self.k = Q(k)
        self._memo: Dict[Tuple, Dict[tuple, Q]] = {}

    def act_mono(self, gen, mono) -> Dict[tuple, Q]:
        key = (gen, mono)
        if key in self._memo:
            return self._memo[key]
        mode, base = gen
        if not mono:
            out = {} if mode >= 0 else {(gen,): Q(1)}
        elif gen <= mono[0]:
            out = {(gen,) + mono: Q(1)}
        else:
            first, rest = mono[0], mono[1:]
            out = {}
            for m2, c2 in self.act_mono(gen, rest).items():
                for m3, c3 in self.act_mono(first, m2).items():
                    _add_term(out, m3, c2 * c3)
            new_mode = mode + first[0]
            for idx, c in self.lr.bracket(base, first[1]):
                for m2, c2 in self.act_mono((new_mode, idx), rest).items():
                    _add_term(out, m2, Q(c) * c2)
            if new_mode == 0:
                _add_term(out, rest, mode * self.k * Q(self.lr.form(base, first[1])))
        self._memo[key] = out
        return out


def _add_term(out, mono, c) -> None:
    new = out.get(mono, Q(0)) + c
    if new:
        out[mono] = new
    else:
        out.pop(mono, None)


# ---------------------------------------------------------------------------
# Reference Jacobi and invariance checks, one triple at a time


def jacobi_holds(lr: LieRealization, a: int, b: int, c: int) -> bool:
    """[a, [b, c]] + [b, [c, a]] + [c, [a, b]] = 0 for basis indices a, b, c."""
    table = lr.bracket_table
    total: Dict[int, Coef] = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for i, cv in table.get((y, z), ()):
            for j, cc in table.get((x, i), ()):
                total[j] = total.get(j, 0) + cv * cc
    return not any(total.values())


def invariance_holds(lr: LieRealization, a: int, b: int, c: int) -> bool:
    """([a, b] | c) + (b | [a, c]) = 0 for basis indices a, b, c."""
    table, form = lr.bracket_table, lr.form_table
    lhs = sum(cv * form.get((i, c), 0) for i, cv in table.get((a, b), ()))
    rhs = sum(cv * form.get((b, i), 0) for i, cv in table.get((a, c), ()))
    return lhs + rhs == 0


def reference_identity_failure(lr: LieRealization, triples):
    """``liealg.identity_failure`` one triple at a time: the first triple
    that fails either check above, with both flags, or None."""
    for triple in triples:
        flags = jacobi_holds(lr, *triple), invariance_holds(lr, *triple)
        if not all(flags):
            return (triple,) + flags
    return None


# ---------------------------------------------------------------------------
# Per-root sign flips (basis rescaling)


def flip_root_pair(lr: LieRealization, root: Vec) -> LieRealization:
    """The same algebra in the basis with e_{+-root} replaced by -e_{+-root}."""
    flip = {lr.e(root), lr.e(vscale(-1, root))}
    s = lambda i: -1 if i in flip else 1
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


def flip_structure_constant(lr: LieRealization, alpha: Vec,
                            beta: Vec) -> LieRealization:
    """A copy of lr with the sign of N_{alpha,beta} = -N_{beta,alpha} flipped:
    no longer a Lie algebra, for the negative tests of the audits."""
    a, b = lr.e(alpha), lr.e(beta)
    table = dict(lr.bracket_table)
    ((i, n),) = table[(a, b)]
    table[(a, b)], table[(b, a)] = ((i, -n),), ((i, n),)
    return lr._replace(bracket_table=table)


def double_pairing(lr: LieRealization, alpha: Vec) -> LieRealization:
    """A copy of lr with (e_alpha | e_-alpha) doubled in the form table only:
    the brackets still read the old pairing, so invariance fails and Jacobi,
    which reads no form, holds."""
    e, f = lr.e(alpha), lr.e(vscale(-1, alpha))
    form = dict(lr.form_table)
    form[(e, f)] = form[(f, e)] = 2 * lr.form(e, f)
    return lr._replace(form_table=form)


def flip_vector_signs(lr: LieRealization, v: StateVector, root: Vec) -> StateVector:
    """Coordinates of v in the basis with e_{+-root} negated."""
    targets = {lr.e(root), lr.e(vscale(-1, root))}
    terms = {}
    for mono, c in v.terms.items():
        flips = sum(1 for _, b in mono if b in targets)
        terms[mono] = -c if flips % 2 else c
    return StateVector(v.level, v.weight, v.degree, terms)


def monomial_roots(lr: LieRealization, mono) -> List[Vec]:
    """Roots of the root-vector factors of a monomial (Cartan factors skipped)."""
    out = []
    for _, b in mono:
        lab = lr.labels[b]
        if lab[0] == "e":
            out.append(lab[1])
    return out


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


# ---------------------------------------------------------------------------
# Span membership and module-list dominance


def in_span_of_component(lr: LieRealization, v: StateVector) -> bool:
    """Every monomial of v lies in the enumerated graded component."""
    basis = set(graded_basis(lr, v.weight, int(v.degree)))
    return set(v.terms) <= basis


def expand(basis: Sequence[Vec], target: Vec) -> List[Q]:
    """Exact coefficients of target in the given independent vectors, by
    one ``linalg.rref`` of the augmented system."""
    m = len(basis)
    rows = []
    for r in range(len(target)):
        row = {c: Q(basis[c][r]) for c in range(m) if basis[c][r]}
        if target[r]:
            row[m] = Q(target[r])
        rows.append(row)
    reduced, pivots = linalg.rref(rows, m + 1)
    if m in pivots:
        raise ValueError(f"{target} is not in the span")
    out = [Q(0)] * m
    for row, pc in zip(reduced, pivots):
        out[pc] = row.get(m, Q(0))
    return out


def nonnegative_solutions(roots: Sequence[Q], half_integral=False) -> List[Q]:
    """Filter roots to Z>=0 (or (1/2) Z>=0 when half_integral)."""
    out = []
    for r in roots:
        if r < 0:
            continue
        if half_integral:
            if (2 * r).denominator == 1:
                out.append(r)
        elif r.denominator == 1:
            out.append(r)
    return sorted(set(out))


def is_dominant_integral(rs: RootSystem, mu: Vec) -> bool:
    """True iff (mu, alpha^vee) is a nonnegative integer for every simple alpha."""
    for a in rs.simple_roots:
        c = 2 * rs.form(mu, a) / rs.form(a, a)
        if c < 0 or c.denominator != 1:
            return False
    return True


def spectrum_is_dominant(spec: KLSpectrum, limit: int = 8) -> bool:
    """Every materialized weight of the classified list is dominant integral."""
    rs = build_root_system(*spec.algebra)
    return all(is_dominant_integral(rs, w) for w in spec.weights(limit))


# ---------------------------------------------------------------------------
# Closed forms of the collapsing-level equations, and component levels


def half_level_roots(h_dual) -> Tuple[Q, Q]:
    """The ell equation at k = -h/2 + 1: roots of 2 ell^2 + (h - 4) ell."""
    h = Q(h_dual)
    return (Q(0), (4 - h) / 2)


def deligne_level_roots(h_dual) -> Tuple[Q, Q]:
    """The ell equation at k = -h/6 - 1: roots of 6 ell^2 + h ell."""
    h = Q(h_dual)
    return (Q(0), -h / 6)


def solve_quoted_s_equation(j) -> Tuple[Q, Q]:
    """Exact solutions in s of (s + j)(s + j + 2) = j (j + 2)."""
    j = Q(j)
    return (Q(0), -2 * j - 2)


def component_level(g: GType, k, i: int) -> Q:
    """Level k_i = k + (h - h0_i)/2 of component i; i = -1 is the center."""
    rs = build_root_system(*g)
    levels, center_level = _levels(rs, minimal_grading_data(rs), Q(k))
    return center_level if i == -1 else levels[i]


# ---------------------------------------------------------------------------
# All-pairs rules of the minimal grading


def reference_span_dim(roots: Sequence[Sequence]) -> int:
    """The number of lexicographically simple roots: the positive roots a
    with no positive root b for which a - b is positive too."""
    pos = {tuple(a) for a in roots if tuple(a) > tuple(-x for x in a)}
    return sum(1 for a in pos if not any(
        tuple(map(operator.sub, a, b)) in pos for b in pos))


def reference_grading_components(rs: RootSystem) -> Tuple[RootSubsystem, ...]:
    """The components of ``rootdata.minimal_grading_data`` by all-pairs
    rules on the doubled lattice: the roots orthogonal to theta grown into
    blocks over nonzero inner products, the highest root of a block as its
    one positive root beta with beta + alpha a root for no positive alpha,
    and the rank by ``reference_span_dim``; the family is read from
    ``classify_subsystem``."""
    dot = lambda a, b: sum(map(operator.mul, a, b))
    theta = dict(zip(rs.roots, rs.lattice))[rs.theta]
    norm = dot(theta, theta)
    remaining = {a for a in rs.lattice if not dot(a, theta)}
    blocks = []
    while remaining:
        seed = min(remaining)
        block, frontier = {seed}, [seed]
        while frontier:
            a = frontier.pop()
            new = {b for b in remaining - block if dot(a, b)}
            block |= new
            frontier.extend(new)
        remaining -= block
        blocks.append(sorted(block))
    blocks.sort(key=lambda block: (-len(block), block))
    to_root = dict(zip(rs.lattice, rs.roots))
    out = []
    for block in blocks:
        pos = [a for a in block if a > tuple(-x for x in a)]
        assert 2 * len(pos) == len(block)
        block_set = set(block)
        (top,) = [b for b in pos if all(
            tuple(map(operator.add, b, a)) not in block_set for a in pos)]
        two_rho = [sum(col) for col in zip(*pos)]
        out.append(RootSubsystem(
            roots=tuple(to_root[a] for a in block),
            rank=reference_span_dim(block),
            family=classify_subsystem(block, dot)[0],
            highest_root=to_root[top],
            theta_norm=Q(2 * dot(top, top), norm),
            dual_coxeter0=Q(dot(top, top) + dot(top, two_rho), norm),
        ))
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON payloads


def materialize(payload):
    """``payload`` with every list, tuple and generator, at any depth, read
    into a list: what ``json`` can encode, with the text of
    ``cli._write_json``.  It reads each generator, which can be read once."""
    if isinstance(payload, dict):
        return {k: materialize(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple, types.GeneratorType)):
        return [materialize(v) for v in payload]
    return payload


def weight_from_json(arr: Sequence[str]) -> Vec:
    return tuple(parse_frac(x) for x in arr)


def base_from_label(lr: LieRealization, label: str) -> int:
    if label.startswith("h:"):
        return lr.h(int(label[2:]))
    return lr.e(parse_weight(label))


def state_from_json(lr: LieRealization, payload: dict) -> StateVector:
    terms: Dict[Monomial, Q] = {}
    for t in payload["terms"]:
        mono = tuple(
            sorted((int(mode), base_from_label(lr, lab)) for lab, mode in t["monomial"])
        )
        coeff = parse_frac(t["coeff"])
        if coeff:
            terms[mono] = terms.get(mono, Q(0)) + coeff
    return StateVector(
        level=parse_frac(payload["level"]),
        weight=weight_from_json(payload["weight"]),
        degree=Q(payload["degree"]),
        terms={m: c for m, c in terms.items() if c},
    )
