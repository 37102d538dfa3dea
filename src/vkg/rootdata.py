"""Root systems of the simple Lie algebras in epsilon-coordinates.

Every root system is realized inside an ambient rational coordinate space
(dimension ``rank`` for B/C/D, ``rank + 1`` for A, 8 for E6/E7, and the
classical choices for E8/F4/G2).  The invariant bilinear form is the ambient
dot product divided by a per-type scale chosen so that the highest root theta
satisfies ``(theta, theta) = 2``.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from typing import Iterable, Sequence, Tuple

from . import linalg

Vec = Tuple[Q, ...]

SUPPORTED_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class UnsupportedAlgebraError(ValueError):
    """Raised for a type/rank combination outside the supported list."""


def vec(*coords) -> Vec:
    return tuple(Q(c) for c in coords)


def vzero(dim: int) -> Vec:
    return (Q(0),) * dim


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a: Vec) -> Vec:
    c = Q(c)
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> Q:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Q(0))


def basis_vector(dim: int, i: int, value=1) -> Vec:
    v = [Q(0)] * dim
    v[i] = Q(value)
    return tuple(v)


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data with the normalized invariant form."""

    family: str
    rank: int
    ambient: int
    roots: Tuple[Vec, ...]
    positive_roots: Tuple[Vec, ...]
    simple_roots: Tuple[Vec, ...]
    theta: Vec
    rho: Vec
    scale: Q  # form(a, b) = dot(a, b) / scale
    dual_coxeter: Q = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "dual_coxeter", self.form(self.rho, self.theta) + 1
        )

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def form(self, a: Vec, b: Vec) -> Q:
        return dot(a, b) / self.scale


def form(rs: RootSystem, a: Vec, b: Vec) -> Q:
    """Normalized invariant form, with (theta, theta) = 2."""
    return rs.form(a, b)


def casimir_eigenvalue(rs: RootSystem, mu: Vec) -> Q:
    """Casimir eigenvalue (mu, mu + 2 rho) on the highest-weight module of mu."""
    return rs.form(mu, vadd(mu, vscale(2, rs.rho)))


def _positive_roots_classical(family: str, rank: int, dim: int):
    e = lambda i: basis_vector(dim, i)
    pos = []
    if family == "A":
        for i in range(dim):
            for j in range(i + 1, dim):
                pos.append(vsub(e(i), e(j)))
        return pos
    for i in range(rank):
        for j in range(i + 1, rank):
            pos.append(vsub(e(i), e(j)))
            pos.append(vadd(e(i), e(j)))
    if family == "B":
        pos.extend(e(i) for i in range(rank))
    elif family == "C":
        pos.extend(vscale(2, e(i)) for i in range(rank))
    return pos


def _half_vectors(dim: int, signs_at: Sequence[int], fixed: Vec, parity: int):
    """All fixed + (1/2) sum of +-eps_i over signs_at with given minus-parity."""
    out = []
    for choice in itertools.product((1, -1), repeat=len(signs_at)):
        if sum(1 for s in choice if s < 0) % 2 != parity:
            continue
        v = list(fixed)
        for idx, s in zip(signs_at, choice):
            v[idx] += Q(s, 2)
        out.append(tuple(v))
    return out


def _positive_roots_exceptional(family: str, rank: int):
    if family == "G":  # G2 in the 3-coordinate realization
        a1 = vec(1, -1, 0)
        a2 = vec(-2, 1, 1)
        combos = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
        return [vadd(vscale(m, a1), vscale(n, a2)) for m, n in combos], [a1, a2]
    if family == "F":  # F4
        e = lambda i: basis_vector(4, i)
        pos = [e(i) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                pos.append(vadd(e(i), e(j)))
                pos.append(vsub(e(i), e(j)))
        pos.extend(_half_vectors(4, [1, 2, 3], vec(Q(1, 2), 0, 0, 0), 0))
        pos.extend(_half_vectors(4, [1, 2, 3], vec(Q(1, 2), 0, 0, 0), 1))
        simple = [
            vsub(e(1), e(2)),
            vsub(e(2), e(3)),
            e(3),
            vec(Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)),
        ]
        return pos, simple
    # E6 / E7 / E8 in the 8-coordinate realization
    e = lambda i: basis_vector(8, i)
    alpha1 = vec(
        Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2),
        Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2),
    )
    simple = [alpha1, vadd(e(0), e(1))]
    simple += [vsub(e(i + 1), e(i)) for i in range(rank - 2)]
    if rank == 6:
        pairs = range(5)
        fixed = vec(0, 0, 0, 0, 0, Q(-1, 2), Q(-1, 2), Q(1, 2))
        half = _half_vectors(8, list(pairs), fixed, 0)
    elif rank == 7:
        pairs = range(6)
        fixed = vec(0, 0, 0, 0, 0, 0, Q(-1, 2), Q(1, 2))
        half = _half_vectors(8, list(pairs), fixed, 1)
    else:  # E8: positive halves have coefficient +1/2 on eps_8
        pairs = range(8)
        fixed = vec(0, 0, 0, 0, 0, 0, 0, Q(1, 2))
        half = _half_vectors(8, list(range(7)), fixed, 0)
    pos = []
    for i in pairs:
        for j in pairs:
            if i < j:
                pos.append(vadd(e(j), e(i)))
                pos.append(vsub(e(j), e(i)))
    if rank == 7:
        pos.append(vsub(e(7), e(6)))
    pos.extend(h for h in half)
    return pos, simple


_THETA = {
    "B": lambda dim: vadd(basis_vector(dim, 0), basis_vector(dim, 1)),
    "D": lambda dim: vadd(basis_vector(dim, 0), basis_vector(dim, 1)),
    "C": lambda dim: vscale(2, basis_vector(dim, 0)),
    "A": lambda dim: vsub(basis_vector(dim, 0), basis_vector(dim, dim - 1)),
}


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system for the given family and rank.

    Supported: A_l (l >= 1), B_l (l >= 2), C_l (l >= 1), D_l (l >= 3),
    E6, E7, E8, F4, G2.
    """
    family = family.upper()
    if family == "A" and rank >= 1:
        dim = rank + 1
        pos = _positive_roots_classical("A", rank, dim)
        simple = [
            vsub(basis_vector(dim, i), basis_vector(dim, i + 1))
            for i in range(rank)
        ]
        theta = _THETA["A"](dim)
    elif family == "B" and rank >= 2:
        dim = rank
        pos = _positive_roots_classical("B", rank, dim)
        simple = [
            vsub(basis_vector(dim, i), basis_vector(dim, i + 1))
            for i in range(rank - 1)
        ] + [basis_vector(dim, rank - 1)]
        theta = _THETA["B"](dim)
    elif family == "C" and rank >= 1:
        dim = rank
        pos = _positive_roots_classical("C", rank, dim)
        simple = [
            vsub(basis_vector(dim, i), basis_vector(dim, i + 1))
            for i in range(rank - 1)
        ] + [vscale(2, basis_vector(dim, rank - 1))]
        theta = _THETA["C"](dim)
    elif family == "D" and rank >= 3:
        dim = rank
        pos = _positive_roots_classical("D", rank, dim)
        simple = [
            vsub(basis_vector(dim, i), basis_vector(dim, i + 1))
            for i in range(rank - 1)
        ] + [vadd(basis_vector(dim, rank - 2), basis_vector(dim, rank - 1))]
        theta = _THETA["D"](dim)
    elif family == "E" and rank in (6, 7, 8):
        dim = 8
        pos, simple = _positive_roots_exceptional("E", rank)
        if rank == 6:
            theta = vec(
                Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2),
                Q(1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2),
            )
        elif rank == 7:
            theta = vsub(basis_vector(8, 7), basis_vector(8, 6))
        else:
            theta = vadd(basis_vector(8, 6), basis_vector(8, 7))
    elif family == "F" and rank == 4:
        dim = 4
        pos, simple = _positive_roots_exceptional("F", 4)
        theta = vadd(basis_vector(4, 0), basis_vector(4, 1))
    elif family == "G" and rank == 2:
        dim = 3
        pos, simple = _positive_roots_exceptional("G", 2)
        theta = vec(-1, -1, 2)
    else:
        raise UnsupportedAlgebraError(
            f"unsupported algebra {family}{rank}; supported families are "
            "A(l>=1), B(l>=2), C(l>=1), D(l>=3), E6/E7/E8, F4, G2"
        )

    pos = sorted(set(pos))
    roots = tuple(pos + [vscale(-1, a) for a in pos])
    rho = vscale(Q(1, 2), _vsum(pos, dim))
    scale = dot(theta, theta) / 2
    rs = RootSystem(
        family=family,
        rank=rank,
        ambient=dim,
        roots=roots,
        positive_roots=tuple(pos),
        simple_roots=tuple(simple),
        theta=theta,
        rho=rho,
        scale=scale,
    )
    _validate(rs)
    return rs


def _vsum(vs: Iterable[Vec], dim: int) -> Vec:
    total = vzero(dim)
    for v in vs:
        total = vadd(total, v)
    return total


def _validate(rs: RootSystem):
    if rs.form(rs.theta, rs.theta) != 2:
        raise ValueError(f"(theta, theta) != 2 for {rs.label}")
    root_set = set(rs.roots)
    if len(root_set) != len(rs.roots):
        raise ValueError(f"repeated roots in {rs.label}")
    for a in rs.simple_roots:
        if a not in root_set:
            raise ValueError(f"simple root {a} not a root of {rs.label}")
    # theta is the highest root: theta + alpha is never a root
    for a in rs.positive_roots:
        if vadd(rs.theta, a) in root_set:
            raise ValueError(f"theta + {a} is a root of {rs.label}")
    if rs.theta not in root_set:
        raise ValueError(f"theta is not a root of {rs.label}")


def parse_algebra(label: str) -> RootSystem:
    """Parse labels such as 'D:4', 'D4', 'so(8)', 'sl(6)', 'sp(6)', 'E7'."""
    s = label.strip().replace(":", "")
    low = s.lower()
    for name, fam in (("sl(", "A"), ("so(", None), ("sp(", "C")):
        if low.startswith(name) and low.endswith(")"):
            n = int(low[len(name):-1])
            if fam == "A":
                return build_root_system("A", n - 1)
            if fam == "C":
                if n % 2:
                    raise UnsupportedAlgebraError(f"sp({n}) needs even n")
                return build_root_system("C", n // 2)
            if n % 2:
                return build_root_system("B", (n - 1) // 2)
            return build_root_system("D", n // 2)
    fam = s[:1].upper()
    try:
        rank = int(s[1:])
    except ValueError:
        raise UnsupportedAlgebraError(f"cannot parse algebra label {label!r}")
    return build_root_system(fam, rank)


def fundamental_weight(rs: RootSystem, i: int) -> Vec:
    """Fundamental weight omega_i (1-indexed) for the classical families."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"index {i} out of range for rank {rs.rank}")
    dim, l = rs.ambient, rs.rank
    if rs.family == "A":
        v = [Q(dim - i, dim)] * i + [Q(-i, dim)] * (dim - i)
        return tuple(v)
    if rs.family == "C":
        return _vsum([basis_vector(dim, j) for j in range(i)], dim)
    if rs.family == "B":
        if i == l:
            return vscale(Q(1, 2), _vsum([basis_vector(dim, j) for j in range(l)], dim))
        return _vsum([basis_vector(dim, j) for j in range(i)], dim)
    if rs.family == "D":
        if i == l:
            return vscale(Q(1, 2), _vsum([basis_vector(dim, j) for j in range(l)], dim))
        if i == l - 1:
            v = [Q(1, 2)] * (l - 1) + [Q(-1, 2)]
            return tuple(v)
        return _vsum([basis_vector(dim, j) for j in range(i)], dim)
    raise UnsupportedAlgebraError(
        f"fundamental weights not implemented for {rs.label}"
    )


def is_dominant_integral(rs: RootSystem, mu: Vec) -> bool:
    """True iff (mu, alpha^vee) is a nonnegative integer for every simple alpha."""
    for a in rs.simple_roots:
        c = 2 * rs.form(mu, a) / rs.form(a, a)
        if c < 0 or c.denominator != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Minimal grading at the root-data level


@dataclass(frozen=True)
class RootSubsystem:
    """A simple component of the centralizer subalgebra, as root data."""

    roots: Tuple[Vec, ...]
    rank: int
    family: str       # canonical: B2 for B2=C2, A3 for A3=D3
    type_rank: int
    highest_root: Vec
    theta_norm: Q     # (highest root, highest root) under the ambient form
    dual_coxeter0: Q  # half the Casimir eigenvalue w.r.t. the restricted form

    @property
    def type_label(self) -> str:
        return canonical_name(self.family, self.type_rank)


@dataclass(frozen=True)
class GradingData:
    """Minimal 1/2-Z grading of the adjoint, computed from root data alone."""

    rs: RootSystem
    components: Tuple[RootSubsystem, ...]
    center_dim: int
    dim_g_half: int

    @property
    def dim_gnat(self) -> int:
        return self.center_dim + sum(
            len(c.roots) + c.rank for c in self.components
        )


def canonical_name(family: str, rank: int) -> str:
    if family == "A":
        return f"sl({rank + 1})"
    if family == "B":
        return f"so({2 * rank + 1})"
    if family == "C":
        return f"sp({2 * rank})"
    if family == "D":
        return f"so({2 * rank})"
    return f"{family}{rank}"


def canonical_type(family: str, rank: int) -> Tuple[str, int]:
    """Collapse the exceptional isomorphisms B2=C2, A3=D3, A1=B1=C1."""
    if family == "C" and rank == 2:
        return ("B", 2)
    if family == "D" and rank == 3:
        return ("A", 3)
    if family in ("B", "C") and rank == 1:
        return ("A", 1)
    return (family, rank)


def _span_dim(vectors: Sequence[Vec]) -> int:
    """Dimension of the linear span of the given vectors."""
    rows = [{c: x for c, x in enumerate(v) if x} for v in vectors]
    return linalg.rank(rows, len(vectors[0]) if vectors else 0)


def classify_subsystem(roots: Sequence[Vec], form_fn) -> Tuple[str, int]:
    """Identify the isomorphism type of an irreducible root subsystem.

    The answer is returned in canonical form (see ``canonical_type``); e.g.
    a rank-2 system with two root lengths is reported as B2 whether it arose
    as so(5) or sp(4).
    """
    n = len(roots)
    rank = _span_dim(roots)
    norms = sorted({form_fn(a, a) for a in roots})
    if len(norms) == 1:
        if n == rank * (rank + 1):
            return ("A", rank)
        if n == 2 * rank * (rank - 1):
            return canonical_type("D", rank)
        if (rank, n) in ((6, 72), (7, 126), (8, 240)):
            return ("E", rank)
    elif len(norms) == 2:
        nlong = sum(1 for a in roots if form_fn(a, a) == norms[1])
        if (rank, n) == (2, 12):
            return ("G", 2)
        if (rank, n) == (4, 48):
            return ("F", 4)
        if n == 2 * rank * rank:
            if nlong == 2 * rank:
                return canonical_type("C", rank)
            if nlong == 2 * rank * (rank - 1):
                return canonical_type("B", rank)
    raise ValueError(
        f"unrecognized root subsystem: rank {rank}, {n} roots, norms {norms}"
    )


def _positive_half(block: Sequence[Vec]) -> list:
    """Lexicographically positive half: first nonzero coordinate positive."""
    pos = [a for a in block if a > vscale(-1, a)]
    if 2 * len(pos) != len(block):
        raise ValueError("root block is not closed under negation")
    return pos


def _highest_root(pos: Sequence[Vec], root_set) -> Vec:
    """The unique positive root beta with beta + alpha never a root."""
    tops = [b for b in pos if all(vadd(b, a) not in root_set for a in pos)]
    if len(tops) != 1:
        raise ValueError(f"expected a unique highest root, got {tops}")
    return tops[0]


def minimal_grading_data(rs: RootSystem) -> GradingData:
    """Decompose the algebra by ad(x) eigenvalues, x = theta^vee / 2.

    The grade of a root vector e_alpha is (alpha, theta)/2.  The grade-zero
    roots orthogonal to theta split into irreducible subsystems; each one is
    reported with its highest-root norm and its dual Coxeter number with
    respect to the restricted (ambient) form, which is half of the Casimir
    eigenvalue (theta_i, theta_i + 2 rho_i).
    """
    f = rs.form
    theta = rs.theta
    zero_roots = [a for a in rs.roots if f(a, theta) == 0]
    half = sum(1 for a in rs.roots if f(a, theta) == 1)
    # connected components under (alpha, beta) != 0
    remaining = set(zero_roots)
    comps = []
    while remaining:
        seed = min(remaining)
        block = {seed}
        frontier = [seed]
        while frontier:
            a = frontier.pop()
            new = {b for b in remaining - block if f(a, b) != 0}
            block |= new
            frontier.extend(new)
        remaining -= block
        comps.append(sorted(block))
    components = []
    for block in comps:
        block_set = frozenset(block)
        pos = _positive_half(block)
        theta_i = _highest_root(pos, block_set)
        rho_i = vscale(Q(1, 2), _vsum(pos, rs.ambient))
        h0 = f(theta_i, vadd(theta_i, vscale(2, rho_i))) / 2
        fam, trank = classify_subsystem(block, f)
        components.append(
            RootSubsystem(
                roots=tuple(block),
                rank=_span_dim(block),
                family=fam,
                type_rank=trank,
                highest_root=theta_i,
                theta_norm=f(theta_i, theta_i),
                dual_coxeter0=h0,
            )
        )
    components.sort(key=lambda c: (-len(c.roots), c.roots))
    comp_rank = sum(c.rank for c in components)
    center = (rs.rank - 1) - comp_rank
    if center < 0:
        raise ValueError(f"negative center dimension {center} for {rs.label}")
    return GradingData(
        rs=rs,
        components=tuple(components),
        center_dim=center,
        dim_g_half=half,
    )


