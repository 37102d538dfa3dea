"""Root systems of the simple Lie algebras in epsilon-coordinates.

Every root system is realized inside an ambient rational coordinate space
(dimension ``rank`` for B/C/D/F4, ``rank + 1`` for A, 8 for E6/E7/E8, and 3
for G2).  Only the simple roots are tabulated; the positive roots are
generated from them by root strings over the integer Cartan matrix, theta is
the root of greatest height, and the fundamental weights come from the
inverse Cartan matrix.  The invariant bilinear form is the ambient dot
product divided by a per-type scale chosen so that the highest root theta
satisfies ``(theta, theta) = 2``.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

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
    # simple-root coefficients of each root, in the order of ``roots``;
    # determined by roots and simple_roots, so left out of == and hash
    coefficients: Tuple[Tuple[int, ...], ...] = field(compare=False)
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


_MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3}
_EXCEPTIONAL = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))


def _simple_roots(family: str, rank: int) -> Tuple[int, List[Vec]]:
    """Ambient dimension and simple roots alpha_1 .. alpha_rank, Bourbaki order."""
    if not (rank >= _MIN_RANK.get(family, rank + 1)
            or (family, rank) in _EXCEPTIONAL):
        raise UnsupportedAlgebraError(
            f"unsupported algebra {family}{rank}; supported families are "
            "A(l>=1), B(l>=2), C(l>=1), D(l>=3), E6/E7/E8, F4, G2"
        )
    if family == "G":
        return 3, [vec(1, -1, 0), vec(-2, 1, 1)]
    dim = {"A": rank + 1, "E": 8}.get(family, rank)
    e = lambda i: basis_vector(dim, i)
    half = Q(1, 2)
    if family == "E":
        alpha1 = vec(half, *[-half] * 6, half)
        return dim, [alpha1, vadd(e(0), e(1))] + [
            vsub(e(i + 1), e(i)) for i in range(rank - 2)
        ]
    if family == "F":
        return dim, [vsub(e(1), e(2)), vsub(e(2), e(3)), e(3),
                     vec(half, -half, -half, -half)]
    chain = [vsub(e(i), e(i + 1)) for i in range(dim - 1)]
    last = {"A": [], "B": [e(rank - 1)], "C": [vscale(2, e(rank - 1))],
            "D": [vadd(e(rank - 2), e(rank - 1))]}[family]
    return dim, chain + last


def _cartan_matrix(simple: Sequence[Vec]) -> List[List[int]]:
    """C[i][j] = <alpha_i, alpha_j^vee> = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)"""
    return [[int(2 * dot(a, b) / dot(b, b)) for b in simple] for a in simple]


def _positive_coefficients(cartan: Sequence[Sequence[int]]):
    """Every positive root as its tuple of simple-root coefficients.

    Grows the roots height by height with the root-string rule: if the
    alpha_j-string through beta is beta - p alpha_j, ..., beta + q alpha_j,
    then p - q = <beta, alpha_j^vee>, so beta + alpha_j is a root iff
    q = p - <beta, alpha_j^vee> > 0.  All roots of smaller height are known
    when beta's string is read, so p is exact.
    """
    l = len(cartan)
    layer = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    known = set(layer)
    while layer:
        nxt = []
        for beta in layer:
            for j in range(l):
                down = list(beta)
                down[j] -= 1
                p = 0
                while tuple(down) in known:
                    p += 1
                    down[j] -= 1
                pairing = sum(beta[i] * cartan[i][j] for i in range(l))
                up = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
                if p > pairing and up not in known:
                    known.add(up)
                    nxt.append(up)
        layer = nxt
    return known


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system for the given family and rank.

    Supported: A_l (l >= 1), B_l (l >= 2), C_l (l >= 1), D_l (l >= 3),
    E6, E7, E8, F4, G2.  Only the simple roots are given; the positive
    roots are generated from them by root strings, and theta is the root
    of greatest height.
    """
    family = family.upper()
    dim, simple = _simple_roots(family, rank)
    by_root = {}
    for c in _positive_coefficients(_cartan_matrix(simple)):
        root = _vsum((vscale(m, a) for m, a in zip(c, simple) if m), dim)
        by_root[root] = c
    pos = sorted(by_root)
    theta = max(pos, key=lambda a: sum(by_root[a]))
    roots = tuple(pos + [vscale(-1, a) for a in pos])
    coefficients = tuple(by_root[a] for a in pos)
    coefficients += tuple(tuple(-m for m in c) for c in coefficients)
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
        coefficients=coefficients,
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
    """Fundamental weight omega_i (1-indexed): sum_j (C^-1)_ij alpha_j."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"index {i} out of range for rank {rs.rank}")
    cartan = [{j: Q(c) for j, c in enumerate(row) if c}
              for row in _cartan_matrix(rs.simple_roots)]
    row = linalg.invert(cartan, rs.rank)[i - 1]
    return _vsum((vscale(c, a) for c, a in zip(row, rs.simple_roots)), rs.ambient)


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


