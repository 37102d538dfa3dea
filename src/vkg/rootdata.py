"""Root systems of the simple Lie algebras in epsilon-coordinates.

Every root system is realized inside an ambient rational coordinate space
(dimension ``rank`` for B/C/D/F4, ``rank + 1`` for A, 8 for E6/E7/E8, and 3
for G2).  Only the simple roots are tabulated; the positive roots are
generated from them by root strings over the integer Cartan matrix, theta is
the root of greatest height, and the fundamental weights come from the
inverse Cartan matrix.  The invariant bilinear form is the ambient dot
product divided by a per-type scale chosen so that the highest root theta
satisfies ``(theta, theta) = 2``.  All arithmetic is exact.

Roots are generated, checked and analysed in the doubled lattice: 2 * root
as an int tuple, which is integral for every type and sorts like the roots.
``Fraction`` appears only in the public fields and in caller-given weights.
"""

import operator
from fractions import Fraction as Q
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from . import linalg

Vec = Tuple[Q, ...]
Lat = Tuple[int, ...]  # a root in doubled ambient coordinates


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


def _idot(a: Sequence, b: Sequence):
    """Dot product without the dimension check; exact on ints or Fractions."""
    return sum(map(operator.mul, a, b))


def _lat(v: Vec) -> Lat:
    """A root-lattice vector in the doubled int coordinates of ``rs.lattice``."""
    return tuple(int(2 * x) for x in v)


def basis_vector(dim: int, i: int) -> Vec:
    v = [Q(0)] * dim
    v[i] = Q(1)
    return tuple(v)


class RootSystem(NamedTuple):
    """Immutable root-system data with the normalized invariant form.

    ``roots``, ``theta``, ``rho`` and ``scale`` are ``Fraction`` data.
    ``coefficients`` and ``lattice`` give each root, in the order of
    ``roots``, as int tuples: its simple-root coefficients and its doubled
    ambient coordinates, so the form of two lattice vectors is their dot
    product over 4 * scale.  == compares every field, these two as well;
    both follow from the roots, so they change no comparison.
    ``dual_coxeter`` is (rho, theta) + 1.
    """

    family: str
    rank: int
    ambient: int
    roots: Tuple[Vec, ...]
    positive_roots: Tuple[Vec, ...]
    simple_roots: Tuple[Vec, ...]
    theta: Vec
    rho: Vec
    scale: Q  # form(a, b) = dot(a, b) / scale
    coefficients: Tuple[Tuple[int, ...], ...]
    lattice: Tuple[Lat, ...]
    dual_coxeter: Q

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def form(self, a: Vec, b: Vec) -> Q:
        return dot(a, b) / self.scale


def casimir_eigenvalue(rs: RootSystem, mu: Vec) -> Q:
    """Casimir eigenvalue (mu, mu + 2 rho) on the highest-weight module of mu."""
    return rs.form(mu, vadd(mu, vscale(2, rs.rho)))


_MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3}
_EXCEPTIONAL = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))


def _simple_roots(family: str, rank: int) -> Tuple[int, List[Lat]]:
    """Ambient dimension and the doubled simple roots, in Bourbaki order."""
    if not (rank >= _MIN_RANK.get(family, rank + 1)
            or (family, rank) in _EXCEPTIONAL):
        raise UnsupportedAlgebraError(
            f"unsupported algebra {family}{rank}; supported families are "
            "A(l>=1), B(l>=2), C(l>=1), D(l>=3), E6/E7/E8, F4, G2"
        )
    if family == "G":
        return 3, [(2, -2, 0), (-4, 2, 2)]
    dim = {"A": rank + 1, "E": 8}.get(family, rank)
    e = lambda i: tuple(2 * (j == i) for j in range(dim))
    if family == "E":
        alpha1 = (1, -1, -1, -1, -1, -1, -1, 1)
        return dim, [alpha1, vadd(e(0), e(1))] + [
            vsub(e(i + 1), e(i)) for i in range(rank - 2)
        ]
    if family == "F":
        return dim, [vsub(e(1), e(2)), vsub(e(2), e(3)), e(3),
                     (1, -1, -1, -1)]
    chain = [vsub(e(i), e(i + 1)) for i in range(dim - 1)]
    last = {"A": [], "B": [e(rank - 1)], "C": [vadd(e(rank - 1), e(rank - 1))],
            "D": [vadd(e(rank - 2), e(rank - 1))]}[family]
    return dim, chain + last


def _cartan_matrix(simple: Sequence[Sequence]) -> List[List[int]]:
    """C[i][j] = <alpha_i, alpha_j^vee> = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)"""
    # an exact int quotient, so // is exact on Fractions and ints alike
    return [[2 * _idot(a, b) // _idot(b, b) for b in simple] for a in simple]


def _positive_coefficients(cartan: Sequence[Sequence[int]]):
    """Every positive root's simple-root coefficients -> its pairings.

    Grows the roots height by height with the root-string rule: if the
    alpha_j-string through beta is beta - p alpha_j, ..., beta + q alpha_j,
    then p - q = <beta, alpha_j^vee>, so beta + alpha_j is a root iff
    q = p - <beta, alpha_j^vee> > 0.  p is exact, as every lower root is
    known, and the pairings of beta + alpha_j are beta's plus row j of C.
    """
    l = len(cartan)
    layer = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    known = dict(zip(layer, cartan))  # root -> its pairings
    while layer:
        nxt = []
        for beta in layer:
            pairings = known[beta]
            for j, pairing in enumerate(pairings):
                p = 0  # beta - (p + 1) alpha_j needs a coefficient >= 0 at j
                while beta[j] > p and (
                        beta[:j] + (beta[j] - p - 1,) + beta[j + 1:] in known):
                    p += 1
                if p > pairing:
                    up = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
                    if up not in known:
                        known[up] = list(map(operator.add, pairings, cartan[j]))
                        nxt.append(up)
        layer = nxt
    return known


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system for the given family and rank.

    Supported: A_l (l >= 1), B_l (l >= 2), C_l (l >= 1), D_l (l >= 3),
    E6, E7, E8, F4, G2.  Only the simple roots are given; the positive
    roots are generated from them by root strings, and theta is the root
    of greatest height.  All of it runs in the doubled lattice.
    """
    family = family.upper()
    dim, simple = _simple_roots(family, rank)
    # a root is its coefficients times the simple roots' nonzero coordinates
    sparse = [[(k, x) for k, x in enumerate(a) if x] for a in simple]
    by_root = {}
    for c in _positive_coefficients(_cartan_matrix(simple)):
        v = [0] * dim
        for s, m in zip(sparse, c):
            for k, x in s:
                v[k] += m * x
        by_root[tuple(v)] = c
    pos = sorted(by_root)
    theta = max(pos, key=lambda a: sum(by_root[a]))
    lattice = tuple(pos) + tuple(tuple(-x for x in a) for a in pos)
    _validate(f"{family}{rank}", lattice, simple, len(pos), theta)
    coefficients = tuple(by_root[a] for a in pos)
    coefficients += tuple(tuple(-m for m in c) for c in coefficients)
    halves = {x: Q(x, 2) for x in set().union(*lattice)}  # one per value
    halve = lambda a: tuple(map(halves.__getitem__, a))
    roots = tuple(map(halve, lattice))
    # the doubled positive roots sum to 4 rho
    rho = tuple(Q(sum(col), 4) for col in zip(*pos))
    scale = Q(_idot(theta, theta), 8)
    theta_q = halve(theta)
    return RootSystem(
        family=family,
        rank=rank,
        ambient=dim,
        roots=roots,
        positive_roots=roots[:len(pos)],
        simple_roots=tuple(map(halve, simple)),
        theta=theta_q,
        rho=rho,
        scale=scale,
        coefficients=coefficients,
        lattice=lattice,
        dual_coxeter=dot(rho, theta_q) / scale + 1,
    )


def _validate(label: str, lattice: Sequence[Lat], simple: Sequence[Lat],
              npos: int, theta: Lat):
    root_set = set(lattice)
    if len(root_set) != len(lattice):
        raise ValueError(f"repeated roots in {label}")
    for a in simple:
        if a not in root_set:
            raise ValueError(f"simple root {a} not a root of {label}")
    # theta is the highest root: theta + alpha is never a root
    for a in lattice[:npos]:
        if tuple(map(operator.add, theta, a)) in root_set:
            raise ValueError(f"theta + {a} is a root of {label}")
    if theta not in root_set:
        raise ValueError(f"theta is not a root of {label}")


def parse_algebra(label: str) -> RootSystem:
    """Parse labels such as 'D:4', 'D4', 'so(8)', 'sl(6)', 'sp(6)', 'E7'."""
    s = label.strip().replace(":", "")
    low = s.lower()
    matrix = low[:3] if low.endswith(")") else ""
    try:
        n = int(low[3:-1] if matrix in ("sl(", "so(", "sp(") else s[1:])
    except ValueError:
        raise UnsupportedAlgebraError(f"cannot parse algebra label {label!r}")
    if matrix == "sl(":
        return build_root_system("A", n - 1)
    if matrix == "sp(":
        if n % 2:
            raise UnsupportedAlgebraError(f"sp({n}) needs even n")
        return build_root_system("C", n // 2)
    if matrix == "so(":
        if n % 2:
            return build_root_system("B", (n - 1) // 2)
        return build_root_system("D", n // 2)
    return build_root_system(s[:1].upper(), n)


def fundamental_weight(rs: RootSystem, i: int) -> Vec:
    """Fundamental weight omega_i (1-indexed): sum_j (C^-1)_ij alpha_j."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"index {i} out of range for rank {rs.rank}")
    cartan = [{j: Q(c) for j, c in enumerate(row) if c}
              for row in _cartan_matrix(rs.simple_roots)]
    row = linalg.invert(cartan, rs.rank)[i - 1]
    return tuple(sum(map(operator.mul, row, col), Q(0))
                 for col in zip(*rs.simple_roots))


# ---------------------------------------------------------------------------
# Minimal grading at the root-data level


class RootSubsystem(NamedTuple):
    """A simple component of the centralizer subalgebra, as root data."""

    roots: Tuple[Vec, ...]
    rank: int
    family: str       # canonical: B2 for B2=C2, A3 for A3=D3
    highest_root: Vec
    theta_norm: Q     # (highest root, highest root) under the ambient form
    dual_coxeter0: Q  # half the Casimir eigenvalue w.r.t. the restricted form

    @property
    def type_label(self) -> str:
        return canonical_name(self.family, self.rank)


class GradingData(NamedTuple):
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


GType = Tuple[str, int]  # a simple Lie algebra as (family, rank)


def canonical_type(family: str, rank: int) -> GType:
    """Collapse the exceptional isomorphisms B2=C2, A3=D3, A1=B1=C1."""
    if family == "C" and rank == 2:
        return ("B", 2)
    if family == "D" and rank == 3:
        return ("A", 3)
    if family in ("B", "C") and rank == 1:
        return ("A", 1)
    return (family, rank)


def _span_dim(roots: Sequence[Sequence]) -> int:
    """The rank of a root system: the number of its simple roots for the
    lexicographic order.  A positive root a that is not simple is s + b for
    a simple s < a and a positive b, so in increasing order a is simple iff
    a - s is positive for no simple s found so far."""
    pos = {tuple(a) for a in roots if tuple(a) > tuple(-x for x in a)}
    simple = []
    for a in sorted(pos):
        if not any(tuple(map(operator.sub, a, s)) in pos for s in simple):
            simple.append(a)
    return len(simple)


def classify_subsystem(roots: Sequence[Vec]) -> GType:
    """Identify the isomorphism type of an irreducible root subsystem.

    Root lengths are ambient dot products (exact on ints and Fractions; any
    positive multiple gives the same type), and the type is canonical (see
    ``canonical_type``): so(5) and sp(4) are both reported as B2.
    """
    n = len(roots)
    rank = _span_dim(roots)
    norms = sorted({_idot(a, a) for a in roots})
    if len(norms) == 1:
        if n == rank * (rank + 1):
            return ("A", rank)
        if n == 2 * rank * (rank - 1):
            return canonical_type("D", rank)
        if (rank, n) in ((6, 72), (7, 126), (8, 240)):
            return ("E", rank)
    elif len(norms) == 2:
        nlong = sum(1 for a in roots if _idot(a, a) == norms[1])
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


def minimal_grading_data(rs: RootSystem) -> GradingData:
    """Decompose the algebra by ad(x) eigenvalues, x = theta^vee / 2.

    The grade of a root vector e_alpha is (alpha, theta)/2.  The grade-zero
    roots orthogonal to theta split into irreducible blocks; each one is
    reported with its highest-root norm and its dual Coxeter number with
    respect to the restricted (ambient) form, which is half of the Casimir
    eigenvalue (theta_i, theta_i + 2 rho_i).  All of it runs in linear
    passes on the doubled lattice, where form(a, b) = 2 (a, b) / (theta,
    theta).  theta is dominant, so a root orthogonal to it is supported on
    the simple roots orthogonal to it, and its block is the Dynkin piece of
    its support.  A piece is the support of its highest root, which comes
    first by decreasing height, so one pass labels the nodes and groups the
    roots by the label of their first node.  For the lexicographically
    positive roots, theta_i - beta is a sum of positive simple roots, so
    theta_i is the lexicographically greatest root.
    """
    theta = _lat(rs.theta)
    norm = _idot(theta, theta)  # form(a, b) = 2 * _idot(a, b) / norm
    zero_roots = [(a, c) for a, c in zip(rs.lattice, rs.coefficients)
                  if not _idot(a, theta)]
    half = sum(1 for a in rs.lattice if 2 * _idot(a, theta) == norm)
    piece, blocks = {}, {}  # piece: node -> first node of the piece's top
    for a, c in sorted(zero_roots, key=lambda ac: -sum(ac[1])):
        first = next(i for i, m in enumerate(c) if m)
        if first not in piece:
            piece.update((i, first) for i, m in enumerate(c) if m)
        blocks.setdefault(piece[first], []).append(a)
    comps = sorted(map(sorted, blocks.values()), key=lambda b: (-len(b), b))
    to_root = dict(zip(rs.lattice, rs.roots))
    components = []
    for block in comps:
        pos = [a for a in block if a > tuple(-x for x in a)]  # lex positive
        two_rho_i = [sum(col) for col in zip(*pos)]  # 2 rho_i, doubled
        theta_i = block[-1]  # the greatest root of the block
        block_set = frozenset(block)
        if any(tuple(map(operator.add, theta_i, a)) in block_set for a in pos):
            raise ValueError(f"{theta_i} is not the highest root of its block")
        fam, trank = classify_subsystem(block)
        components.append(
            RootSubsystem(
                roots=tuple(to_root[a] for a in block),
                rank=trank,
                family=fam,
                highest_root=to_root[theta_i],
                theta_norm=Q(2 * _idot(theta_i, theta_i), norm),
                dual_coxeter0=Q(_idot(theta_i, vadd(theta_i, two_rho_i)), norm),
            )
        )
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


