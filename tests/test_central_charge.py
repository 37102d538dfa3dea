"""Every stored Table 5 row, certified by central charges alone.

Kac-Wakimoto (Adv. Math. 2004) give the central charge of the minimal
W-algebra, c(W_k(g, theta)) = k dim g / (k + h) - 6k + h - 4, with h the dual
Coxeter number.  At a collapsing level W_k(g, theta) = V_{k'}(target), so the
two central charges agree.  Adamovic-Kac-Moseneder Frajria-Papi-Perse
(J. Algebra 2018, arXiv:1602.04687) show that V^k(g^nat) embeds conformally
in W_k(g, theta), that is c(W_k) = c(V^k(g^nat)), exactly at the roots of
p(k) and at k = -2h/3 and k = -(h - 1)/2: the stored rows are then all the
collapsing levels there are.

Nothing here reads the collapse rule of ``vkg.collapsing``: only its stored
rows and p(k) are checked, against root data from ``vkg.rootdata``.
"""

from fractions import Fraction as Q
from math import gcd, isqrt

import pytest

from vkg.collapsing import p_of_k, stored_table5_rows
from vkg.rootdata import (
    build_root_system,
    minimal_grading_data,
    parse_algebra,
)

ALGEBRAS = (
    [("A", n) for n in range(2, 13)] + [("B", n) for n in range(2, 13)]
    + [("C", n) for n in range(3, 13)] + [("D", n) for n in range(4, 13)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)


def _dim(system) -> int:
    """The dimension of the algebra of a root system or of a component."""
    return len(system.roots) + system.rank


def c_minimal(rs, k) -> Q:
    """Kac-Wakimoto: the central charge of W_k(g, theta)."""
    h = rs.dual_coxeter
    return k * _dim(rs) / (k + h) - 6 * k + h - 4


def c_target(target: str, k_prime) -> Q:
    """The central charge of a Table 5 target at its stored level."""
    if target == "C":
        return Q(0)
    if target == "M(1)":
        return Q(1)
    rs = parse_algebra(target)
    return k_prime * _dim(rs) / (k_prime + rs.dual_coxeter)


def table5_mismatches(rows):
    """The rows (g, k, target, k') on which c(W_k) != c(V_{k'}(target))."""
    return [(g, k, target, kp) for g, k, target, kp in rows
            if c_minimal(build_root_system(*g), k) != c_target(target, kp)]


def _stored_rows():
    return [(g, row.k, row.target, row.k_prime)
            for g in ALGEBRAS for row in stored_table5_rows(g)]


def test_every_stored_row_has_the_target_central_charge():
    """Kac-Wakimoto: at each stored (k, target, k'), c(W_k) equals the
    central charge of V_{k'}(target)."""
    rows = _stored_rows()
    assert len(ALGEBRAS) == 46 and len(rows) == 91
    assert table5_mismatches(rows) == []


@pytest.mark.parametrize("perturbed", ["k_prime", "target"])
def test_a_perturbed_row_fails(perturbed):
    """Negative control: one wrong k' or one wrong target in a local copy of
    the rows is caught, and only that row."""
    rows = _stored_rows()
    i = rows.index((("D", 8), Q(-6), "so(12)", Q(-4)))
    g, k, target, kp = rows[i]
    rows[i] = ((g, k, target, kp + 1) if perturbed == "k_prime"
               else (g, k, "E7", kp))
    assert table5_mismatches(rows) == [rows[i]]


# ---------------------------------------------------------------------------
# completeness: the roots of c(W_k) - c(V^k(g^nat))


def _interpolate(points):
    """Coefficients (constant first) of the polynomial through the points,
    by Newton's divided differences over Q."""
    xs = [x for x, _ in points]
    table = [y for _, y in points]
    newton = [table[0]]
    for j in range(1, len(xs)):
        table = [(table[i + 1] - table[i]) / (xs[i + j] - xs[i])
                 for i in range(len(table) - 1)]
        newton.append(table[0])
    coeffs = [Q(0)] * len(xs)
    for j in reversed(range(len(xs))):  # Horner on the Newton basis
        shifted = [Q(0)] + coeffs[:-1]
        coeffs = [s - xs[j] * c for s, c in zip(shifted, coeffs)]
        coeffs[0] += newton[j]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _divisors(n: int):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return set(small) | {n // d for d in small}


def _rational_roots(coeffs):
    """Every rational root of a nonzero polynomial over Q, by the rational
    root theorem on its integer multiple."""
    roots = set()
    while coeffs[0] == 0:  # a factor k
        roots.add(Q(0))
        coeffs = coeffs[1:]
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    deg = len(ints) - 1
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for num in (p, -p):
                if not sum(a * num ** i * q ** (deg - i)
                           for i, a in enumerate(ints)):
                    roots.add(Q(num, q))
    return roots


def conformal_levels(g, centre_rule=True):
    """The levels k at which c(W_k) = c(V^k(g^nat)).

    The simple components g_i of g^nat sit at the levels
    k_i = k + (h - h_i)/2, h_i their dual Coxeter numbers for the form
    restricted from g, and each central direction adds 1 at its level
    k + h/2, or 0 where that level is 0 (the rule for type A's centre).
    Away from k = -h/2 the difference times D(k) = (k + h) prod (k_i + h_i)
    is a polynomial of degree at most 2 + the number of components.  It is
    interpolated at positive integers, away from every pole, and the fit
    must hold at two more points, so it cannot pass by under-fitting.
    """
    rs = build_root_system(*g)
    gd = minimal_grading_data(rs)
    h = rs.dual_coxeter
    comps = [(h - c.dual_coxeter0, c.dual_coxeter0, _dim(c))
             for c in gd.components]

    def difference(k, centre):
        levels = [(k + shift / 2, hi, dim) for shift, hi, dim in comps]
        c_nat = sum(ki * dim / (ki + hi) for ki, hi, dim in levels)
        return c_minimal(rs, k) - c_nat - centre

    def numerator(k):
        denominator = k + h
        for shift, hi, _ in comps:
            denominator *= k + shift / 2 + hi
        return difference(k, gd.center_dim) * denominator

    bound = 2 + len(comps)
    coeffs = _interpolate([(Q(x), numerator(Q(x)))
                           for x in range(1, bound + 2)])
    for x in (bound + 2, bound + 3):
        assert sum(c * x ** i for i, c in enumerate(coeffs)) == numerator(x)
    levels = _rational_roots(coeffs)
    centre_zero = -h / 2
    if gd.center_dim and centre_rule:
        levels.discard(centre_zero)
        if difference(centre_zero, 0) == 0:
            levels.add(centre_zero)
    return levels


def completeness_failures(algebras, centre_rule=True, special=True):
    """The algebras whose conformal levels are not the roots of p(k) plus
    some of -2h/3 and -(h - 1)/2."""
    failures = []
    for g in algebras:
        levels = conformal_levels(g, centre_rule)
        h = build_root_system(*g).dual_coxeter
        allowed = {-2 * h / 3, -(h - 1) / 2} if special else set()
        roots = set(p_of_k(g).roots)
        if not roots <= levels or not levels - roots <= allowed:
            failures.append((g, sorted(levels)))
    return failures


def test_the_stored_levels_are_all_the_collapsing_levels():
    """Adamovic-Kac-Moseneder Frajria-Papi-Perse: c(W_k) = c(V^k(g^nat))
    exactly at the roots of p(k) and, possibly, at -2h/3 and -(h - 1)/2."""
    assert completeness_failures(ALGEBRAS) == []


def test_conformal_level_examples():
    """E8 has the special level -(h - 1)/2 = -29/2; A2 collapses at
    -h/2 = -3/2 only by the centre rule."""
    assert conformal_levels(("E", 8)) == {Q(-29, 2), Q(-10), Q(-6)}
    assert conformal_levels(("A", 2)) == {Q(-3, 2), Q(-1)}
    assert conformal_levels(("A", 2), centre_rule=False) == {Q(-1)}


@pytest.mark.parametrize("control, failing", [
    ({"special": False}, ("E", 8)),
    ({"centre_rule": False}, ("A", 4)),
])
def test_completeness_controls(control, failing):
    """Negative control: without the two special levels, or without the
    centre rule, the completeness check fails."""
    assert [g for g, _ in completeness_failures([failing], **control)] \
        == [failing]
