import hashlib
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from vkg.conformal import (
    CriticalLevelError,
    NotClassifiedError,
    QUOTIENTS,
    collapse_ell_roots,
    deligne_series,
    ell_equation_roots,
    kl_spectrum,
    sugawara_weight,
    w_lowest_weight,
)
from vkg.collapsing import p_of_k
from vkg.rootdata import (
    build_root_system,
    fundamental_weight,
    vadd,
    vec,
    vscale,
    vzero,
)

from helpers import (
    deligne_level_roots,
    half_level_roots,
    nonnegative_solutions,
    solve_quoted_s_equation,
    spectrum_is_dominant,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def test_sugawara_examples():
    rs = build_root_system("D", 4)
    assert sugawara_weight(rs, vzero(4), Q(5, 7)) == 0
    assert sugawara_weight(rs, rs.theta, -2) == Q(3, 2)
    with pytest.raises(CriticalLevelError):
        sugawara_weight(rs, rs.theta, -6)


def test_w_lowest_weight_examples():
    rs = build_root_system("D", 6)
    assert w_lowest_weight(rs, vzero(6), Q(1, 3)) == 0
    for l in range(4, 9):
        rsl = build_root_system("D", l)
        for j in range(0, 7):
            mu = vscale(j, fundamental_weight(rsl, 1))
            assert w_lowest_weight(rsl, mu, -2) == Q(j * (j + 2), 4 * (l - 2))


@given(ell=rationals, k=rationals)
def test_theta_coefficient_identity(ell, k):
    """(ell theta, ell theta + 2 rho)/(2(k+h)) - ell = (ell^2 - (k+1) ell)/(k+h)."""
    rs = build_root_system("D", 5)
    if k == -rs.dual_coxeter:
        return
    mu = vscale(ell, rs.theta)
    got = w_lowest_weight(rs, mu, k)
    assert got == (ell * ell - (k + 1) * ell) / (k + rs.dual_coxeter)


def test_two_weight_vanishing_identity():
    """The conformal-weight matching condition at level -2 in type D is
    s (s + j + 1) = 0 once the pure-omega1 value is subtracted."""
    for l in (4, 5, 6, 7):
        rs = build_root_system("D", l)
        for j in range(0, 5):
            for s in range(0, 5):
                mu = vadd(
                    vscale(j, fundamental_weight(rs, 1)),
                    vscale(s, fundamental_weight(rs, 2)),
                )
                delta = w_lowest_weight(rs, mu, -2) - Q(j * (j + 2), 4 * (l - 2))
                assert delta == Q(s * (s + j + 1), 2 * (l - 2))
                assert (delta == 0) == (s == 0)


def test_quoted_equation_solutions():
    assert solve_quoted_s_equation(3) == (0, -8)
    assert solve_quoted_s_equation(0) == (0, -2)
    assert nonnegative_solutions(solve_quoted_s_equation(3)) == [0]
    # the displayed quadratic is satisfied by both branches
    for j in range(0, 6):
        for s in solve_quoted_s_equation(j):
            assert (s + j) * (s + j + 2) == j * (j + 2)


def test_nonnegative_solution_filter():
    assert nonnegative_solutions([Q(0), Q(-9)]) == [0]
    assert nonnegative_solutions([Q(3, 2)], half_integral=True) == [Q(3, 2)]
    assert nonnegative_solutions([Q(3, 2)]) == []


def test_collapse_ell_roots_examples():
    rs = build_root_system("E", 8)
    assert collapse_ell_roots(rs, -10) == (0, -9)
    rs4 = build_root_system("D", 4)
    assert collapse_ell_roots(rs4, -2) == (0, -1)
    rs6 = build_root_system("D", 6)
    assert collapse_ell_roots(rs6, -4) == (0, -3)
    with pytest.raises(CriticalLevelError):
        collapse_ell_roots(rs4, -6)


def test_specializations_on_random_rationals():
    """The generic root set specializes to the two displayed quadratics."""
    rng = random.Random(2024)
    count = 0
    while count < 100:
        h = Q(rng.randint(-60, 120), rng.randint(1, 8))
        if h in (0, Q(6, 5)):  # degenerate denominators below
            continue
        count += 1
        k_half = -h / 2 + 1
        if k_half != -h:
            assert set(ell_equation_roots(k_half)) == set(half_level_roots(h))
        k_del = -h / 6 - 1
        if k_del != -h:
            assert set(ell_equation_roots(k_del)) == set(deligne_level_roots(h))
        # and the generic roots satisfy the quadratic identically
        k = Q(rng.randint(-40, 40), rng.randint(1, 6))
        for r in ell_equation_roots(k):
            assert r * r - (k + 1) * r == 0


def test_half_level_nonvanishing_family():
    # 2 ell + h - 4 never vanishes over the admissible ell grid when
    # h = 4m + 6: the nonzero root is negative
    for m in range(0, 8):
        h = 4 * m + 6
        r = half_level_roots(h)[1]
        assert r == Q(4 - h, 2) < 0
        assert nonnegative_solutions(half_level_roots(h), half_integral=True) == [0]


# ---------------------------------------------------------------------------
# classified families


def test_deligne_unique_module_and_table_membership():
    for g in deligne_series():
        rs = build_root_system(*g)
        k = -rs.dual_coxeter / 6 - 1
        spec = kl_spectrum(g, k)
        assert [w for w in spec.weights()] == [vzero(rs.ambient)]
        # cross-check: the level is a root of the tabulated polynomial
        assert p_of_k(g).evaluate(k) == 0


def test_even_rank_d_unique_module():
    for rank in (4, 6, 8):
        rs = build_root_system("D", rank)
        k = -rs.dual_coxeter / 2 + 1
        assert k == 2 - rank
        spec = kl_spectrum(("D", rank), k)
        assert spec.weights() == [vzero(rank)]
        assert p_of_k(("D", rank)).evaluate(k) == 0


def test_e8_minus_ten():
    spec = kl_spectrum(("E", 8), -10)
    assert spec.weights() == [vzero(8)]
    assert p_of_k(("E", 8)).evaluate(-10) == 0


@pytest.mark.parametrize("rank,bound", [(4, 0), (5, 1), (6, 2), (7, 3)])
def test_d_level_minus_two_simple(rank, bound):
    spec = kl_spectrum(("D", rank), -2)
    rs = build_root_system("D", rank)
    w1 = fundamental_weight(rs, 1)
    expected = [vscale(j, w1) for j in range(bound + 1)]
    assert spec.weights() == expected
    assert spectrum_is_dominant(spec)


@pytest.mark.parametrize("rank,bound", [(3, 1), (4, 3), (5, 5)])
def test_b_level_minus_two_simple(rank, bound):
    spec = kl_spectrum(("B", rank), -2)
    rs = build_root_system("B", rank)
    w1 = fundamental_weight(rs, 1)
    assert spec.weights() == [vscale(j, w1) for j in range(bound + 1)]
    # the bound is inclusive and sharp
    assert vscale(bound, w1) in spec.weights()
    assert vscale(bound + 1, w1) not in spec.weights()


def test_b2_infinite_family():
    spec = kl_spectrum(("B", 2), -2)
    assert spec.families[0].infinite
    ws = spec.weights(limit=5)
    assert ws == [vec(j, 0) for j in range(5)]


def test_intermediate_families_infinite():
    for g in (("D", 6), ("B", 4)):
        spec = kl_spectrum(g, -2, "intermediate")
        assert all(f.infinite for f in spec.families)
        assert spectrum_is_dominant(spec)


def test_vbar_spin_families():
    spec = kl_spectrum(("D", 6), -4, "vbar")
    rs = build_root_system("D", 6)
    w6 = fundamental_weight(rs, 6)
    w5 = fundamental_weight(rs, 5)
    got = spec.weights(limit=6)
    for t in range(6):
        assert vscale(t, w6) in got
        assert vscale(t, w5) in got
    assert spectrum_is_dominant(spec)


def test_d6_minus_four_intermediate_single_spin_ladder():
    spec = kl_spectrum(("D", 6), -4, "intermediate")
    rs = build_root_system("D", 6)
    w6 = fundamental_weight(rs, 6)
    assert spec.weights(limit=4) == [vscale(t, w6) for t in range(4)]


def test_odd_rank_d_simple_spin_families():
    spec = kl_spectrum(("D", 5), -3)
    assert len(spec.families) == 2
    assert all(f.infinite for f in spec.families)


def test_not_classified_errors():
    with pytest.raises(NotClassifiedError):
        kl_spectrum(("D", 6), -3)
    with pytest.raises(NotClassifiedError):
        kl_spectrum(("A", 4), -2)
    with pytest.raises(NotClassifiedError):
        kl_spectrum(("D", 6), -2, "vbar")
    with pytest.raises(CriticalLevelError):
        kl_spectrum(("D", 6), -10)
    with pytest.raises(ValueError):
        kl_spectrum(("D", 6), -2, "mystery")


def test_cross_module_conformal_consistency():
    """Every classified level--2 family member reproduces the displayed
    lowest conformal weight."""
    for rank in (4, 5, 6, 7, 8):
        rs = build_root_system("D", rank)
        spec = kl_spectrum(("D", rank), -2)
        for j, mu in enumerate(spec.weights()):
            assert w_lowest_weight(rs, mu, -2) == Q(j * (j + 2), 4 * (rank - 2))
    for rank in (3, 4, 5):
        rs = build_root_system("B", rank)
        spec = kl_spectrum(("B", rank), -2)
        for j, mu in enumerate(spec.weights()):
            assert w_lowest_weight(rs, mu, -2) == Q(j * (j + 2), 2 * (2 * rank - 3))


KL_GRID_ALGEBRAS = (
    [("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(1, 8)] + [("D", r) for r in range(3, 11)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
KL_GRID_LEVELS = sorted({Q(n, d) for n in range(-32, 3) for d in (1, 2, 3, 6)})
KL_GRID_DIGEST = (
    "559f9c36cdb1a901170a768a87fba677c0ff8e1f71b6f6c1f05344760ee62e43"
)


def _kl_grid_line(g, k, quotient):
    try:
        spec = kl_spectrum(g, k, quotient)
    except ValueError as exc:  # critical level, not classified, bad quotient
        return f"{g} {k} {quotient}: {type(exc).__name__}: {exc}"
    fams = " ; ".join(
        f"{f.label} | {','.join(map(str, f.base))} | "
        f"{','.join(map(str, f.step))} | {f.count}"
        for f in spec.families
    )
    return (f"{g} {k} {quotient}: {spec.algebra} {spec.level} "
            f"{spec.quotient} {spec.provenance} :: {fams}")


def test_kl_spectrum_digest():
    """Every answer of the case table on a grid of 34 algebras, 88 levels
    and the three quotients plus an unknown one, byte for byte."""
    lines = [
        _kl_grid_line(g, k, q)
        for g in KL_GRID_ALGEBRAS for k in KL_GRID_LEVELS
        for q in QUOTIENTS + ("bogus",)
    ]
    assert (len(KL_GRID_ALGEBRAS), len(KL_GRID_LEVELS)) == (34, 88)
    assert sum("::" in line for line in lines) == 51
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == KL_GRID_DIGEST
