import hashlib
import json
from fractions import Fraction as Q

import pytest

from vkg.collapsing import (
    DEFAULT_AUDIT_ALGEBRAS,
    NotCollapsingError,
    TABLE5_SUPER,
    collapsed_level,
    is_collapsing,
    p_of_k,
    stored_table5_rows,
    table1_audit,
    table1_expected,
    table5_audit,
)
from vkg.rootdata import UnsupportedAlgebraError, build_root_system

from helpers import component_level


def test_polynomial_examples():
    assert set(p_of_k(("E", 8)).roots) == {-6, -10}
    for l in (4, 5, 6, 8):
        assert set(p_of_k(("D", l)).roots) == {-2, 2 - l}
    assert set(p_of_k(("G", 2)).roots) == {Q(-4, 3), Q(-5, 3)}
    assert set(p_of_k(("A", 2)).roots) == {-1, Q(-3, 2)}
    assert set(p_of_k(("C", 3)).roots) == {Q(-1, 2), Q(-5, 2)}
    assert set(p_of_k(("B", 3)).roots) == {-2, Q(-3, 2)}
    p = p_of_k(("E", 7))
    assert p.evaluate(-4) == 0 and p.evaluate(-6) == 0 and p.evaluate(-5) != 0


@pytest.mark.parametrize("g, name, asked", [
    (("A", 1), "sl(2)", "sl(2)"),
    (("C", 1), "sl(2)", "sp(2)"),
    (("B", 1), "sl(2)", "so(3)"),
    (("D", 2), "so(4)", "so(4)"),
])
def test_untabulated_error_texts(g, name, asked):
    """p(k) and Table 5 name the canonical type; Table 1 names the algebra
    it was asked for."""
    cases = [
        (p_of_k, f"no collapsing polynomial tabulated for {name}"),
        (table1_expected, f"no table row for {asked}"),
        (stored_table5_rows, f"no stored collapsing rows for {name}"),
    ]
    for fn, text in cases:
        with pytest.raises(UnsupportedAlgebraError) as exc:
            fn(g)
        assert str(exc.value) == text


def test_roots_never_critical():
    for g in DEFAULT_AUDIT_ALGEBRAS:
        rs = build_root_system(*g)
        for r in p_of_k(g).roots:
            assert r != -rs.dual_coxeter


def test_is_collapsing_examples():
    assert is_collapsing(("E", 7), -6)
    assert not is_collapsing(("E", 7), -18)
    assert not is_collapsing(("D", 5), -1)
    assert is_collapsing(("D", 5), -3)
    assert is_collapsing(("C", 4), Q(-1, 2))


def test_component_level_examples():
    # the rank-one factor of type D at level -2 sits at level rank - 4
    for l in (4, 5, 6):
        gd_levels = {
            i: component_level(("D", l), -2, i)
            for i in range(2 if l > 4 else (3 if l == 4 else 1))
        }
        assert l - 4 in gd_levels.values()
    # type B analogue: rank - 7/2
    for l in (2, 3, 4):
        levels = set()
        rs = build_root_system("B", l)
        from vkg.rootdata import minimal_grading_data
        gd = minimal_grading_data(rs)
        for i in range(len(gd.components)):
            levels.add(component_level(("B", l), -2, i))
        assert Q(2 * l - 7, 2) in levels
    # the big exceptional case
    assert component_level(("E", 8), -10, 0) == -4


def test_collapsed_level_examples():
    assert collapsed_level(("E", 6), -4) == ("sl(6)", -1)
    assert collapsed_level(("F", 4), -3) == ("sp(6)", Q(-1, 2))
    assert collapsed_level(("D", 4), -2) == ("C", 0)
    assert collapsed_level(("E", 8), -10) == ("E7", -4)
    assert collapsed_level(("E", 7), -6) == ("so(12)", -2)
    assert collapsed_level(("G", 2), Q(-4, 3)) == ("sl(2)", 1)
    assert collapsed_level(("A", 3), -1) == ("M(1)", 1)
    with pytest.raises(NotCollapsingError):
        collapsed_level(("E", 6), -5)


def test_short_root_target_rescaling():
    """so(7) at -3/2 collapses onto a short-root so(3): the minimal-root
    normalization doubles the restricted component level."""
    assert component_level(("B", 3), Q(-3, 2), 1) in (Q(1, 2), Q(2))
    target, kp = collapsed_level(("B", 3), Q(-3, 2))
    assert target == "sl(2)"
    assert kp == 1  # 2 * (1/2), restricted highest root has squared length 1


# large classical algebras, to exercise the root-data passes at rank 20
RANK_20 = (("A", 20), ("B", 20), ("C", 20), ("D", 20))


def test_table5_audit_all_clean():
    report = table5_audit(DEFAULT_AUDIT_ALGEBRAS + RANK_20)
    assert report, "audit must cover rows"
    assert all(r["ok"] for r in report)
    audited = {(r["algebra"], r["k"]) for r in report}
    for needed in [
        ("E8", Q(-10)), ("E7", Q(-6)), ("E6", Q(-4)),
        ("F4", Q(-3)), ("G2", Q(-4, 3)),
    ]:
        assert needed in audited


def test_stored_levels_are_the_roots_of_p():
    """The converse of the audit's root check: every root of p(k) has a
    stored row (D4's double root -2 has one)."""
    for g in DEFAULT_AUDIT_ALGEBRAS + RANK_20:
        levels = {row.k for row in stored_table5_rows(g)}
        assert set(p_of_k(g).roots) == levels, g


def test_table5_c_rows_all_audited():
    report = table5_audit()
    c_rows = [r for r in report if r["stored"]["target"] == "C"]
    assert len(c_rows) >= 10
    for r in c_rows:
        assert r["stored"]["k_prime"] == 0 and r["ok"]


def test_table1_audit_all_clean():
    report = table1_audit(DEFAULT_AUDIT_ALGEBRAS + RANK_20)
    assert all(r["ok"] for r in report)
    assert all(r["dim_identity"] for r in report)


@pytest.mark.parametrize("g, iso, values", [
    (("D", 3), ("A", 3), (4, (("A", 1),), 1, 4)),
    (("C", 2), ("B", 2), (3, (("A", 1),), 0, 2)),
])
def test_tables_agree_across_exceptional_isomorphisms(g, iso, values):
    """D3 = A3 and C2 = B2: both tables give the isomorphic type's values;
    a Table 1 row keeps the algebra it was asked for."""
    row = table1_expected(g)
    assert row.algebra == g
    assert row[1:] == table1_expected(iso)[1:] == values
    assert stored_table5_rows(g) == stored_table5_rows(iso)


def test_stored_rows_shape():
    rows = stored_table5_rows(("E", 8))
    assert [(r.k, r.target, r.k_prime) for r in rows] == [
        (-10, "E7", -4), (-6, "C", 0),
    ]
    rows = stored_table5_rows(("D", 4))
    assert [(r.k, r.target, r.k_prime) for r in rows] == [(-2, "C", 0)]


def test_super_rows_are_reference_only():
    assert len(TABLE5_SUPER) == 25
    assert all(len(row) == 4 for row in TABLE5_SUPER)
    assert all(isinstance(x, str) for row in TABLE5_SUPER for x in row)


def _report_digest(report):
    text = json.dumps(report, default=repr, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_audit_report_digest():
    """The full reports, fields no CLI output shows included, stay fixed."""
    assert _report_digest(table1_audit(DEFAULT_AUDIT_ALGEBRAS)) == "d785f21593d88bc2"
    assert _report_digest(table5_audit()) == "fadfdc539c950a0e"
