"""Collapsing levels of minimal W-algebras: table data and the exact pipeline.

For a simple Lie algebra g with highest root theta, the simple minimal
W-algebra at level k equals its affine subalgebra exactly when k is not the
critical level and p(k) = 0 for the tabulated quadratic p.  The surviving
affine factor and its renormalized level k' are recomputed here from root
data alone: component levels come from k_i = k + (h - h0_i)/2 and the final
level is rescaled so the surviving component's minimal root has squared
length 2.

The roots of p(k), the Table 1 values and the Table 5 rows of each Lie
algebra come from one per-type table, _paper_rows, read only through _lookup.

Rows for the basic Lie superalgebras are carried verbatim as strings; they
are reference data only and nothing here computes with them.
"""

from fractions import Fraction as Q
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from .rootdata import (
    GType,
    GradingData,
    UnsupportedAlgebraError,
    build_root_system,
    canonical_name,
    canonical_type,
    minimal_grading_data,
)


class NotCollapsingError(ValueError):
    """The requested level is not a collapsing level for this algebra."""


class CollapsePolynomial(NamedTuple):
    """p(k) in factored form: p(k) = (k - r1)(k - r2)."""

    algebra: GType
    roots: Tuple[Q, Q]

    def evaluate(self, k) -> Q:
        k = Q(k)
        return (k - self.roots[0]) * (k - self.roots[1])


class CollapsingRow(NamedTuple):
    """One audited row: level k, surviving target, renormalized level k'."""

    algebra: GType
    k: Q
    target: str       # canonical algebra name, "C", or "M(1)"
    k_prime: Q


class Table1Row(NamedTuple):
    algebra: GType
    dual_coxeter: Q
    components: Tuple[GType, ...]   # canonical types of the simple pieces
    center_dim: int
    dim_g_half: int


def _paper_rows(t: GType):
    """The paper's rows for one canonical type, or None if it has none.

    Returns the two roots of p(k); the Table 1 values (h^vee, the sorted
    component types, the center dimension, dim g_{1/2}); and the Table 5
    rows (k, target, k'), each target a canonical name, "C" or "M(1)".
    """
    fam, rank = t
    sizes = {"A": rank + 1, "B": 2 * rank + 1, "C": 2 * rank, "D": 2 * rank}
    n = sizes.get(fam)  # the classical rows are for sl(n), so(n) and sp(n)
    if fam == "A" and n >= 3:
        roots = (Q(-1), Q(-n, 2))
        comps = (("A", n - 3),) if n >= 4 else ()
        top = (canonical_name("A", n - 3), Q(2 - n, 2)) if n >= 4 else ("C", 0)
        table1 = (Q(n), comps, 1, 2 * (n - 2))
        table5 = [(-1, "M(1)", 1), (Q(-n, 2), *top)]
    elif fam in ("B", "D") and n >= 5:
        rest = canonical_type("B" if n % 2 else "D", (n - 4) // 2)  # so(n - 4)
        roots = (Q(-2), Q(4 - n, 2))
        comps = (("A", 1), rest)
        top = (canonical_name(*rest), Q(8 - n, 2))
        if n == 5:  # so(1) = 0
            comps, top = (("A", 1),), ("C", 0)
        elif n == 7:
            # the target so(3) is short-root: its stored k' follows the
            # minimal-root normalization (squared length 2), which rescales
            # the restricted component level by 2
            top = ("sl(2)", 1)
        table5 = [(-2, "sl(2)", Q(n - 8, 2)), (Q(4 - n, 2), *top)]
        if n == 8:  # so(4) = sl(2) + sl(2), and -2 is a double root of p(k)
            comps, table5 = (("A", 1),) * 3, [(-2, "C", 0)]
        table1 = (Q(n - 2), comps, 0, 2 * (n - 4))
    elif fam == "C" and n >= 6:
        rest = canonical_type("C", rank - 1)  # sp(n - 2)
        roots = (Q(-1, 2), Q(-(n + 4), 4))
        table1 = (Q(n + 2, 2), (rest,), 0, n - 2)
        table5 = [
            (Q(-1, 2), "C", 0),
            (Q(-(n + 4), 4), canonical_name(*rest), Q(-(n + 2), 4)),
        ]
    elif t == ("G", 2):
        roots = (Q(-4, 3), Q(-5, 3))
        table1 = (Q(4), (("A", 1),), 0, 4)
        table5 = [(Q(-4, 3), "sl(2)", 1), (Q(-5, 3), "C", 0)]
    elif t == ("F", 4):
        roots = (Q(-5, 2), Q(-3))
        table1 = (Q(9), (("C", 3),), 0, 14)
        table5 = [(-3, "sp(6)", Q(-1, 2)), (Q(-5, 2), "C", 0)]
    elif t == ("E", 6):
        roots = (Q(-3), Q(-4))
        table1 = (Q(12), (("A", 5),), 0, 20)
        table5 = [(-4, "sl(6)", -1), (-3, "C", 0)]
    elif t == ("E", 7):
        roots = (Q(-4), Q(-6))
        table1 = (Q(18), (("D", 6),), 0, 32)
        table5 = [(-6, "so(12)", -2), (-4, "C", 0)]
    elif t == ("E", 8):
        roots = (Q(-6), Q(-10))
        table1 = (Q(30), (("E", 7),), 0, 56)
        table5 = [(-10, "E7", -4), (-6, "C", 0)]
    else:
        return None
    return roots, table1, table5


def _lookup(t: GType, refusal: str):
    """The paper rows of a canonical type; refuses it with ``refusal``."""
    rows = _paper_rows(t)
    if rows is None:
        raise UnsupportedAlgebraError(refusal)
    return rows


def p_of_k(g: GType) -> CollapsePolynomial:
    """The factored collapsing polynomial for a simple Lie algebra."""
    t = canonical_type(*g)
    refusal = f"no collapsing polynomial tabulated for {canonical_name(*t)}"
    return CollapsePolynomial(t, _lookup(t, refusal)[0])


def is_collapsing(g: GType, k) -> bool:
    """k is collapsing iff k is non-critical and a root of p(k)."""
    k = Q(k)
    rs = build_root_system(*g)
    if k == -rs.dual_coxeter:
        return False
    return p_of_k(g).evaluate(k) == 0


@lru_cache(maxsize=None)
def _grading_data(g: GType) -> GradingData:
    """``minimal_grading_data`` of one type, computed once per process and
    keyed by the type, not by its root system."""
    return minimal_grading_data(build_root_system(*g))


def _levels(rs, gd, k: Q) -> Tuple[List[Q], Q]:
    """Levels k + (h - h0_i)/2 of the components and k + h/2 of the center."""
    h = rs.dual_coxeter
    return [k + (h - c.dual_coxeter0) / 2 for c in gd.components], k + h / 2


def collapsed_level(g: GType, k) -> Tuple[str, Q]:
    """Target of the collapse at level k and its renormalized level k'.

    Returns ("C", 0) when every component level vanishes, ("M(1)", 1) when
    only the one-dimensional center survives, and otherwise the canonical
    name of the unique surviving simple component with
    k' = k_i * 2 / (theta_i, theta_i) under the restricted form.
    """
    k = Q(k)
    if not is_collapsing(g, k):
        raise NotCollapsingError(f"{canonical_name(*g)} at k = {k}")
    rs = build_root_system(*g)
    gd = _grading_data(g)
    levels, center_level = _levels(rs, gd, k)
    survivors = [(comp, ki) for comp, ki in zip(gd.components, levels) if ki]
    center_survives = gd.center_dim > 0 and center_level != 0
    if not survivors and not center_survives:
        return ("C", Q(0))
    if not survivors and center_survives:
        return ("M(1)", Q(1))
    if len(survivors) > 1 or center_survives:
        raise NotCollapsingError(
            f"multiple components survive for {canonical_name(*g)} at k = {k}"
        )
    comp, ki = survivors[0]
    return (comp.type_label, ki * 2 / comp.theta_norm)


# ---------------------------------------------------------------------------
# Table 1 (Lie-algebra rows), instantiable per rank


def table1_expected(g: GType) -> Table1Row:
    rows = _lookup(canonical_type(*g), f"no table row for {canonical_name(*g)}")
    return Table1Row(g, *rows[1])


def table1_audit(algebras: Sequence[GType]) -> List[dict]:
    """Recompute dual Coxeter numbers and centralizer data; diff per row."""
    report = []
    for g in algebras:
        rs = build_root_system(*g)
        gd = _grading_data(g)
        expected = table1_expected(g)
        got_comps = sorted((c.family, c.rank) for c in gd.components)
        dim_g = len(rs.roots) + rs.rank
        entry = {
            "algebra": canonical_name(*g),
            "h_dual": rs.dual_coxeter,
            "h_dual_expected": expected.dual_coxeter,
            "components": [canonical_name(*c) for c in got_comps],
            "components_expected": [
                canonical_name(*c) for c in expected.components
            ],
            "center_dim": gd.center_dim,
            "center_dim_expected": expected.center_dim,
            "dim_g_half": gd.dim_g_half,
            "dim_g_half_expected": expected.dim_g_half,
            "dim_identity": dim_g == gd.dim_gnat + 3 + 2 * gd.dim_g_half,
        }
        entry["ok"] = entry["dim_identity"] and all(
            entry[key] == entry[key + "_expected"]
            for key in ("h_dual", "components", "center_dim", "dim_g_half")
        )
        report.append(entry)
    return report


# ---------------------------------------------------------------------------
# Table 5 (Lie-algebra rows), stored and audited


def stored_table5_rows(g: GType) -> List[CollapsingRow]:
    """The tabulated (k, target, k') rows for one simple Lie algebra."""
    t = canonical_type(*g)
    rows = _lookup(t, f"no stored collapsing rows for {canonical_name(*t)}")
    return [CollapsingRow(t, Q(k), target, Q(kp)) for k, target, kp in rows[2]]


DEFAULT_AUDIT_ALGEBRAS: Tuple[GType, ...] = (
    ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
    ("C", 3), ("C", 4), ("C", 5), ("C", 6),
    ("D", 3), ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8),
    ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8),
)


def table5_audit(
    algebras: Sequence[GType] = DEFAULT_AUDIT_ALGEBRAS,
) -> List[dict]:
    """Recompute every stored Lie-algebra collapsing row and diff it."""
    report = []
    for g in algebras:
        rows, p = stored_table5_rows(g), p_of_k(g)
        for row in rows:
            root_ok = p.evaluate(row.k) == 0
            try:  # collapsed_level refuses a level that is not collapsing
                target, kp = collapsed_level(g, row.k)
                ok = root_ok and target == row.target and kp == row.k_prime
                got = {"target": target, "k_prime": kp}
            except NotCollapsingError as exc:
                ok, got = False, {"error": str(exc)}
            report.append(
                {
                    "algebra": canonical_name(*g),
                    "k": row.k,
                    "stored": {"target": row.target, "k_prime": row.k_prime},
                    "recomputed": got,
                    "p_root": root_ok,
                    "ok": ok,
                }
            )
    return report


# ---------------------------------------------------------------------------
# Superalgebra rows: reference data only, never computed with


TABLE4_SUPER = (
    ("sl(m|n), n!=m", "(k+1)(k+(m-n)/2)"),
    ("psl(m|m)", "k(k+1)"),
    ("osp(m|n)", "(k+2)(k+(m-n-4)/2)"),
    ("spo(n|m)", "(k+1/2)(k+(n-m+4)/4)"),
    ("D(2,1;a)", "(k-a)(k+1+a)"),
    ("F(4), g_nat=so(7)", "(k+2/3)(k-2/3)"),
    ("F(4), g_nat=D(2,1;2)", "(k+3/2)(k+1)"),
    ("G(3), g_nat=G2", "(k-1/2)(k+3/4)"),
    ("G(3), g_nat=osp(3|2)", "(k+2/3)(k+4/3)"),
)

TABLE5_SUPER = (
    ("sl(m|n), m!=n, m>3, m-2!=n", "sl(m-2|n)", "(n-m)/2", "(n-m+2)/2"),
    ("sl(3|n), n!=0,1,3", "sl(1|n)", "(n-3)/2", "(1-n)/2"),
    ("sl(2|n), n!=0,1,2", "sl(n)", "(n-2)/2", "-n/2"),
    ("sl(2|1)=spo(2|2)", "C", "-1/2", "0"),
    ("sl(m|n), m!=n,n+1,n+2, m>=2", "M(1)", "-1", "1"),
    ("psl(m|m), m>=2", "C", "-1", "0"),
    ("spo(n|m), m!=n,n+2, n>=4", "spo(n-2|m)", "(m-n-4)/4", "(m-n-2)/4"),
    ("spo(2|m), m>=5", "so(m)", "(m-6)/4", "(4-m)/2"),
    ("spo(2|3)", "sl(2)", "-3/4", "1"),
    ("spo(2|1)", "C", "-5/4", "0"),
    ("spo(n|m), m!=n+1, n>=2", "C", "-1/2", "0"),
    ("osp(m|n), m!=n,n+8, m>=7", "osp(m-4|n)", "(n-m+4)/2", "(8-m+n)/2"),
    ("osp(m|n), n!=m,0, 4<=m<=6", "osp(m-4|n)", "(n-m+4)/2", "(m-n-8)/4"),
    ("osp(m|n), m!=n+4,n+8, m>=4", "sl(2)", "-2", "(m-n-8)/2"),
    ("osp(n+8|n), n>=0", "C", "-2", "0"),
    ("D(2,1;a)", "sl(2)", "a", "-(1+2a)/(1+a)"),
    ("D(2,1;a)", "sl(2)", "-a-1", "-(1+2a)/a"),
    ("F(4)", "D(2,1;2)", "-1", "1/2"),
    ("F(4)", "C", "-3/2", "0"),
    ("F(4)", "so(7)", "2/3", "-2"),
    ("F(4)", "C", "-2/3", "0"),
    ("G(3)", "G2", "1/2", "-5/3"),
    ("G(3)", "C", "-3/4", "0"),
    ("G(3)", "osp(3|2)", "-2/3", "1"),
    ("G(3)", "C", "-4/3", "0"),
)
