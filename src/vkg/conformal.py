"""Sugawara conformal weights, collapsing-level weight equations, and the
classified module lists for the relevant categories of locally finite
modules.  The module lists are one ordered case table, _CASES: each row
holds a quotient, a condition on (family, rank, k, h_dual), a builder of the
weight families and a provenance string, and the first matching row wins.

Levels are always non-critical here: k = -h is rejected.  All outputs are
exact rational numbers or explicit weight families; a family is either a
finite arithmetic progression of weights or an infinite one materialized
lazily up to a caller-supplied bound.
"""

from fractions import Fraction as Q
from typing import List, NamedTuple, Optional, Tuple

from .rootdata import (
    GType,
    RootSystem,
    Vec,
    build_root_system,
    canonical_name,
    canonical_type,
    casimir_eigenvalue,
    fundamental_weight,
    vadd,
    vscale,
    vzero,
)


class CriticalLevelError(ValueError):
    """Raised when k equals minus the dual Coxeter number."""


class NotClassifiedError(ValueError):
    """The (algebra, level, quotient) triple is outside the classified list."""


def _shifted_level(rs: RootSystem, k) -> Q:
    k = Q(k)
    if k == -rs.dual_coxeter:
        raise CriticalLevelError(f"critical level {k} for {rs.label}")
    return k


def sugawara_weight(rs: RootSystem, mu: Vec, k) -> Q:
    """(mu, mu + 2 rho) / (2 (k + h)): the L(0) eigenvalue on weight mu."""
    k = _shifted_level(rs, k)
    return casimir_eigenvalue(rs, mu) / (2 * (k + rs.dual_coxeter))


def w_lowest_weight(rs: RootSystem, mu: Vec, k) -> Q:
    """Lowest conformal weight of the reduced module: Sugawara minus mu(x).

    x = theta-coroot / 2, so mu(x) = (mu, theta)/2 under the normalized form.
    """
    return sugawara_weight(rs, mu, k) - rs.form(mu, rs.theta) / 2


def ell_equation_roots(k) -> Tuple[Q, Q]:
    """Roots in ell of ell^2 - (k+1) ell = 0: always {0, k+1}."""
    k = Q(k)
    return (Q(0), k + 1)


def collapse_ell_roots(rs: RootSystem, k) -> Tuple[Q, Q]:
    """Exact root set of the theta-coefficient equation at level k."""
    _shifted_level(rs, k)
    return ell_equation_roots(k)


# ---------------------------------------------------------------------------
# Classified module families


class WeightFamily(NamedTuple):
    """Arithmetic progression base + t * step, t = 0 .. count-1 (None = all t >= 0)."""

    base: Vec
    step: Vec
    count: Optional[int]
    label: str

    def materialize(self, limit: int = 10) -> List[Vec]:
        n = self.count if self.count is not None else limit
        return [vadd(self.base, vscale(t, self.step)) for t in range(n)]

    @property
    def infinite(self) -> bool:
        return self.count is None


class KLSpectrum(NamedTuple):
    algebra: GType
    level: Q
    quotient: str
    families: Tuple[WeightFamily, ...]
    provenance: str

    def weights(self, limit: int = 10) -> List[Vec]:
        out = []
        for fam in self.families:
            out.extend(fam.materialize(limit))
        return out


QUOTIENTS = ("simple", "intermediate", "vbar")


def deligne_series() -> Tuple[GType, ...]:
    return (("A", 2), ("G", 2), ("D", 4), ("F", 4), ("E", 6), ("E", 7), ("E", 8))


def _ladder(rs: RootSystem, i: int, top: Optional[int],
            var: str) -> WeightFamily:
    """var * omega_i for 0 <= var <= top, or for every var >= 0 if None."""
    span = f"all {var} >= 0" if top is None else f"0 <= {var} <= {top}"
    count = None if top is None else top + 1
    return WeightFamily(vzero(rs.ambient), fundamental_weight(rs, i), count,
                        f"{var}*omega{i}, {span}")


def _trivial(rs: RootSystem) -> Tuple[WeightFamily, ...]:
    zero = vzero(rs.ambient)
    return (WeightFamily(zero, zero, 1, "trivial weight only"),)


def _spin(rs: RootSystem) -> Tuple[WeightFamily, ...]:
    return (_ladder(rs, rs.rank, None, "t"),
            _ladder(rs, rs.rank - 1, None, "t"))


# (quotient, condition on (family, rank, k, h_dual), families, provenance).
# The first matching row wins, so the order is part of the contract: D4 at
# k = -2 is the Deligne row before the even-rank-D and the D-ladder rows.
_CASES = (
    ("simple", lambda f, r, k, h: (f, r) in deligne_series()
     and k == -h / 6 - 1,
     _trivial, "unique module at the exceptional-series level"),
    ("simple", lambda f, r, k, h: (f, r) == ("E", 8) and k == -10,
     _trivial, "unique module at k = -10"),
    ("simple", lambda f, r, k, h: f == "D" and r % 2 == 0 and r >= 4
     and k == -h / 2 + 1,
     _trivial, "unique module for even-rank D at k = 2 - rank"),
    ("simple", lambda f, r, k, h: f == "D" and r >= 4 and k == -2,
     lambda rs: (_ladder(rs, 1, rs.rank - 4, "j"),),
     "simple quotient of type D at level -2: finite omega1 ladder"),
    ("simple", lambda f, r, k, h: f == "B" and r >= 3 and k == -2,
     lambda rs: (_ladder(rs, 1, 2 * (rs.rank - 3) + 1, "j"),),
     "simple quotient of type B at level -2: finite omega1 ladder"),
    ("simple", lambda f, r, k, h: (f, r) == ("B", 2) and k == -2,
     lambda rs: (_ladder(rs, 1, None, "j"),),
     "B2 at level -2: the quadratic quotient is already simple"),
    ("simple", lambda f, r, k, h: f == "D" and r % 2 == 1 and r >= 5
     and k == 2 - r,
     _spin, "odd-rank D at k = 2 - rank: the two spin ladders"),
    # For D4 this list is the quotient by w1 and w3 together: in Zhu's
    # algebra w1 alone also allows j*omega3 (ROADMAP, Zhu's-algebra
    # certification).  The provenance text and the list stay as stored.
    ("intermediate", lambda f, r, k, h: f == "D" and r >= 4 and k == -2,
     lambda rs: (_ladder(rs, 1, None, "j"),),
     "type D at level -2, quotient by the quadratic vector: "
     "infinite omega1 ladder"),
    ("intermediate", lambda f, r, k, h: f == "B" and r >= 2 and k == -2,
     lambda rs: (_ladder(rs, 1, None, "j"),),
     "type B at level -2, quotient by the quadratic vector: "
     "infinite omega1 ladder"),
    ("intermediate", lambda f, r, k, h: (f, r) == ("D", 6) and k == -4,
     lambda rs: (_ladder(rs, 6, None, "s"),),
     "D6 at level -4, quotient by the quadratic and one cubic vector: "
     "single spin ladder"),
    ("vbar", lambda f, r, k, h: f == "D" and r >= 3 and k == 2 - r,
     _spin, "type D at k = 2 - rank, quotient by the quadratic vector: "
     "two spin ladders"),
)

_NOT_CLASSIFIED = {
    "simple": "no classification stored for simple {g} at k = {k}",
    "intermediate": "no intermediate quotient stored for {g} at k = {k}",
    "vbar": "no vbar classification stored for {g} at k = {k}",
}


def kl_spectrum(g: GType, k, quotient: str = "simple") -> KLSpectrum:
    """Complete irreducible-module lists in the locally finite category.

    The answer is the first row of _CASES that matches the canonical algebra
    type, the exact level and the quotient.  For odd-rank D the 'vbar' spin
    ladders at k = 2 - rank also classify the simple quotient.  Anything
    else raises NotClassifiedError.
    """
    g = canonical_type(*g)
    rs = build_root_system(*g)
    k = _shifted_level(rs, k)
    if quotient not in QUOTIENTS:
        raise ValueError(f"unknown quotient {quotient!r}; pick from {QUOTIENTS}")
    for q, matches, families, why in _CASES:
        if q == quotient and matches(*g, k, rs.dual_coxeter):
            return KLSpectrum(g, k, quotient, families(rs), why)
    raise NotClassifiedError(
        _NOT_CLASSIFIED[quotient].format(g=canonical_name(*g), k=k)
    )
