"""JSON shapes for root systems, realizations, and state vectors.

Rationals cross the boundary only as exact "p/q" strings (or "p" for
integers); weights are arrays of such strings.  A basis label is either
"h:i" for the i-th Cartan element or the comma-joined coordinates of a
root.  All emitted orderings are deterministic, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from typing import List

from .liealg import LieRealization
from .pbw import StateVector
from .rootdata import RootSystem, Vec

_FRACTION_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def frac_str(q) -> str:
    """"p/q", or "p" when integral; anything but an int or a Fraction (a
    bool, say) is read as a Fraction first."""
    return str(q) if type(q) in (int, Q) else str(Q(q))


def parse_frac(s: str) -> Q:
    """Strict exact-rational parser: integers or p/q, nothing else."""
    s = s.strip()
    if not _FRACTION_RE.match(s):
        raise ValueError(f"not an exact rational: {s!r}")
    return Q(s)


def weight_to_json(w: Vec) -> List[str]:
    return [frac_str(x) for x in w]


def parse_weight(text: str) -> Vec:
    """Parse a comma-separated coordinate list such as '1,1,0,0' or '1/2,...'."""
    return tuple(parse_frac(p) for p in text.split(","))


def base_label(lr: LieRealization, idx: int) -> str:
    kind, val = lr.labels[idx]
    if kind == "h":
        return f"h:{val}"
    return ",".join(frac_str(x) for x in val)


def root_system_to_json(rs: RootSystem) -> dict:
    return {
        "type": rs.family,
        "rank": rs.rank,
        "ambient_dim": rs.ambient,
        "dual_coxeter": frac_str(rs.dual_coxeter),
        "theta": weight_to_json(rs.theta),
        "rho": weight_to_json(rs.rho),
        "simple_roots": [weight_to_json(a) for a in rs.simple_roots],
        "positive_roots": [weight_to_json(a) for a in rs.positive_roots],
        "roots": [weight_to_json(a) for a in rs.roots],
    }


def realization_to_json(lr: LieRealization) -> dict:
    """Basis, sparse bracket triples, and the sparse invariant form.

    "bracket" and "form" are generators in sorted (a, b) order, which
    ``cli._write_json`` writes as lists without holding them whole; each
    can be read only once."""
    bracket, form, span = lr.bracket_table, lr.form_table, range(lr.dim)
    return {
        "root_system": root_system_to_json(lr.rs),
        "basis": [base_label(lr, i) for i in span],
        "bracket": ([a, b, [[i, frac_str(c)] for i, c in bracket[a, b]]]
                    for a in span for b in span if (a, b) in bracket),
        "form": ([a, b, frac_str(v)]
                 for (a, b), v in sorted(form.items()) if a <= b),
    }


def state_to_json(lr: LieRealization, v: StateVector) -> dict:
    terms = []
    for mono in sorted(v.terms):
        terms.append(
            {
                "monomial": [[base_label(lr, b), mode] for mode, b in mono],
                "coeff": frac_str(v.terms[mono]),
            }
        )
    return {
        "level": frac_str(v.level),
        "weight": weight_to_json(v.weight),
        "degree": int(v.degree) if Q(v.degree).denominator == 1 else frac_str(v.degree),
        "terms": terms,
    }
