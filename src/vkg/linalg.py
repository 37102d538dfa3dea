"""Exact Gaussian elimination over the rationals, sparse rows.

A matrix is a list of rows; each row is a dict mapping column index to a
nonzero Fraction.  `rref` eliminates in one Gauss-Jordan pass: rows go in
shortest first, and the pivot rows found so far stay reduced, with 1 at
their pivot and 0 in every other pivot column.  An incoming row subtracts
the pivot row of each pivot column it holds, which adds no entry in a
pivot column; its leftmost remaining column becomes a new pivot, and that
column is cleared from the pivot rows that hold it, found through an index
of column -> pivot rows.  Leads stay leftmost, so the pivot columns are the
leftmost linearly independent columns and the rows are the unique reduced
row echelon form, whatever the order or scale of the input rows.

The same pass also runs over Z/p, p = 2^61 - 1, with each n/d read as
n * d^-1 mod p.  The rank mod p is at most the rank over Q, so a full
column rank mod p proves that a kernel is empty: `nullspace` returns no
kernel on that certificate alone.  Mod p may prove a kernel empty, never
nonempty: a smaller rank mod p, or a denominator divisible by p (no
reduction exists), sends `nullspace` down the exact path, and every kernel
vector it returns comes from elimination over Q.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Dict, List, Optional, Sequence, Set, Tuple

Row = Dict[int, Q]

# The prime of the rank certificate in `nullspace`.
P = 2 ** 61 - 1


def row_sub(target: Row, factor: Q, source: Row) -> None:
    """target -= factor * source, factor nonzero; drops cancelled entries."""
    for col, val in source.items():
        old = target.get(col)
        if old is None:
            target[col] = -factor * val
        else:
            new = old - factor * val
            if new:
                target[col] = new
            else:
                del target[col]


def _echelon(rows: Sequence[Row], ncols: int,
             p: Optional[int] = None) -> Dict[int, Row]:
    """The Gauss-Jordan insertion pass: pivot column -> row with 1 there
    and 0 in every other pivot column.

    Over Q when p is None, else over Z/p with every entry an int in
    [1, p).  Once each of the ncols columns has a pivot, later rows cannot
    add one, so the pass stops there.
    """
    if p is None:
        sub = row_sub
    else:
        def sub(target: Row, factor: int, source: Row) -> None:
            for col, val in source.items():
                new = (target.get(col, 0) - factor * val) % p
                if new:
                    target[col] = new
                else:
                    del target[col]
    found: Dict[int, Row] = {}
    # column -> pivots whose rows may hold it (an entry can cancel later)
    holders: Dict[int, Set[int]] = {}
    for row in sorted((r for r in rows if r), key=len):
        if len(found) == ncols:
            break
        row = dict(row)
        for col in [c for c in row if c in found]:
            sub(row, row[col], found[col])
        lead = min((c for c in row if c < ncols), default=None)
        if lead is None:
            continue
        if p is None:
            inv = 1 / row[lead]
            row = {c: v * inv for c, v in row.items()}
        else:
            inv = pow(row[lead], -1, p)
            row = {c: v * inv % p for c, v in row.items()}
        found[lead] = row
        rest = [c for c in row if c != lead]
        for c in rest:
            holders.setdefault(c, set()).add(lead)
        for pc in holders.pop(lead, ()):
            held = found[pc]
            val = held.get(lead)
            if val:
                sub(held, val, row)
                for c in rest:
                    holders[c].add(pc)
    return found


def rref(rows: Sequence[Row], ncols: int) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column list).

    The rows come in pivot-column order.  Each is a dict whose value at
    each column is fixed; the order of its keys is not, so compare rows as
    dicts.  Columns >= ncols are carried along but never pivot; a row that
    cancels or whose leading entry lies there is dropped.  The carried
    entries are unique only when no nonzero combination of the rows
    vanishes on the first ncols columns; no caller in the package depends
    on them.
    """
    found = _echelon(rows, ncols)
    pivots = sorted(found)
    return [found[c] for c in pivots], pivots


def rank_mod(rows: Sequence[Row], ncols: int, p: int = P) -> Optional[int]:
    """Rank mod the prime p of the first ncols columns, each n/d read as
    n * d^-1; None when a denominator is divisible by p (no reduction).

    It is at most the rank over Q, so it can certify full rank, never a
    deficit.
    """
    inverse: Dict[int, int] = {}
    reduced = []
    for row in rows:
        red = {}
        for col, val in row.items():
            den = val.denominator
            inv = inverse.get(den)
            if inv is None:
                if not den % p:
                    return None
                inv = inverse[den] = pow(den, -1, p)
            x = val.numerator * inv % p
            if x:
                red[col] = x
        reduced.append(red)
    return len(_echelon(reduced, ncols, p))


def nullspace(rows: Sequence[Row], ncols: int) -> List[Row]:
    """Basis of the right kernel, one sparse vector per free column.

    The basis is normalized so that every vector has entry 1 in its free
    column and is supported on pivot columns otherwise.  Full column rank
    mod P returns the empty basis at once; any other case is eliminated
    exactly, so a nonzero kernel never rests on modular arithmetic.
    """
    if rank_mod(rows, ncols) == ncols:
        return []
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: List[Row] = []
    for fc in free:
        v: Row = {fc: Q(1)}
        for row, pc in zip(reduced, pivots):
            coef = row.get(fc)
            if coef:
                v[pc] = -coef
        basis.append(v)
    return basis


def invert(rows: Sequence[Row], n: int) -> List[List[Q]]:
    """Exact inverse of an n x n matrix given as sparse rows."""
    aug = []
    for i, r in enumerate(rows):
        row = dict(r)
        row[n + i] = Q(1)
        aug.append(row)
    reduced, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    inv = [[Q(0)] * n for _ in range(n)]
    for row, pc in zip(reduced, pivots):
        for c, v in row.items():
            if c >= n:
                inv[pc][c - n] = v
    return inv
