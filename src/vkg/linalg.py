"""Exact Gaussian elimination over the rationals, sparse rows.

A matrix is a list of rows; each row is a dict mapping column index to a
nonzero Fraction.  Everything is deterministic: pivots are chosen as the
first nonzero column, rows in order.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Dict, List, Sequence, Tuple

Row = Dict[int, Q]


def row_sub(target: Row, factor: Q, source: Row) -> None:
    """target -= factor * source, dropping entries that cancel."""
    for col, val in source.items():
        new = target.get(col, Q(0)) - factor * val
        if new:
            target[col] = new
        else:
            target.pop(col, None)


def rref(rows: Sequence[Row], ncols: int) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    work = [dict(r) for r in rows if r]
    pivots: List[int] = []
    reduced: List[Row] = []
    for col in range(ncols):
        idx = next((i for i, r in enumerate(work) if r.get(col)), None)
        if idx is None:
            continue
        row = work.pop(idx)
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        for other in work:
            if col in other:
                row_sub(other, other[col], row)
        for other in reduced:
            if col in other:
                row_sub(other, other[col], row)
        work = [r for r in work if r]
        reduced.append(row)
        pivots.append(col)
    return reduced, pivots


def nullspace(rows: Sequence[Row], ncols: int) -> List[Row]:
    """Basis of the right kernel, one sparse vector per free column.

    The basis is normalized so that every vector has entry 1 in its free
    column and is supported on pivot columns otherwise.
    """
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


def rank(rows: Sequence[Row], ncols: int) -> int:
    return len(rref(rows, ncols)[1])


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
