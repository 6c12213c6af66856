"""Exact linear algebra over the integers and rationals.

This module is the numeric kernel of :mod:`repro.poly`, the small
integer-set library that stands in for ISL in this reproduction.  All
routines are exact: integer matrices are manipulated with fraction-free
(Bareiss) elimination or with :class:`fractions.Fraction` entries, never
with floating point, because polyhedral legality questions (is this
dependence distance non-negative? is this set empty?) cannot tolerate
rounding.

The matrices involved are tiny (loop depths are single digits), so the
implementation favours clarity over asymptotic cleverness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

Vector = Tuple[int, ...]


def vec_gcd(vec: Sequence[int]) -> int:
    """Greatest common divisor of a vector's entries (0 for all-zero)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
        if g == 1:
            return 1
    return g


def normalize_row(row: Sequence[int]) -> Vector:
    """Divide a row of integers by the gcd of its entries.

    All-zero rows are returned unchanged.  Used to canonicalize
    constraint rows so that syntactically equal constraints compare
    equal.
    """
    g = vec_gcd(row)
    if g <= 1:
        return tuple(int(x) for x in row)
    return tuple(int(x) // g for x in row)


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(int(x) * int(y) for x, y in zip(a, b))


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix (computed over the rationals)."""
    if not rows:
        return 0
    m = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Returns the HNF rows (nonzero rows only).  Used to answer integer
    solvability questions for equality systems: ``A x = b`` has an
    integer solution iff ``b`` reduces to zero against the HNF of the
    rows of ``A`` augmented appropriately.
    """
    m = [list(map(int, r)) for r in rows if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        # find row with smallest nonzero |entry| in column c at/below r
        while True:
            piv = None
            best = None
            for i in range(r, len(m)):
                v = abs(m[i][c])
                if v and (best is None or v < best):
                    best, piv = v, i
            if piv is None:
                break
            m[r], m[piv] = m[piv], m[r]
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            done = True
            for i in range(r + 1, len(m)):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c]:
                        done = False
            if done:
                break
        if piv is not None:
            # reduce entries above the pivot
            for i in range(r):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
            if r == len(m):
                break
    return [row for row in m if any(row)]


def integer_solvable(eqs: Sequence[Sequence[int]]) -> bool:
    """Check whether the equality system has an integer solution.

    Each row is ``(c_0, ..., c_{d-1}, k)`` meaning ``sum c_i x_i + k == 0``.
    The check is exact: eliminate variables preserving integrality via
    HNF-style reduction and test the resulting divisibility conditions.
    """
    rows = [list(map(int, r)) for r in eqs if any(r)]
    if not rows:
        return True
    ncols = len(rows[0]) - 1
    # HNF of coefficient part, carrying the constant column along.
    m = rows
    r = 0
    for c in range(ncols):
        while True:
            piv = None
            best = None
            for i in range(r, len(m)):
                v = abs(m[i][c])
                if v and (best is None or v < best):
                    best, piv = v, i
            if piv is None:
                break
            m[r], m[piv] = m[piv], m[r]
            done = True
            for i in range(r + 1, len(m)):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c]:
                        done = False
            if done:
                break
        if piv is not None:
            r += 1
            if r == len(m):
                break
    # rows with all-zero coefficients must have zero constant;
    # pivot rows give divisibility conditions solved greedily from the
    # last pivot upward -- but since each pivot variable is free, any
    # row with a nonzero coefficient is satisfiable over Z iff the gcd
    # of the coefficients divides the constant.
    for row in m:
        coeffs, k = row[:ncols], row[ncols]
        g = vec_gcd(coeffs)
        if g == 0:
            if k != 0:
                return False
        elif k % g != 0:
            return False
    return True
