"""Exact linear algebra over Fraction matrices (real coefficient space).

This is the one exact elimination kernel: ``rref``, ``det``, the simplex
in ``feasible`` and the double description in ``extremal`` all eliminate
through ``pivot``, and integer rays and rows are reduced by ``primitive``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _copy(a):
    return [[frac(x) for x in row] for row in a]


def pivot(rows, r, c):
    """Gauss-Jordan step in place: scale row r to a unit entry in column c,
    then clear column c from every other row."""
    prow = rows[r]
    pv = prow[c]
    if pv != 1:
        inv = 1 / pv
        rows[r] = prow = [x * inv for x in prow]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            f = row[c]
            rows[i] = [x - f * y for x, y in zip(row, prow)]


def rref(a, pivot_cols=None):
    """Reduced row echelon form.  Returns (rows, pivot column indices).

    Pivot search is restricted to the first ``pivot_cols`` columns, which
    lets an augmented system be reduced without pivoting on its rhs.  The
    pivot columns are the first columns independent of those before them.
    """
    m = _copy(a)
    if not m:
        return m, []
    ncols = len(m[0]) if pivot_cols is None else pivot_cols
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivot(m, r, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(a) -> int:
    if not a:
        return 0
    return len(rref(a)[1])


def solve(a, b):
    """One exact solution of A x = b, or None if the system is inconsistent."""
    n = len(a[0])
    aug = [list(row) + [bb] for row, bb in zip(a, b)]
    m, piv = rref(aug, pivot_cols=n)
    for row in m:
        if row[n] != 0 and all(x == 0 for x in row[:n]):
            return None
    x = [Fraction(0)] * n
    for r, c in enumerate(piv):
        x[c] = m[r][n]
    return x


def nullspace(a, n=None):
    """Basis (list of vectors) of the kernel of A, columns counted by n."""
    if n is None:
        n = len(a[0]) if a else 0
    if not a:
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m, piv = rref(a)
    free = [c for c in range(n) if c not in piv]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, c in enumerate(piv):
            v[c] = -m[r][fc]
        basis.append(v)
    return basis


def inverse(a):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [list(map(frac, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    m, piv = rref(aug, pivot_cols=n)
    if len(piv) < n:
        return None
    return [row[n:] for row in m]


def det(a) -> Fraction:
    """Exact determinant: the product of the Gauss-Jordan pivots, signed by
    the row swaps."""
    m = _copy(a)
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            out = -out
        out *= m[c][c]
        pivot(m, c, c)
    return out


def primitive(ints) -> tuple:
    """An integer row divided by the gcd of its entries (direction kept)."""
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def primitive_ints(row) -> tuple:
    """Scale a Fraction row to coprime integers, preserving direction."""
    row = [frac(x) for x in row]
    scale = lcm(*(x.denominator for x in row))
    return primitive([int(x * scale) for x in row])


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]
