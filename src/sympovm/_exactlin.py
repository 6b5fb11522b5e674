"""Exact linear algebra over rational and Gaussian-integer matrices.

This is the one exact elimination kernel: ``rref``, ``det``, the simplex
in ``feasible`` and the double description in ``extremal`` all eliminate
through ``pivot``, every PSD test and LDL* of ``operators`` through its
Hermitian form ``hermitian_ldl``, and integer rows are reduced by
``primitive``.  Both steps are fraction-free (Bareiss, Math. Comp. 22,
1968): every entry stays a minor of the scaled input and the division by
the last pivot is exact, so no gcd is taken.  Rational input is scaled to
integers by one common denominator (``scaled_rows``); results leave as
``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _copy(a):
    return [[frac(x) for x in row] for row in a]


def pivot(m, d, r, c) -> int:
    """Fraction-free (integer) pivot in place on m = d*T, d > 0 the last pivot.

    Every row i != r becomes (p*m[i] - m[i][c]*m[r]) // d, an exact
    division, where p = m[r][c]; row r stays, and the new d is p.  When p < 0
    all of m is negated so that d stays positive.  Returns the new d.
    (Edmonds' integer pivoting: Bareiss, Math. Comp. 22, 1968; Avis, lrs.)
    """
    prow = m[r]
    p = prow[c]
    for i, row in enumerate(m):
        if i == r:
            continue
        f = row[c]
        if f:
            m[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        elif p != d:
            m[i] = [p * x // d for x in row]
    if p < 0:
        for i, row in enumerate(m):
            m[i] = [-x for x in row]
        return -p
    return p


def hermitian_ldl(re, im):
    """Fraction-free LDL* of the Gaussian-integer matrix re + i*im: per pivot
    (k, last pivot, pivot p, [(i, re, im) of column k's nonzero entries]), or
    None when it is not Hermitian PSD.  Only signs are read: a negative
    diagonal entry, or a zero one with a nonzero row, means not PSD.  Each
    active entry becomes (p*m[i][j] - m[i][k]*m[k][j]) // d, d the last pivot:
    p and d are real, so the exact division acts on each part alone."""
    re, im = [list(r) for r in re], [list(r) for r in im]
    if re != [list(c) for c in zip(*re)] or im != [[-x for x in c] for c in zip(*im)]:
        return None
    active, steps, d = list(range(len(re))), [], 1
    while True:
        if any(re[i][i] < 0 or not re[i][i] and any(re[i][j] or im[i][j] for j in active)
               for i in active):
            return None
        active = [i for i in active if re[i][i]]
        if not active:
            return steps
        k, *active = active
        p, rk, ik = re[k][k], re[k], im[k]
        steps.append((k, d, p, [(i, re[i][k], im[i][k]) for i in active
                                if re[i][k] or im[i][k]]))
        for t, i in enumerate(active):  # the upper triangle, mirrored
            ri, ii, a, b = re[i], im[i], re[i][k], im[i][k]
            for j in active[t:]:
                ri[j] = x = (p * ri[j] - a * rk[j] + b * ik[j]) // d
                ii[j] = y = (p * ii[j] - a * ik[j] - b * rk[j]) // d
                re[j][i], im[j][i] = x, -y
        d = p


def scaled_rows(a):
    """Integer rows of a rational matrix and their one positive scale: every
    row times the lcm of all the denominators."""
    a = _copy(a)
    scale = lcm(1, *(x.denominator for row in a for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row]
            for row in a], scale


def _eliminate(a, pivot_cols=None):
    """Fraction-free Gauss-Jordan on ``a`` scaled to integers: (m, d, pivot
    columns, sign, scale).  The RREF of ``a`` is m/d on the pivot rows and
    m/(d*scale) on the rows after them; when ``a`` is square and of full
    rank, sign*d/scale**n is its determinant."""
    m, scale = scaled_rows(a)
    d, sign = 1, 1
    if not m:
        return m, d, [], sign, scale
    ncols = len(m[0]) if pivot_cols is None else pivot_cols
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        if m[r][c] < 0:
            sign = -sign
        d = pivot(m, d, r, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, d, pivots, sign, scale


def rref(a, pivot_cols=None):
    """Reduced row echelon form.  Returns (rows, pivot column indices).

    Pivot search is restricted to the first ``pivot_cols`` columns, which
    lets an augmented system be reduced without pivoting on its rhs.  The
    pivot columns are the first columns independent of those before them.
    """
    m, d, pivots, _, scale = _eliminate(a, pivot_cols)
    # rows past the pivots still carry the scale
    dens = [d] * len(pivots) + [d * scale] * (len(m) - len(pivots))
    return [[Fraction(x, den) if x else Fraction(0) for x in row]
            for row, den in zip(m, dens)], pivots


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
    """Exact determinant: the last fraction-free pivot, signed by the row
    swaps and the negative pivots, over the scale to the power n."""
    m, d, pivots, sign, scale = _eliminate(a)
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction(sign * d, scale ** len(m))


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
