"""The Fraction Gauss-Jordan tableau: the oracle of the integer kernel.

``pivot`` scales the pivot row to a unit entry and clears the column from
every other row, in Fractions.  ``rref``, ``det`` and ``lp_solve`` here are
the eliminations that ``sympovm._exactlin`` and ``sympovm.feasible`` ran on
it before they moved to the fraction-free integer step; the tests compare
the two field by field.
"""

from fractions import Fraction

from sympovm.feasible import LpResult, UnboundedLpError


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
    m = [[Fraction(x) for x in row] for row in a]
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


def det(a) -> Fraction:
    m = [[Fraction(x) for x in row] for row in a]
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


def _bland_iterate(T, basis, ncols_allowed):
    rhs = len(T[0]) - 1
    while True:
        cost = T[-1]
        e = next((j for j in range(ncols_allowed) if cost[j] < 0), None)
        if e is None:
            return
        best_r, best_ratio = None, None
        for i, row in enumerate(T[:-1]):
            if row[e] > 0:
                ratio = row[rhs] / row[e]
                if best_ratio is None or ratio < best_ratio or \
                        (ratio == best_ratio and basis[i] < basis[best_r]):
                    best_r, best_ratio = i, ratio
        if best_r is None:
            raise UnboundedLpError("objective unbounded over the feasible region")
        pivot(T, best_r, e)
        basis[best_r] = e


def lp_solve(lp) -> LpResult:
    """Two-phase Bland simplex on a Fraction tableau."""
    poly = lp.polytope
    n = poly.ambient_dim
    rows = []
    labels = []
    for row, rhs, label in poly.equalities:
        rows.append((list(row), rhs, None))
        labels.append(label)
    for si, (row, rhs, label) in enumerate(poly.inequalities):
        rows.append((list(row), rhs, si))
        labels.append(label)
    m = len(rows)
    nslack = len(poly.inequalities)
    ncols = n + nslack
    T = []
    signs = []
    for row, rhs, si in rows:
        full = [Fraction(0)] * (ncols + m + 1)
        full[:n] = [Fraction(x) for x in row]
        if si is not None:
            full[n + si] = Fraction(-1)
        full[-1] = Fraction(rhs)
        if rhs < 0:
            full = [-v for v in full[:-1]] + [-full[-1]]
            signs.append(Fraction(-1))
        else:
            signs.append(Fraction(1))
        T.append(full)
    for i in range(m):
        T[i][ncols + i] = Fraction(1)
    basis = [ncols + i for i in range(m)]

    T.append([-sum(T[i][j] for i in range(m)) if j < ncols or j == ncols + m
              else Fraction(0) for j in range(ncols + m + 1)])
    _bland_iterate(T, basis, ncols)
    cost = T[-1]
    if -cost[-1] != 0:
        cert = []
        for i in range(m):
            pi = (1 - cost[ncols + i]) * signs[i]
            if pi:
                cert.append((labels[i], pi))
        return LpResult("infeasible", certificate=tuple(cert))

    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            e = next((j for j in range(ncols) if T[i][j]), None)
            if e is None:
                continue
            pivot(T, i, e)
            basis[i] = e
        keep.append(i)
    if len(keep) < m:
        T = [T[i] for i in keep] + [T[-1]]
        basis = [basis[i] for i in keep]

    obj = [Fraction(c) for c in lp.objective]
    if lp.sense == "max":
        obj = [-c for c in obj]
    T[-1] = obj + [Fraction(0)] * (nslack + m + 1)
    for i, bj in enumerate(basis):
        pivot(T, i, bj)
    _bland_iterate(T, basis, ncols)

    z = [Fraction(0)] * ncols
    for i, bj in enumerate(basis):
        if bj < ncols:
            z[bj] = T[i][-1]
    x = tuple(z[:n])
    value = sum(c * v for c, v in zip(lp.objective, x))
    return LpResult("optimal", value=value, point=x,
                    active_labels=poly.active_labels(x))
