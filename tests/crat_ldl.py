"""The Gauss-elimination LDL* on CRat grids: the oracle of the
fraction-free Hermitian kernel (``operators.ldl_exact``).

Every step divides Gaussian rationals, so each entry is a pair of reduced
Fractions; the package itself eliminates on the grid scaled to Gaussian
integers.  Both must give equal pieces and equal verdicts.
"""

from sympovm.operators import CR0, CR1, mat_is_hermitian


def ldl_crat(a):
    """Rational LDL* of an exact grid, or None when it is not Hermitian PSD.

    The pieces (d, l) satisfy a = sum d l l†, with each d a positive
    Fraction and each l a tuple of Gaussian rationals that is 1 at its
    pivot.  A Hermitian matrix with a zero diagonal entry is PSD only if the
    whole corresponding row vanishes, so no radicals are ever required.
    """
    if not mat_is_hermitian(a):
        return None
    m = [list(row) for row in a]
    active = list(range(len(m)))
    pieces = []
    while active:
        if any(m[i][i].re < 0 for i in active):
            return None
        piv = next((i for i in active if m[i][i].re > 0), None)
        if piv is None:
            return pieces if all(not m[i][j] for i in active for j in active) else None
        active.remove(piv)
        d = m[piv][piv]
        col = [CR0] * len(m)
        col[piv] = CR1
        prow = m[piv]
        for i in active:
            f = m[i][piv] / d
            if not f:
                continue
            col[i] = f
            irow = m[i]
            for j in active:
                irow[j] = irow[j] - f * prow[j]
        pieces.append((d.re, tuple(col)))
    return pieces
