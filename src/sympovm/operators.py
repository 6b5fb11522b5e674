"""Exact algebra for bipartite operators on C^d (x) C^d.

Scalars are Gaussian rationals: complex numbers with Fraction real and
imaginary parts, closed under +, -, *, / with no rounding.  Matrices are
tuples of tuples of such scalars, and every operator here is exact: a
plain number read from a file is taken at its exact binary value.  The
float mode of protocol files and the float Kraus roots live in
`sympovm._float`, which alone imports numpy.

Conventions, fixed once for all file formats:
  * composite basis |i>|j> sits at row-major index i*d + j (Alice major);
  * partial transposition always acts on the second (Bob) factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class CRat:
    """Complex scalar with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other):
        other = cr(other)
        return CRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = cr(other)
        return CRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return cr(other).__sub__(self)

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def __mul__(self, other):
        other = cr(other)
        if not self.im and not other.im:
            return CRat(self.re * other.re)
        return CRat(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = cr(other)
        if not other.im:
            return CRat(self.re / other.re, self.im / other.re)
        n2 = other.re * other.re + other.im * other.im
        return CRat((self.re * other.re + self.im * other.im) / n2,
                    (self.im * other.re - self.re * other.im) / n2)

    def conjugate(self):
        return CRat(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, CRat):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


def cr(x) -> CRat:
    if isinstance(x, CRat):
        return x
    return CRat(x)


CR0 = CRat(0)
CR1 = CRat(1)


# ---------------------------------------------------------------------------
# grid helpers (tuples of tuples of CRat)

def mat(rows):
    """Coerce nested int/Fraction/CRat data to an immutable scalar grid."""
    return tuple(tuple(cr(x) for x in row) for row in rows)


def mat_zeros(n):
    return tuple((CR0,) * n for _ in range(n))


def mat_eye(n):
    return tuple(tuple(CR1 if i == j else CR0 for j in range(n)) for i in range(n))


def ketbra(i, j, n):
    """|i><j| on C^n."""
    return tuple(tuple(CR1 if (r, c) == (i, j) else CR0 for c in range(n))
                 for r in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(s, a):
    s = cr(s)
    return tuple(tuple(s * x for x in row) for row in a)


def mat_mul(a, b):
    n, m = len(a), len(b[0])
    k = len(b)
    out = [[CR0] * m for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for t in range(k):
            x = arow[t]
            if not x:
                continue
            brow = b[t]
            for j in range(m):
                y = brow[j]
                if y:
                    orow[j] = orow[j] + x * y
    return tuple(tuple(r) for r in out)


def mat_kron(a, b):
    da, db = len(a), len(b)
    n = da * db
    out = [[CR0] * n for _ in range(n)]
    for i in range(da):
        for k in range(da):
            x = a[i][k]
            if not x:
                continue
            oi, ok = i * db, k * db
            for j in range(db):
                brow = b[j]
                orow = out[oi + j]
                for l in range(db):
                    y = brow[l]
                    if y:
                        orow[ok + l] = x * y
    return tuple(tuple(r) for r in out)


def mat_dagger(a):
    return tuple(tuple(a[j][i].conjugate() for j in range(len(a)))
                 for i in range(len(a[0])))


def mat_trace(a) -> CRat:
    t = CR0
    for i in range(len(a)):
        t = t + a[i][i]
    return t


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), CR0) for row in a)


def mat_is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def mat_is_hermitian(a) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i].conjugate() for i in range(n) for j in range(i, n))


def mat_is_diagonal(a) -> bool:
    return all(not a[i][j] for i in range(len(a)) for j in range(len(a)) if i != j)


def mat_is_exact(a) -> bool:
    """Whether every entry of a grid is exact: an int, a Fraction or a CRat."""
    return all(isinstance(x, (int, Fraction, CRat)) for row in a for x in row)


def psd_exact(a) -> bool:
    """PSD decision for an exact Hermitian grid via rational LDL* pivoting.

    A Hermitian matrix with a zero diagonal entry is PSD only if the whole
    corresponding row vanishes, so no radicals are ever required.
    """
    m = [list(row) for row in a]
    active = list(range(len(m)))
    while active:
        if any(m[i][i].re < 0 for i in active):
            return False
        piv = next((i for i in active if m[i][i].re > 0), None)
        if piv is None:
            return all(not m[i][j] for i in active for j in active)
        active.remove(piv)
        d = m[piv][piv]
        for i in active:
            f = m[i][piv] / d
            if not f:
                continue
            prow = m[piv]
            irow = m[i]
            for j in active:
                irow[j] = irow[j] - f * prow[j]
    return True


# ---------------------------------------------------------------------------
# bipartite operators

class BipartiteOperator:
    """Dense operator on C^d (x) C^d: a d^2 x d^2 Gaussian-rational grid."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries):
        self.dim = dim
        self.entries = mat(entries)
        if len(self.entries) != dim * dim or len(self.entries[0]) != dim * dim:
            raise ValueError(f"expected a {dim * dim}x{dim * dim} matrix")

    @classmethod
    def zeros(cls, d):
        return cls(d, mat_zeros(d * d))

    @classmethod
    def identity(cls, d):
        return cls(d, mat_eye(d * d))

    def __add__(self, other):
        self._check_like(other)
        return BipartiteOperator(self.dim, mat_add(self.entries, other.entries))

    def __sub__(self, other):
        self._check_like(other)
        return BipartiteOperator(self.dim, mat_sub(self.entries, other.entries))

    def scale(self, s):
        return BipartiteOperator(self.dim, mat_scale(s, self.entries))

    def __matmul__(self, other):
        self._check_like(other)
        return BipartiteOperator(self.dim, mat_mul(self.entries, other.entries))

    def __eq__(self, other):
        if not isinstance(other, BipartiteOperator) or self.dim != other.dim:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, self.entries))

    def _check_like(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def trace(self):
        return mat_trace(self.entries)

    def is_hermitian(self) -> bool:
        return mat_is_hermitian(self.entries)

    def to_numpy(self):
        import numpy as np

        return np.array([[complex(x) for x in row] for row in self.entries], dtype=complex)

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "entries": [[[str(x.re), str(x.im)] for x in row]
                            for row in self.entries]}

    @classmethod
    def from_json(cls, obj):
        """Read an operator; a plain number reads as its exact binary value."""
        json_object(obj, "dim", "entries")
        return cls(parse_int(obj["dim"], "dim"),
                   grid_from_json(json_grid(obj["entries"], "entries")))


# ---------------------------------------------------------------------------
# JSON input: every reader checks the shape of what it reads and raises
# ValueError naming the bad field, never a TypeError from deep inside

def json_object(obj, *keys, where="top level"):
    """obj as a JSON object that holds every field in keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object with fields {', '.join(keys)}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
    return obj


def json_list(x, where):
    if not isinstance(x, list):
        raise ValueError(f"{where}: expected a list, got {type(x).__name__}")
    return x


def parse_int(x, where) -> int:
    try:
        return int(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}: expected an integer, got {x!r}") from None


def parse_fraction(x, where) -> Fraction:
    """A rational from a "p/q" string or a number; anything else, including
    a zero denominator, is a ValueError that names where and the value."""
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise ValueError(f"{where}: expected a rational, got {type(x).__name__}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f'{where}: zero denominator in "{x}"') from None
    except (ValueError, OverflowError):
        raise ValueError(f"{where}: not a rational: {x!r}") from None


def json_grid(rows, where):
    """rows as a square JSON grid of [re, im] pairs of strings or numbers."""
    for r, row in enumerate(json_list(rows, where)):
        if len(json_list(row, f"{where}[{r}]")) != len(rows):
            raise ValueError(f"{where}: expected a square grid")
        for c, p in enumerate(row):
            if not (isinstance(p, list) and len(p) == 2 and
                    all(isinstance(x, (str, int, float)) and not isinstance(x, bool)
                        for x in p)):
                raise ValueError(f"{where}[{r}][{c}]: expected a [re, im] pair")
    return rows


def parse_crat(p, where) -> CRat:
    """A [re, im] pair of rationals; a plain number reads as its exact
    binary value."""
    if not (isinstance(p, list) and len(p) == 2):
        raise ValueError(f"{where}: expected a [re, im] pair")
    return CRat(parse_fraction(p[0], where), parse_fraction(p[1], where))


def grid_from_json(rows, where="entries"):
    """A checked JSON grid (json_grid) as a CRat grid."""
    return tuple(tuple(parse_crat(p, f"{where}[{r}][{c}]") for c, p in enumerate(row))
                 for r, row in enumerate(rows))


def tensor(a, b) -> BipartiteOperator:
    """Kronecker product of two equal-dimension local operators."""
    d = len(a)
    if any(len(row) != d for row in a) or len(b) != d or any(len(row) != d for row in b):
        raise ValueError("dimension mismatch: need square factors of equal dimension")
    return BipartiteOperator(d, mat_kron(mat(a), mat(b)))


def partial_transpose(m: BipartiteOperator) -> BipartiteOperator:
    """Transpose the Bob factor: out[(i,j),(k,l)] = in[(i,l),(k,j)]."""
    d = m.dim
    e = m.entries
    out = [[e[i * d + l][k * d + j] for k in range(d) for l in range(d)]
           for i in range(d) for j in range(d)]
    return BipartiteOperator(d, out)


def is_psd(m: BipartiteOperator) -> bool:
    """True iff all eigenvalues of a Hermitian operator are nonnegative."""
    if not m.is_hermitian():
        raise ValueError("is_psd requires a Hermitian operator")
    return psd_exact(m.entries)


def maximally_entangled_projector(d: int) -> BipartiteOperator:
    """Projector onto sum_i |ii>/sqrt(d): entries 1/d at ((i,i),(j,j))."""
    if d < 2:
        raise ValueError("need local dimension d >= 2")
    v = Fraction(1, d)
    grid = [[CR0] * (d * d) for _ in range(d * d)]
    for i in range(d):
        for j in range(d):
            grid[i * d + i][j * d + j] = CRat(v)
    return BipartiteOperator(d, grid)


def swap_operator(d: int) -> BipartiteOperator:
    """Swap F = sum |ij><ji|."""
    if d < 2:
        raise ValueError("need local dimension d >= 2")
    grid = [[CR0] * (d * d) for _ in range(d * d)]
    for i in range(d):
        for j in range(d):
            grid[i * d + j][j * d + i] = CR1
    return BipartiteOperator(d, grid)


# ---------------------------------------------------------------------------
# Kraus extraction from separable form

@dataclass(frozen=True)
class ScaledFactor:
    """Local factor sqrt(radicand) * mat with rational radicand >= 0.

    Keeping a single scalar radical outside a rational matrix lets
    A†A = radicand * (mat† mat) be evaluated without rounding even when
    sqrt(radicand) itself is irrational.
    """

    radicand: Fraction
    mat: tuple

    def gram(self):
        """A†A as an exact grid."""
        return mat_scale(CRat(self.radicand), mat_mul(mat_dagger(self.mat), self.mat))


@dataclass(frozen=True)
class KrausPair:
    """One product Kraus term (A, B); contributes A†A (x) B†B."""

    a_op: object  # ScaledFactor, or a numpy array from a float spectral root
    b_op: object

    def element(self) -> BipartiteOperator:
        """A†A (x) B†B; for float roots, the exact values of the float
        entries of A†A and B†B."""
        if isinstance(self.a_op, ScaledFactor):
            return tensor(self.a_op.gram(), self.b_op.gram())
        return tensor(*([[CRat(z.real, z.imag) for z in row] for row in g.conj().T @ g]
                        for g in (self.a_op, self.b_op)))


def _sqrt_fraction(x: Fraction):
    """Exact rational square root, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _real_fraction(x: CRat):
    if x.im:
        return None
    return x.re


def _exact_sqrt_psd(m):
    """Exact rational PSD square root when one exists without radicals."""
    n = len(m)
    if mat_is_diagonal(m):
        roots = []
        for i in range(n):
            v = _real_fraction(m[i][i])
            if v is None:
                return None
            r = _sqrt_fraction(v)
            if r is None:
                return None
            roots.append(r)
        return tuple(tuple(CRat(roots[i]) if i == j else CR0 for j in range(n))
                     for i in range(n))
    scaled = _scaled_projector(m)
    if scaled is not None:
        lam, proj = scaled
        s = _sqrt_fraction(lam)
        if s is not None:
            return mat_scale(CRat(s), proj)
    return None


def _scaled_projector(m):
    """Decompose m = lam * P with P a Hermitian projector, or None."""
    tr = _real_fraction(mat_trace(m))
    if tr is None or tr <= 0:
        return None
    tr2 = _real_fraction(mat_trace(mat_mul(m, m)))
    lam = tr2 / tr
    if lam <= 0:
        return None
    proj = mat_scale(CRat(Fraction(1) / lam), m)
    if mat_mul(proj, proj) == proj:
        return lam, proj
    return None


def _projector_pieces(m):
    """Conic decomposition of a PSD grid into rational-weighted projectors."""
    n = len(m)
    if mat_is_zero(m):
        return []
    if mat_is_diagonal(m):
        values = {}
        for i in range(n):
            v = _real_fraction(m[i][i])
            if v is None or v < 0:
                return None
            if v:
                values.setdefault(v, []).append(i)
        pieces = []
        for v, idxs in sorted(values.items()):
            proj = tuple(tuple(CR1 if (i == j and i in idxs) else CR0
                               for j in range(n)) for i in range(n))
            pieces.append((v, proj))
        return pieces
    scaled = _scaled_projector(m)
    if scaled is not None:
        return [scaled]
    return None


def kraus_from_separable_form(terms, eps=1e-9):
    """Kraus pairs (A_n, B_n) with sum_n A†A (x) B†B = sum_k w_k (a_k (x) b_k).

    Each term is (weight >= 0, a_psd, b_psd) with d x d PSD factors, given
    as exact grids or as float arrays.  Diagonal, projector-multiple and
    rank-one factors are factored exactly (any leftover scalar is carried
    as a radicand); anything else, and any float factor, takes a float
    spectral root (`sympovm._float`, which needs numpy).
    """
    pairs = []
    for w, a, b in terms:
        if not (mat_is_exact(a) and mat_is_exact(b)):
            from . import _float

            pairs.extend(_float.float_pairs(w, a, b, eps))
            continue
        a, b = mat(a), mat(b)
        w = _real_fraction(cr(w))
        if w is None:
            raise ValueError("weights must be real")
        if w < 0:
            raise ValueError("negative weight in separable form")
        if not (mat_is_hermitian(a) and psd_exact(a)):
            raise ValueError("Alice factor is not PSD")
        if not (mat_is_hermitian(b) and psd_exact(b)):
            raise ValueError("Bob factor is not PSD")
        if not w or mat_is_zero(a) or mat_is_zero(b):
            continue
        sw = _sqrt_fraction(w)
        sa = _exact_sqrt_psd(a)
        sb = _exact_sqrt_psd(b)
        if sw is not None and sa is not None and sb is not None:
            pairs.append(KrausPair(ScaledFactor(Fraction(1), mat_scale(CRat(sw), sa)),
                                   ScaledFactor(Fraction(1), sb)))
            continue
        pa = _projector_pieces(a)
        pb = _projector_pieces(b)
        if pa is not None and pb is not None:
            for alpha, proj_a in pa:
                for beta, proj_b in pb:
                    radicand = w * alpha * beta
                    s = _sqrt_fraction(radicand)
                    if s is not None:
                        a_factor = ScaledFactor(Fraction(1), mat_scale(CRat(s), proj_a))
                    else:
                        a_factor = ScaledFactor(radicand, proj_a)
                    pairs.append(KrausPair(a_factor, ScaledFactor(Fraction(1), proj_b)))
            continue
        from . import _float

        pairs.extend(_float.float_pairs(w, a, b, eps))
    return pairs
