"""Exact algebra for bipartite operators on C^d (x) C^d.

Scalars are Gaussian rationals: complex numbers with Fraction real and
imaginary parts, closed under +, -, *, / with no rounding.  Matrices are
tuples of tuples of such scalars, and every operator here is exact: a
plain number read from a file is taken at its exact binary value.  The
float mode of protocol files lives in `sympovm._float`, which alone
imports numpy; Kraus extraction is exact and never needs it.  The PSD
test and LDL* scale a grid once to Gaussian integers (`IntGrid`) and run
the fraction-free Hermitian step of `_exactlin` on it.

Conventions, fixed once for all file formats:
  * composite basis |i>|j> sits at row-major index i*d + j (Alice major);
  * partial transposition always acts on the second (Bob) factor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import _exactlin


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
    if isinstance(x, complex):
        return CRat(x.real, x.imag)
    return CRat(x)


CR0 = CRat(0)
CR1 = CRat(1)


# ---------------------------------------------------------------------------
# grid helpers (tuples of tuples of CRat)

def mat(rows):
    """Coerce nested numbers to an immutable scalar grid; a float or complex
    entry reads as its exact binary value."""
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


def mat_is_hermitian(a) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i].conjugate() for i in range(n) for j in range(i, n))


def mat_is_exact(a) -> bool:
    """Whether every entry of a grid is exact: an int, a Fraction or a CRat."""
    return all(isinstance(x, (CRat, int, Fraction)) for row in a for x in row)


class IntGrid:
    """An exact grid as Gaussian integers re + i*im = scale*grid, the scale
    the lcm of its denominators; ``nonzero`` lists (i, j, re, im) per
    nonzero entry."""

    __slots__ = ("scale", "re", "im", "nonzero")

    def __init__(self, grid):
        parts = [[(x.re.as_integer_ratio(), x.im.as_integer_ratio()) for x in map(cr, row)]
                 for row in grid]
        self.scale = s = math.lcm(1, *{q for row in parts for pair in row for _, q in pair})
        self.re = [[p * (s // q) for (p, q), _ in row] for row in parts]
        self.im = [[p * (s // q) for _, (p, q) in row] for row in parts]
        self.nonzero = [(i, j, x, y) for i, (rr, ri) in enumerate(zip(self.re, self.im))
                        for j, (x, y) in enumerate(zip(rr, ri)) if x or y]


def ldl_exact(a):
    """Rational LDL* of an exact grid, or None when it is not Hermitian PSD.

    The pieces (d, l) satisfy a = sum d l l†, with each d a positive
    Fraction and each l a tuple of Gaussian rationals that is 1 at its
    pivot, read from the fraction-free pivots p_k of the scaled grid:
    d_k = p_k / (p_(k-1) scale), l_k the pivot column over p_k.
    """
    g = IntGrid(a)
    steps = _exactlin.hermitian_ldl(g.re, g.im)
    if steps is None:
        return None
    pieces = []
    for k, last, p, col in steps:
        l = {i: CRat(Fraction(x, p), Fraction(y, p)) for i, x, y in col}
        pieces.append((Fraction(p, last * g.scale),
                       tuple(CR1 if i == k else l.get(i, CR0) for i in range(len(g.re)))))
    return pieces


def psd_exact(a) -> bool:
    """Whether an exact grid, or its IntGrid, is Hermitian PSD: only the
    signs of its fraction-free elimination are read (see ldl_exact)."""
    g = a if isinstance(a, IntGrid) else IntGrid(a)
    return _exactlin.hermitian_ldl(g.re, g.im) is not None


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
    """An integer from an int, an integral float or a string of an optional
    sign and ASCII digits; anything else (a bool, a fractional part, spaces,
    underscores, non-ASCII digits) is a ValueError that names where."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+", x):
        return int(x)
    raise ValueError(f"{where}: expected an integer, got {x!r}")


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
    """Local factor diag(sqrt(radicands)) * mat, one rational radicand >= 0
    per row of mat.

    Keeping each row's radical outside a Gaussian-rational matrix lets
    A†A = mat† diag(radicands) mat be evaluated without rounding even when
    a square root itself is irrational.
    """

    radicands: tuple
    mat: tuple

    def gram(self):
        """A†A as an exact grid."""
        scaled = tuple(tuple(CRat(r) * x for x in row)
                       for r, row in zip(self.radicands, self.mat))
        return mat_mul(mat_dagger(self.mat), scaled)


@dataclass(frozen=True)
class KrausPair:
    """One product Kraus term (A, B) of ScaledFactors; contributes A†A (x) B†B."""

    a_op: ScaledFactor
    b_op: ScaledFactor

    def element(self) -> BipartiteOperator:
        return tensor(self.a_op.gram(), self.b_op.gram())


def _sqrt_fraction(x: Fraction):
    """Exact square root of a rational x >= 0, or None."""
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _ldl_root(w, a, who) -> ScaledFactor:
    """A with A†A = w a: row k is sqrt(w d_k) l_k† for the ldl_exact pieces
    of a, a rational root folded into its row, and zero rows pad A to
    len(a) rows."""
    a = mat(a)
    pieces = ldl_exact(a)
    if pieces is None:
        raise ValueError(f"{who} factor is not PSD")
    radicands, rows = [], []
    for d, l in pieces:
        s = _sqrt_fraction(w * d)
        radicands.append(w * d if s is None else Fraction(1))
        root = CR1 if s is None else CRat(s)
        rows.append(tuple(root * x.conjugate() for x in l))
    pad = len(a) - len(pieces)
    return ScaledFactor(tuple(radicands) + (Fraction(1),) * pad,
                        tuple(rows) + ((CR0,) * len(a),) * pad)


def kraus_from_separable_form(terms):
    """One Kraus pair (A_k, B_k) per term, with A†A = w_k a_k and B†B = b_k,
    so that sum_k A†A (x) B†B = sum_k w_k (a_k (x) b_k) exactly.

    Each term is (weight >= 0, a, b) with Hermitian PSD factors; a plain
    number reads as its exact binary value.  Both factors are rooted through
    their ldl_exact pieces, so no numpy and no tolerance is involved.
    """
    pairs = []
    for k, (w, a, b) in enumerate(terms):
        w = cr(w)
        if w.im or w.re < 0:
            raise ValueError("weights must be real and nonnegative")
        alice, bob = _ldl_root(w.re, a, "Alice"), _ldl_root(Fraction(1), b, "Bob")
        if len(alice.mat) != len(bob.mat):
            raise ValueError(f"term {k}: Alice's factor is {len(alice.mat)}x{len(alice.mat)}, "
                             f"Bob's is {len(bob.mat)}x{len(bob.mat)}")
        pairs.append(KrausPair(alice, bob))
    return pairs
