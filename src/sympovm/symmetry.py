"""Commutant bases, coefficient encoding and partial-transpose maps.

Four local symmetry families are supported.  Each has an abelian
commutant spanned by mutually orthogonal projectors, so an invariant
POVM element is a short vector of rational weights on a fixed,
canonically ordered projector basis:

  isotropic  (U (x) U*):    ( |+><+| , 1 - |+><+| )
  werner     (U (x) U):     ( P_A , P_S )
  bell       (Pauli pairs): ( Psi+ , Psi- , Phi+ , Phi- ),  d = 2 only
  oo         (O (x) O):     ( |+><+| , (1-F)/2 , (1+F)/2 - |+><+| )

The basis order is part of every file format and is never permuted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from . import _exactlin
from .operators import (
    CR0,
    CR1,
    BipartiteOperator,
    CRat,
    maximally_entangled_projector,
    mat_dagger,
    mat_kron,
    mat_mul,
    parse_int,
    partial_transpose,
    swap_operator,
)


class Family(str, Enum):
    ISOTROPIC = "isotropic"
    WERNER = "werner"
    BELL = "bell"
    OO = "oo"


_N_COEFFS = {Family.ISOTROPIC: 2, Family.WERNER: 2, Family.BELL: 4, Family.OO: 3}


@dataclass(frozen=True)
class SymmetryKind:
    family: Family
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("need local dimension d >= 2")
        if self.family is Family.BELL and self.dim != 2:
            raise ValueError("the Bell family is defined for d = 2 only")

    @property
    def n_coeffs(self) -> int:
        return _N_COEFFS[self.family]

    def label(self) -> str:
        return f"{self.family.value}(d={self.dim})"


def kind(family, dim=2) -> SymmetryKind:
    if isinstance(family, str):
        family = Family(family.lower())
    return SymmetryKind(family, dim)


def kind_from_json(obj, family_key="family") -> SymmetryKind:
    """The kind named by the fields family_key and "dim" of a JSON object."""
    fam = obj[family_key]
    names = [f.value for f in Family]
    if not isinstance(fam, str) or fam.lower() not in names:
        raise ValueError(f"{family_key}: expected one of {', '.join(names)}, got {fam!r}")
    return kind(fam, parse_int(obj["dim"], "dim"))


@dataclass(frozen=True)
class CommutantBasis:
    kind: SymmetryKind
    projectors: tuple  # of BipartiteOperator
    traces: tuple  # of int


@dataclass(frozen=True)
class CoeffVector:
    """An invariant operator as rational weights on the commutant basis."""

    kind: SymmetryKind
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(_exactlin.frac(c) for c in self.coeffs))
        if len(self.coeffs) != self.kind.n_coeffs:
            raise ValueError(f"{self.kind.label()} expects "
                             f"{self.kind.n_coeffs} coefficients")

    def is_nonneg(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __add__(self, other):
        _check_same_kind(self.kind, other.kind)
        return CoeffVector(self.kind, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        _check_same_kind(self.kind, other.kind)
        return CoeffVector(self.kind, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, s):
        s = _exactlin.frac(s)
        return CoeffVector(self.kind, tuple(s * c for c in self.coeffs))

    def to_json(self) -> dict:
        return {"family": self.kind.family.value, "dim": self.kind.dim,
                "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "CoeffVector":
        k = kind_from_json(obj)
        return cls(k, tuple(Fraction(c) for c in obj["coeffs"]))


def all_ones(k: SymmetryKind) -> CoeffVector:
    return CoeffVector(k, (Fraction(1),) * k.n_coeffs)


def zero_vector(k: SymmetryKind) -> CoeffVector:
    return CoeffVector(k, (Fraction(0),) * k.n_coeffs)


def _check_same_kind(a: SymmetryKind, b: SymmetryKind):
    if a != b:
        raise ValueError(f"symmetry kind mismatch: {a.label()} vs {b.label()}")


def _bell_projectors():
    # unnormalised Bell vectors; projector = v v† / 2
    vecs = {
        "psi+": (0, 1, 1, 0),
        "psi-": (0, 1, -1, 0),
        "phi+": (1, 0, 0, 1),
        "phi-": (1, 0, 0, -1),
    }
    half = CRat(Fraction(1, 2))
    out = []
    for name in ("psi+", "psi-", "phi+", "phi-"):
        v = vecs[name]
        grid = [[half * CRat(v[r] * v[c]) for c in range(4)] for r in range(4)]
        out.append(BipartiteOperator(2, grid))
    return tuple(out)


def basis_traces(k: SymmetryKind) -> tuple:
    """Traces of the commutant projectors, in basis order."""
    d = k.dim
    if k.family is Family.ISOTROPIC:
        return (1, d * d - 1)
    if k.family is Family.WERNER:
        return (d * (d - 1) // 2, d * (d + 1) // 2)
    if k.family is Family.BELL:
        return (1, 1, 1, 1)
    return (1, d * (d - 1) // 2, (d + 2) * (d - 1) // 2)


@lru_cache(maxsize=None)
def commutant_basis(k: SymmetryKind) -> CommutantBasis:
    """Canonical projector basis for a family; validated on first build."""
    d = k.dim
    ident = BipartiteOperator.identity(d)
    plus = maximally_entangled_projector(d)
    if k.family is Family.ISOTROPIC:
        projs = (plus, ident - plus)
    elif k.family is Family.BELL:
        projs = _bell_projectors()
    else:
        f = swap_operator(d)
        pa = (ident - f).scale(Fraction(1, 2))
        ps = (ident + f).scale(Fraction(1, 2))
        projs = (pa, ps) if k.family is Family.WERNER else (plus, pa, ps - plus)
    basis = CommutantBasis(k, projs, basis_traces(k))
    _validate_basis(basis)
    return basis


def _validate_basis(basis: CommutantBasis):
    projs = basis.projectors
    total = BipartiteOperator.zeros(basis.kind.dim)
    for i, p in enumerate(projs):
        if p.trace() != basis.traces[i]:
            raise AssertionError("projector trace mismatch")
        for j, q in enumerate(projs):
            prod = p @ q
            expect = p if i == j else BipartiteOperator.zeros(basis.kind.dim)
            if prod != expect:
                raise AssertionError("commutant projectors are not orthogonal")
        total = total + p
    if total != BipartiteOperator.identity(basis.kind.dim):
        raise AssertionError("commutant projectors do not resolve the identity")


def coeff_to_operator(v: CoeffVector) -> BipartiteOperator:
    basis = commutant_basis(v.kind)
    out = BipartiteOperator.zeros(v.kind.dim)
    for c, p in zip(v.coeffs, basis.projectors):
        if c:
            out = out + p.scale(c)
    return out


def twirl_coefficients(m: BipartiteOperator, k: SymmetryKind) -> CoeffVector:
    """Project onto the commutant: c_i = tr(m Pi_i) / tr(Pi_i).

    This is the statistics-level twirl; for invariant m it inverts
    coeff_to_operator exactly.
    """
    if not m.exact:
        raise ValueError("twirl_coefficients requires an exact operator")
    basis = commutant_basis(k)
    if m.dim != k.dim:
        raise ValueError("dimension mismatch")
    coeffs = []
    for p, t in zip(basis.projectors, basis.traces):
        tr = (m @ p).trace()
        if tr.im:
            raise ValueError("operator trace against basis projector is not real")
        coeffs.append(tr.re / t)
    return CoeffVector(k, tuple(coeffs))


def twirl_coefficients_float(arr, k: SymmetryKind):
    """Float-mode twirl: list of floats, no exactness guarantees."""
    import numpy as np

    basis = commutant_basis(k)
    out = []
    for p, t in zip(basis.projectors, basis.traces):
        out.append(float(np.real(np.trace(np.asarray(arr) @ p.to_numpy()))) / t)
    return out


_PAULIS = {
    "i": ((CR1, CR0), (CR0, CR1)),
    "x": ((CR0, CR1), (CR1, CR0)),
    "y": ((CR0, CRat(0, -1)), (CRat(0, 1), CR0)),
    "z": ((CR1, CR0), (CR0, CRat(-1))),
}


def pauli(name: str):
    """2x2 Pauli grid by name: i, x, y, z."""
    return _PAULIS[name]


def bell_group_average(m: BipartiteOperator) -> BipartiteOperator:
    """Average of m over {1, X(x)X, Y(x)Y, Z(x)Z} conjugations.

    Finite-group oracle for the Bell twirl: must agree with projecting m
    onto the four Bell projectors.
    """
    if m.dim != 2:
        raise ValueError("Bell group average is defined for d = 2")
    acc = BipartiteOperator.zeros(2)
    for name in ("i", "x", "y", "z"):
        s = pauli(name)
        u = mat_kron(s, s)
        conj = mat_mul(mat_mul(u, m.entries), mat_dagger(u))
        acc = acc + BipartiteOperator(2, conj)
    return acc.scale(Fraction(1, 4))


@dataclass(frozen=True)
class PTMap:
    """Coefficient action of partial transposition, source basis to target.

    matrix columns are the target-basis coefficient vectors of the
    partially transposed source projectors; validated operator-level at
    construction.
    """

    source: SymmetryKind
    target: SymmetryKind
    matrix: tuple  # n x n Fractions

    def apply(self, v: CoeffVector) -> CoeffVector:
        if v.kind != self.source:
            raise ValueError(f"PT map expects {self.source.label()} coefficients, "
                             f"got {v.kind.label()}")
        return CoeffVector(self.target,
                           tuple(_exactlin.mat_vec([list(r) for r in self.matrix],
                                                   list(v.coeffs))))

    def compose(self, other: "PTMap") -> "PTMap":
        """self after other (apply other first)."""
        if other.target != self.source:
            raise ValueError("PT map composition with mismatched bases: "
                             f"{other.target.label()} vs {self.source.label()}")
        prod = _exactlin.mat_mul([list(r) for r in self.matrix],
                                 [list(r) for r in other.matrix])
        return PTMap(other.source, self.target, tuple(tuple(r) for r in prod))


def oo_pt_matrix(d: int):
    """The 3x3 partial-transpose matrix for the oo family."""
    h = Fraction(1, 2 * d)
    return (
        (2 * h, d * (1 - d) * h, (d + 2) * (d - 1) * h),
        (-2 * h, d * h, (d + 2) * h),
        (2 * h, d * h, (d - 2) * h),
    )


@lru_cache(maxsize=None)
def pt_coefficient_map(k: SymmetryKind) -> PTMap:
    """PT map for a source family (isotropic <-> werner are cross-family)."""
    if k.family is Family.ISOTROPIC:
        target = SymmetryKind(Family.WERNER, k.dim)
    elif k.family is Family.WERNER:
        target = SymmetryKind(Family.ISOTROPIC, k.dim)
    else:
        target = k
    if k.family is Family.OO:
        matrix = oo_pt_matrix(k.dim)
    else:
        cols = []
        for p in commutant_basis(k).projectors:
            cols.append(twirl_coefficients(partial_transpose(p), target).coeffs)
        matrix = tuple(tuple(cols[j][i] for j in range(len(cols)))
                       for i in range(target.n_coeffs))
    m = PTMap(k, target, matrix)
    _validate_pt_map(m)
    return m


def _validate_pt_map(m: PTMap):
    n = m.source.n_coeffs
    for i in range(n):
        e = CoeffVector(m.source, tuple(Fraction(int(j == i)) for j in range(n)))
        image = coeff_to_operator(m.apply(e))
        direct = partial_transpose(coeff_to_operator(e))
        if image != direct:
            raise AssertionError(f"PT map for {m.source.label()} fails "
                                 f"operator-level validation on projector {i}")
    ones = m.apply(all_ones(m.source))
    if any(c != 1 for c in ones.coeffs):
        raise AssertionError("PT map does not fix the identity")
