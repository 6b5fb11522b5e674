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

Every projector but Bell's is written once, as coordinates on (1, F, P+)
in `_PROJECTOR_COORDS`.  Projector traces, the twirl from (tr X, tr FX,
tr P+X) and the PT maps (PT(F) = d P+, PT(P+) = F/d; Vollbrecht & Werner,
PRA 64, 062307, 2001) follow from it in closed form; the exact and the
float verification of protocols both combine their per-term invariants
through `projector_traces`.  The dense projectors of `commutant_basis`
remain for `sympovm basis` and the oracle (`coeff_to_operator`,
`twirl_coefficients`) of the tests.
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
    json_list,
    json_object,
    maximally_entangled_projector,
    mat_dagger,
    mat_kron,
    mat_mul,
    parse_fraction,
    parse_int,
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
        """Read a coefficient object; a wrong shape or value is a ValueError
        naming its field."""
        json_object(obj, "family", "dim", "coeffs")
        return cls.from_json_row(kind_from_json(obj), obj["coeffs"], "coeffs")

    @classmethod
    def from_json_row(cls, k: SymmetryKind, row, where) -> "CoeffVector":
        """The coefficients of kind k in the JSON list row, found at where."""
        coeffs = tuple(parse_fraction(c, f"{where}[{j}]")
                       for j, c in enumerate(json_list(row, where)))
        if len(coeffs) != k.n_coeffs:
            raise ValueError(f"{where}: {k.label()} expects {k.n_coeffs} coefficients")
        return cls(k, coeffs)


def all_ones(k: SymmetryKind) -> CoeffVector:
    return CoeffVector(k, (Fraction(1),) * k.n_coeffs)


def _check_same_kind(a: SymmetryKind, b: SymmetryKind):
    if a != b:
        raise ValueError(f"symmetry kind mismatch: {a.label()} vs {b.label()}")


def _bell_projectors():
    # psi+, psi-, phi+, phi- as unnormalised Bell vectors v; projector = v v† / 2
    half = CRat(Fraction(1, 2))
    return tuple(BipartiteOperator(2, [[half * CRat(v[r] * v[c]) for c in range(4)]
                                       for r in range(4)])
                 for v in ((0, 1, 1, 0), (0, 1, -1, 0), (1, 0, 0, 1), (1, 0, 0, -1)))


_HALF = Fraction(1, 2)

# Each commutant projector as coordinates on (1, F, P+), in basis order.
_PROJECTOR_COORDS = {
    Family.ISOTROPIC: ((0, 0, 1), (1, 0, -1)),
    Family.WERNER: ((_HALF, -_HALF, 0), (_HALF, _HALF, 0)),
    Family.OO: ((0, 0, 1), (_HALF, -_HALF, 0), (_HALF, _HALF, -1)),
}

# PT(Pi_j) = 1/2 - Pi_(3-j) for the Bell projectors.
_BELL_PT = tuple(tuple(-_HALF if i + j == 3 else _HALF for j in range(4))
                 for i in range(4))

# The isotropic and werner PT maps cross families; the others stay in theirs.
_PT_TARGET = {Family.ISOTROPIC: Family.WERNER, Family.WERNER: Family.ISOTROPIC}


def _invariants(d, x):
    """(tr X, tr FX, tr P+X) of X = x0 1 + x1 F + x2 P+: the trace pairings
    of (1, F, P+) are [[d^2, d, 1], [d, d^2, 1], [1, 1, 1]]."""
    a, b, c = x
    return (d * d * a + d * b + c, d * a + d * d * b + c, a + b + c)


def projector_traces(k: SymmetryKind, invariants) -> list:
    """tr(Pi_i X) for each commutant projector Pi_i, in basis order, from
    invariants = (tr X, tr FX, tr P+X), exact or float.  Not for the Bell
    family."""
    return [sum(x * c for c, x in zip(row, invariants) if c)
            for row in _PROJECTOR_COORDS[k.family]]


@lru_cache(maxsize=None)
def basis_traces(k: SymmetryKind) -> tuple:
    """Traces of the commutant projectors, in basis order."""
    if k.family is Family.BELL:
        return (1, 1, 1, 1)
    return tuple(int(t) for t in projector_traces(k, _invariants(k.dim, (1, 0, 0))))


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
    basis = CommutantBasis(k, projs)
    _validate_basis(basis)
    return basis


def _validate_basis(basis: CommutantBasis):
    projs, d = basis.projectors, basis.kind.dim
    zero = BipartiteOperator.zeros(d)
    if tuple(p.trace() for p in projs) != basis_traces(basis.kind):
        raise AssertionError("projector trace mismatch")
    if any(p @ q != (p if i == j else zero)
           for i, p in enumerate(projs) for j, q in enumerate(projs)):
        raise AssertionError("commutant projectors are not orthogonal")
    if sum(projs[1:], projs[0]) != BipartiteOperator.identity(d):
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
    basis = commutant_basis(k)
    if m.dim != k.dim:
        raise ValueError("dimension mismatch")
    coeffs = []
    for p, t in zip(basis.projectors, basis_traces(k)):
        tr = (m @ p).trace()
        if tr.im:
            raise ValueError("operator trace against basis projector is not real")
        coeffs.append(tr.re / t)
    return CoeffVector(k, tuple(coeffs))


_PAULIS = {
    "i": ((CR1, CR0), (CR0, CR1)),
    "x": ((CR0, CR1), (CR1, CR0)),
    "y": ((CR0, CRat(0, -1)), (CRat(0, 1), CR0)),
    "z": ((CR1, CR0), (CR0, CRat(-1))),
}


def bell_group_average(m: BipartiteOperator) -> BipartiteOperator:
    """Average of m over {1, X(x)X, Y(x)Y, Z(x)Z} conjugations.

    Finite-group oracle for the Bell twirl: must agree with projecting m
    onto the four Bell projectors.
    """
    if m.dim != 2:
        raise ValueError("Bell group average is defined for d = 2")
    acc = BipartiteOperator.zeros(2)
    for name in ("i", "x", "y", "z"):
        s = _PAULIS[name]
        u = mat_kron(s, s)
        conj = mat_mul(mat_mul(u, m.entries), mat_dagger(u))
        acc = acc + BipartiteOperator(2, conj)
    return acc.scale(Fraction(1, 4))


@dataclass(frozen=True)
class PTMap:
    """Coefficient action of partial transposition, source basis to target.

    matrix columns are the target-basis coefficient vectors of the
    partially transposed source projectors.
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


@lru_cache(maxsize=None)
def pt_coefficient_map(k: SymmetryKind) -> PTMap:
    """PT map for a source family (isotropic <-> werner are cross-family).

    PT fixes 1 and swaps F and d P+, so the PT of a projector with
    coordinates (a, b, c) has coordinates (a, c/d, b d); its target-basis
    coefficients are its projector traces over the projector ranks.
    """
    target = SymmetryKind(_PT_TARGET.get(k.family, k.family), k.dim)
    if k.family is Family.BELL:
        matrix = _BELL_PT
    else:
        d = k.dim
        ranks = basis_traces(target)
        cols = []
        for a, b, c in _PROJECTOR_COORDS[k.family]:
            traces = projector_traces(target, _invariants(d, (a, Fraction(c, d), b * d)))
            cols.append([Fraction(t) / n for t, n in zip(traces, ranks)])
        matrix = tuple(tuple(col[i] for col in cols) for i in range(target.n_coeffs))
    m = PTMap(k, target, matrix)
    if any(c != 1 for c in m.apply(all_ones(k)).coeffs):
        raise AssertionError("PT map does not fix the identity")
    return m
