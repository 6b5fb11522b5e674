"""Local measurement protocols attaining the symmetric PPT POVMs.

A protocol is a twirl tag plus, per outcome, a list of weighted product
terms (Alice factor (x) Bob factor), every factor PSD.  Twirling the
physical outcome operators must reproduce the target coefficient vectors
exactly; that check is `verify_protocol`.

Exact verification never builds a d^2 x d^2 operator: it scales each
factor once to Gaussian integers (`operators.IntGrid`) and runs the PSD
test, completeness and the twirl on them.  The twirl of a product term
w A (x) B needs only d x d invariants of its factors: tr(A (x) B) =
trA trB, tr(F A (x) B) = tr(AB) and tr(P+ A (x) B) = tr(AB^T)/d, which
`symmetry.projector_traces` turns into projector traces through the
family's commutant table; a Bell projector (1 (x) s) Phi+ (1 (x) s)^dagger
gives tr(A (s^dagger B s)^T)/2.  Completeness is a sparse sum over the
nonzero factor entries; both sums run in integers over one common
denominator of every term.  The dense route, `LocalProtocol.outcome_operator`
twirled by `symmetry.twirl_coefficients`, stays as the independent oracle
of the tests and the acceptance checks.

Pure-state sets carry unnormalised Gaussian-rational amplitude vectors
with their squared norm, so projectors (and hence every protocol
operator) stay exactly rational even though the normalised amplitudes
involve 1/sqrt(2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .feasible import SymPovm
from .operators import (
    CR0,
    CR1,
    BipartiteOperator,
    CRat,
    IntGrid,
    cr,
    grid_from_json,
    json_grid,
    json_list,
    json_object,
    ketbra,
    mat,
    mat_add,
    mat_eye,
    mat_is_exact,
    mat_kron,
    mat_scale,
    mat_sub,
    parse_crat,
    parse_fraction,
    parse_int,
    psd_exact,
)
from .symmetry import (
    CoeffVector,
    Family,
    SymmetryKind,
    basis_traces,
    kind_from_json,
    projector_traces,
)


class InfeasibleTargetError(ValueError):
    """Target POVM violates the PPT condition needed by the protocol."""

    def __init__(self, outcome, coefficient, message):
        super().__init__(message)
        self.outcome = outcome
        self.coefficient = coefficient


@dataclass(frozen=True)
class ProductTerm:
    weight: Fraction
    a_factor: object  # d x d exact grid, or a float array in float mode
    b_factor: object

    @property
    def exact(self) -> bool:
        return mat_is_exact(self.a_factor) and mat_is_exact(self.b_factor)


@dataclass(frozen=True)
class LocalProtocol:
    kind: SymmetryKind
    outcomes: tuple  # of tuple[ProductTerm, ...]; an empty tuple is the zero outcome

    def __post_init__(self):
        d = self.kind.dim
        for k, terms in enumerate(self.outcomes):
            for n, t in enumerate(terms):
                for name, g in (("a", t.a_factor), ("b", t.b_factor)):
                    if len(g) != d or any(len(row) != d for row in g):
                        raise ValueError(f"outcome {k}, term {n}: factor {name} "
                                         f"is not {d}x{d}")

    @cached_property
    def exact(self) -> bool:
        return all(t.exact for terms in self.outcomes for t in terms)

    def outcome_operator(self, k):
        """Outcome k as a dense d^2 x d^2 operator: the oracle of the tests."""
        if not self.exact:
            raise ValueError("outcome_operator requires an exact protocol")
        d = self.kind.dim
        op = BipartiteOperator.zeros(d)
        for t in self.outcomes[k]:
            op = op + BipartiteOperator(d, mat_kron(t.a_factor, t.b_factor)).scale(t.weight)
        return op

    def outcome_coefficients(self, k) -> CoeffVector:
        """The twirl of outcome k from d x d invariants of its product terms.

        Equals twirl_coefficients(self.outcome_operator(k), self.kind)
        exactly, and raises the same error when a basis trace is not real.
        """
        if not self.exact:
            raise ValueError("outcome_coefficients requires an exact protocol")
        (terms,), scale = _scaled_terms((self.outcomes[k],))
        return CoeffVector(self.kind, _exact_coefficients(terms, scale, self.kind))

    def resolves_identity(self) -> bool:
        """Whether the outcome operators sum to the identity, exactly."""
        if not self.exact:
            raise ValueError("resolves_identity requires an exact protocol")
        return _exact_complete(*_scaled_terms(self.outcomes), self.kind.dim)

    def to_json(self) -> dict:
        def factor_json(g):
            exact = mat_is_exact(g)
            return {"dim": len(g),
                    "entries": [[[str(x.re), str(x.im)] if exact else [x.real, x.imag]
                                 for x in row] for row in g]}

        return {"twirl": self.kind.family.value, "dim": self.kind.dim,
                "outcomes": [[{"w": str(t.weight),
                               "a": factor_json(t.a_factor),
                               "b": factor_json(t.b_factor)} for t in terms]
                             for terms in self.outcomes]}

    @classmethod
    def from_json(cls, obj) -> "LocalProtocol":
        """Read the whole file in one mode: exact only when every entry is a
        pair of "p/q" strings, float (`sympovm._float`) otherwise.

        A wrong shape or value is a ValueError naming its field.
        """
        json_object(obj, "twirl", "dim", "outcomes")
        k = kind_from_json(obj, "twirl")
        outcomes = [json_list(terms, f"outcomes[{i}]")
                    for i, terms in enumerate(json_list(obj["outcomes"], "outcomes"))]
        for i, terms in enumerate(outcomes):
            for n, t in enumerate(terms):
                where = f"outcomes[{i}][{n}]"
                json_object(t, "w", "a", "b", where=where)
                for f in "ab":
                    json_object(t[f], "entries", where=f"{where}.{f}")
                    json_grid(t[f]["entries"], f"{where}.{f}.entries")
        if all(isinstance(x, str) for terms in outcomes for t in terms for f in "ab"
               for row in t[f]["entries"] for p in row for x in p):
            read = grid_from_json
        else:
            from . import _float

            read = _float.grid_from_json

        def term(where, t):
            return ProductTerm(parse_fraction(t["w"], f"{where}.w"),
                               *(read(t[f]["entries"], f"{where}.{f}.entries")
                                 for f in "ab"))

        return cls(k, tuple(tuple(term(f"outcomes[{i}][{n}]", t) for n, t in enumerate(terms))
                            for i, terms in enumerate(outcomes)))


_HALF = Fraction(1, 2)

# Bell projector i is (1 (x) s) Phi+ (1 (x) s)^dagger with s = X, XZ, 1, Z.  Each
# s is a signed permutation whose column j is sign[j] |perm[j]>, so
# (s^dagger B s)[i][j] = sign[i] sign[j] B[perm[i]][perm[j]].
_BELL_CONJUGATIONS = (((1, 0), (1, 1)), ((1, 0), (1, -1)),
                      ((0, 1), (1, 1)), ((0, 1), (1, -1)))


def _projector_traces(sums, k: SymmetryKind):
    """tr(Pi_i sum_t w A (x) B) for each commutant projector Pi_i, in basis
    order, from the sums over the terms t of w times their invariants: for
    bell tr(A (s^dagger B s)^T) per projector, else (trA trB, tr(AB),
    tr(AB^T)).  Exact or float."""
    if k.family is Family.BELL:
        return [s * _HALF for s in sums]
    tot, swap, plus = sums
    return projector_traces(k, (tot, swap, plus / k.dim))


def _scaled_terms(outcomes):
    """(outcomes, L): each term w A (x) B as (c, A, B), A and B the IntGrids
    of its factors and c = w L / (A.scale B.scale), so that the term is
    c A (x) B / L in their integers; L is the lcm over all terms."""
    grids = [[(t.weight, IntGrid(t.a_factor), IntGrid(t.b_factor)) for t in terms]
             for terms in outcomes]
    scale = lcm(1, *{w.denominator * a.scale * b.scale for terms in grids for w, a, b in terms})
    return [[(w.numerator * (scale // (w.denominator * a.scale * b.scale)), a, b)
             for w, a, b in terms] for terms in grids], scale


def _dot(a: IntGrid, mre, mim):
    """sum_ij A_ij M_ij over the nonzero entries of A, as an (re, im) pair."""
    return (sum(x * mre[i][j] - y * mim[i][j] for i, j, x, y in a.nonzero),
            sum(x * mim[i][j] + y * mre[i][j] for i, j, x, y in a.nonzero))


def _int_invariants(a: IntGrid, b: IntGrid, bell):
    """The invariants of a term A (x) B as (re, im) integer pairs, each
    a.scale * b.scale times its value."""
    if bell:
        return [_dot(a, *([[sign[i] * sign[j] * m[perm[i]][perm[j]] for j in (0, 1)]
                           for i in (0, 1)] for m in (b.re, b.im)))
                for perm, sign in _BELL_CONJUGATIONS]
    ar, ai, br, bi = (sum(row[i] for i, row in enumerate(m)) for m in (a.re, a.im, b.re, b.im))
    return ((ar * br - ai * bi, ar * bi + ai * br),
            _dot(a, list(zip(*b.re)), list(zip(*b.im))), _dot(a, b.re, b.im))


def _exact_coefficients(terms, scale, k: SymmetryKind) -> tuple:
    """The twirl coefficients of one outcome's scaled terms: the invariants
    summed as integers, one Fraction per sum; a basis trace that is not real
    is a ValueError."""
    bell = k.family is Family.BELL
    re, im = [0] * (4 if bell else 3), [0] * (4 if bell else 3)
    for c, a, b in terms:
        for s, (x, y) in enumerate(_int_invariants(a, b, bell)):
            re[s] += c * x
            im[s] += c * y
    traces = _projector_traces([Fraction(x, scale) for x in re], k)
    if any(_projector_traces([Fraction(y, scale) for y in im], k)):
        raise ValueError("operator trace against basis projector is not real")
    return tuple(tr / n for tr, n in zip(traces, basis_traces(k)))


def _exact_complete(outcomes, scale, d) -> bool:
    """Whether the scaled terms of all outcomes sum to the identity: c
    A[i][k] B[j][l] accumulates at ((i d + j), (k d + l)) as integers over
    the nonzero factor entries only, and must give scale times the identity."""
    n = d * d
    acc_re, acc_im = {}, {}
    for terms in outcomes:
        for c, a, b in terms:
            bnz = [(j * n + l, u, v) for j, l, u, v in b.nonzero]
            for i, k, x, y in a.nonzero:
                base, x, y = i * d * n + k * d, c * x, c * y
                for off, u, v in bnz:
                    key = base + off
                    acc_re[key] = acc_re.get(key, 0) + x * u - y * v
                    if y or v:
                        acc_im[key] = acc_im.get(key, 0) + x * v + y * u
    return all(acc_re.pop(r * (n + 1), 0) == scale for r in range(n)) and \
        not any(acc_re.values()) and not any(acc_im.values())


# ---------------------------------------------------------------------------
# pure-state sets resolving the identity with self-transpose-orthogonal states

@dataclass(frozen=True)
class PureState:
    weight: Fraction
    vec: tuple  # unnormalised CRat amplitudes
    norm2: Fraction

    @cached_property
    def projector(self):
        """|v><v| / norm2 as an exact grid, built once per state."""
        inv = CRat(Fraction(1) / self.norm2)
        return tuple(tuple(inv * (x * y.conjugate()) for y in self.vec)
                     for x in self.vec)


@dataclass(frozen=True)
class PureStateSet:
    dim: int
    states: tuple  # of PureState

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "states": [{"weight": str(st.weight), "norm2": str(st.norm2),
                            "vec": [[str(x.re), str(x.im)] for x in st.vec]}
                           for st in self.states]}

    @classmethod
    def from_json(cls, obj) -> "PureStateSet":
        """Read and validate a state set: a wrong shape or value is a ValueError
        naming its field, a set failing `_validate_state_set` an AssertionError."""
        json_object(obj, "dim", "states")
        d = parse_int(obj["dim"], "dim")
        states = []
        for n, st in enumerate(json_list(obj["states"], "states")):
            where = f"states[{n}]"
            json_object(st, "weight", "vec", "norm2", where=where)
            vec = tuple(parse_crat(p, f"{where}.vec[{i}]")
                        for i, p in enumerate(json_list(st["vec"], f"{where}.vec")))
            if len(vec) != d:
                raise ValueError(f"{where}.vec: expected {d} amplitudes, got {len(vec)}")
            states.append(PureState(parse_fraction(st["weight"], f"{where}.weight"), vec,
                                    parse_fraction(st["norm2"], f"{where}.norm2")))
        out = cls(d, tuple(states))
        _validate_state_set(out)
        return out


def cube_rotation_group():
    """The 24 proper rotations of the cube as signed permutation matrices."""
    mats = []
    for perm in itertools.permutations(range(3)):
        parity = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    parity = -parity
        for signs in itertools.product((1, -1), repeat=3):
            if parity * signs[0] * signs[1] * signs[2] == 1:
                rows = [[0] * 3 for _ in range(3)]
                for i in range(3):
                    rows[i][perm[i]] = signs[i]
                mats.append(tuple(tuple(r) for r in rows))
    return mats


@lru_cache(maxsize=None)
def build_pure_state_set(d: int) -> PureStateSet:
    """Weighted states with sum_q w_q |q><q| = 1 and sum_j amp_j^2 = 0.

    Even d: computational levels are paired, each 2-level block carrying
    (|r> + i|s>)/sqrt 2 and (|r> - i|s>)/sqrt 2 with weight 1.  Odd d:
    the same on all but the last three levels, which carry the 24-state
    orbit of (|r> + i|s>)/sqrt 2 under the cube rotation group (weight
    1/8, a Schur average over an irreducible real representation).
    Built and validated once per d; the set is immutable.
    """
    if d < 2:
        raise ValueError("need local dimension d >= 2")
    states = []
    pair_top = d if d % 2 == 0 else d - 3
    for r in range(0, pair_top, 2):
        for sign in (1, -1):
            vec = [CR0] * d
            vec[r] = CR1
            vec[r + 1] = CRat(0, sign)
            states.append(PureState(Fraction(1), tuple(vec), Fraction(2)))
    if d % 2:
        off = d - 3
        # orbit of (|off> + i|off+1>)/sqrt 2: column 0 + i * column 1 of each O
        for rot in cube_rotation_group():
            vec = [CR0] * d
            for i in range(3):
                vec[off + i] = CRat(rot[i][0], rot[i][1])
            states.append(PureState(Fraction(1, 8), tuple(vec), Fraction(2)))
    out = PureStateSet(d, tuple(states))
    _validate_state_set(out)
    return out


def _validate_state_set(s: PureStateSet):
    d = s.dim
    acc = mat([[0] * d for _ in range(d)])
    for st in s.states:
        if st.weight <= 0:
            raise AssertionError("state weights must be positive")
        if sum((x * x for x in st.vec), CR0):
            raise AssertionError("state fails self-transpose orthogonality")
        if st.norm2 <= 0 or sum((x * x.conjugate() for x in st.vec), CR0) != st.norm2:
            raise AssertionError("stored squared norm is wrong")
        acc = mat_add(acc, mat_scale(st.weight, st.projector))
    if acc != mat_eye(d):
        raise AssertionError("states do not resolve the identity")


# ---------------------------------------------------------------------------
# isotropic / werner protocols

def _diag_response(d, i, x, y):
    """x |i><i| + y (1 - |i><i|) as an exact diagonal grid."""
    return tuple(tuple(cr(x if j == i else y) if j == kk else CR0
                       for kk in range(d)) for j in range(d))


def _basis_product_outcomes(d, xy):
    outcomes = []
    for x, y in xy:
        terms = tuple(ProductTerm(Fraction(1), ketbra(i, i, d), _diag_response(d, i, x, y))
                      for i in range(d))
        outcomes.append(terms)
    return tuple(outcomes)


def isotropic_protocol(target: SymPovm) -> LocalProtocol:
    """Computational-basis protocol with x_k = a_k, y_k = ((d+1)b_k - a_k)/d."""
    if target.kind.family is not Family.ISOTROPIC:
        raise ValueError("target must be an isotropic POVM")
    d = target.kind.dim
    xy = []
    for k, e in enumerate(target.elements):
        a, b = e.coeffs
        x = a
        y = ((d + 1) * b - a) / d
        if x < 0:
            raise InfeasibleTargetError(k, x, f"outcome {k}: negative coefficient {x}")
        if y < 0:
            raise InfeasibleTargetError(
                k, y, f"outcome {k}: (d+1)b >= a fails, response weight y = {y}")
        xy.append((x, y))
    return LocalProtocol(target.kind, _basis_product_outcomes(d, xy))


def werner_protocol(target: SymPovm) -> LocalProtocol:
    """Same product shape with x_k = ((1-d)a_k + (d+1)b_k)/2, y_k = a_k."""
    if target.kind.family is not Family.WERNER:
        raise ValueError("target must be a werner POVM")
    d = target.kind.dim
    xy = []
    for k, e in enumerate(target.elements):
        a, b = e.coeffs
        x = ((1 - d) * a + (d + 1) * b) / 2
        y = a
        if y < 0:
            raise InfeasibleTargetError(k, y, f"outcome {k}: negative coefficient {y}")
        if x < 0:
            raise InfeasibleTargetError(
                k, x, f"outcome {k}: b(d+1)/(d-1) >= a fails, response weight x = {x}")
        xy.append((x, y))
    return LocalProtocol(target.kind, _basis_product_outcomes(d, xy))


# ---------------------------------------------------------------------------
# bell protocols: product-basis projector sums


def _qubit_basis(name):
    """Orthonormal qubit projector pair for the z / x / y axes."""
    if name == "z":
        return ketbra(0, 0, 2), ketbra(1, 1, 2)
    if name == "x":
        p = mat([[_HALF, _HALF], [_HALF, _HALF]])
        m = mat([[_HALF, Fraction(-1, 2)], [Fraction(-1, 2), _HALF]])
        return p, m
    p = mat([[CRat(_HALF), CRat(0, Fraction(-1, 2))],
             [CRat(0, _HALF), CRat(_HALF)]])
    m = mat([[CRat(_HALF), CRat(0, _HALF)],
             [CRat(0, Fraction(-1, 2)), CRat(_HALF)]])
    return p, m


# which Bell pair a same/different product-basis measurement collects:
# key = frozenset of coefficient slots (psi+, psi-, phi+, phi-) equal to 1
_BELL_SPLITS = {
    frozenset({2, 3}): ("z", "same"),
    frozenset({0, 1}): ("z", "diff"),
    frozenset({0, 2}): ("x", "same"),
    frozenset({1, 3}): ("x", "diff"),
    frozenset({0, 3}): ("y", "same"),
    frozenset({1, 2}): ("y", "diff"),
}


def _bell_element_terms(coeffs):
    ones = Fraction(1)
    if not any(coeffs):
        return ()
    if all(c == ones for c in coeffs):
        return (ProductTerm(Fraction(1), mat_eye(2), mat_eye(2)),)
    support = frozenset(i for i, c in enumerate(coeffs) if c == ones)
    if support not in _BELL_SPLITS or any(c not in (0, 1) for c in coeffs):
        raise ValueError(f"element {coeffs} is not a two-outcome Bell catalog extremum")
    axis, mode = _BELL_SPLITS[support]
    p0, p1 = _qubit_basis(axis)
    if mode == "same":
        return (ProductTerm(Fraction(1), p0, p0), ProductTerm(Fraction(1), p1, p1))
    return (ProductTerm(Fraction(1), p0, p1), ProductTerm(Fraction(1), p1, p0))


def bell_protocol(extremum) -> LocalProtocol:
    """Product-basis protocol for a Bell catalog extremum.

    Accepts the extremal SymPovm itself or an index into
    catalog_classes(bell, 2).
    """
    from .extremal import catalog_classes
    from .symmetry import kind as mk

    k = mk(Family.BELL, 2)
    if isinstance(extremum, int):
        classes = catalog_classes(k, 2)
        if not 0 <= extremum < len(classes):
            raise ValueError(f"unknown Bell extremum index {extremum}")
        extremum = classes[extremum]
    if extremum.kind != k:
        raise ValueError("bell_protocol needs a d=2 Bell POVM")
    outcomes = tuple(_bell_element_terms(e.coeffs) for e in extremum.elements)
    return LocalProtocol(k, outcomes)


# ---------------------------------------------------------------------------
# oo protocols

def _transpose_grid(g):
    n = len(g)
    return tuple(tuple(g[j][i] for j in range(n)) for i in range(n))


def _oo_sum_terms(states: PureStateSet, bob):
    """Terms sum_q w_q |q><q| (x) bob(|q><q|)."""
    out = []
    for st in states.states:
        proj = st.projector
        out.append(ProductTerm(st.weight, proj, bob(proj)))
    return tuple(out)


def _oo_element_terms(coeffs, d, states: PureStateSet):
    """Product terms for one oo catalog element, keyed by its triple."""
    from .extremal import oo_three_outcome_elements, oo_two_outcome_elements

    named = oo_two_outcome_elements(d)
    m2 = oo_three_outcome_elements(d)[1]  # M1 and M3 are B1 and C1
    ident = mat_eye(d)
    coeffs = tuple(coeffs)
    if coeffs == named["A1"]:
        return ()
    if coeffs == named["A2"]:
        return (ProductTerm(Fraction(1), ident, ident),)
    if coeffs == named["D1"]:
        return tuple(ProductTerm(Fraction(1), ketbra(i, i, d), ketbra(i, i, d))
                     for i in range(d))
    if coeffs == named["D2"]:
        return tuple(ProductTerm(Fraction(1), ketbra(i, i, d),
                                 mat_sub(ident, ketbra(i, i, d)))
                     for i in range(d))
    if coeffs == named["B1"]:
        return _oo_sum_terms(states, lambda p: p)
    if coeffs == named["B2"]:
        return _oo_sum_terms(states, lambda p: mat_sub(ident, p))
    if coeffs == named["C1"]:
        return _oo_sum_terms(states, _transpose_grid)
    if coeffs == named["C2"]:
        return _oo_sum_terms(states, lambda p: mat_sub(ident, _transpose_grid(p)))
    if coeffs == m2:
        return _oo_sum_terms(states,
                             lambda p: mat_sub(mat_sub(ident, p), _transpose_grid(p)))
    raise ValueError(f"element {coeffs} is not an oo catalog extremum")


def oo_protocol(vertex_id: str, d: int, states: PureStateSet | None = None) -> LocalProtocol:
    """Protocol for an oo extremum: 'A' | 'B' | 'C' | 'D' | 'triple'.

    Pair protocols produce (X1, X2) in catalog order; 'triple' produces
    the unique genuine 3-outcome extremal (M1, M2, M3).
    """
    from .extremal import oo_three_outcome_elements, oo_two_outcome_elements
    from .symmetry import kind as mk

    k = mk(Family.OO, d)
    if states is None and vertex_id in ("B", "C", "triple"):
        states = build_pure_state_set(d)
    if states is not None and states.dim != d:
        raise ValueError("pure state set has the wrong dimension")
    named = oo_two_outcome_elements(d)
    if vertex_id in ("A", "B", "C", "D"):
        cols = (named[vertex_id + "1"], named[vertex_id + "2"])
    elif vertex_id == "triple":
        cols = oo_three_outcome_elements(d)
    else:
        raise ValueError(f"unknown oo extremum id {vertex_id!r}")
    outcomes = tuple(_oo_element_terms(c, d, states) for c in cols)
    return LocalProtocol(k, outcomes)


# ---------------------------------------------------------------------------
# generic synthesis for any catalog vertex

def protocol_for_vertex(povm: SymPovm, states: PureStateSet | None = None) -> LocalProtocol:
    """Protocol matching an extremal catalog POVM outcome-for-outcome."""
    fam = povm.kind.family
    if fam is Family.ISOTROPIC:
        return isotropic_protocol(povm)
    if fam is Family.WERNER:
        return werner_protocol(povm)
    if fam is Family.BELL:
        return bell_protocol(povm)
    d = povm.kind.dim
    if states is None:
        states = build_pure_state_set(d)
    outcomes = tuple(_oo_element_terms(e.coeffs, d, states) for e in povm.elements)
    return LocalProtocol(povm.kind, outcomes)


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class ProtocolVerification:
    ok: bool
    outcomes_ok: tuple
    diffs: tuple        # per outcome: None or the coefficient difference tuple
    complete: bool
    factors_psd: bool

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "outcomes_ok": list(self.outcomes_ok),
                "diffs": [None if d is None else [str(c) for c in d]
                          for d in self.diffs],
                "complete": self.complete,
                "factors_psd": self.factors_psd}


def verify_protocol(protocol: LocalProtocol, target: SymPovm,
                    eps: float = 1e-9) -> ProtocolVerification:
    """Twirl each outcome and compare against the target, exactly.

    Also checks that the untwirled outcomes resolve the identity and that
    every factor is PSD with nonnegative weight.  An exact protocol is
    checked on its factors, each scaled once to Gaussian integers, by the
    routes of `outcome_coefficients`, `resolves_identity` and
    `operators.psd_exact`, and no d^2 x d^2 operator is built; the dense twirl of
    `outcome_operator` is the oracle they are tested against.  A protocol
    with a float factor is checked by `sympovm._float` from the same
    invariants, every comparison within eps.
    """
    if protocol.kind != target.kind:
        raise ValueError("protocol and target symmetry kinds differ")
    if len(protocol.outcomes) != target.n_outcomes:
        raise ValueError("protocol and target outcome counts differ")
    if not protocol.exact:
        from . import _float

        return _float.verify_protocol(protocol, target, eps)
    outcomes, scale = _scaled_terms(protocol.outcomes)
    return _verification(target, (t for terms in outcomes for t in terms), psd_exact,
                         lambda k: _exact_coefficients(outcomes[k], scale, protocol.kind),
                         _exact_complete(outcomes, scale, protocol.kind.dim), 0)


def _verification(target, terms, factor_psd, coefficients, complete, tol):
    """The verification against target of a protocol with the given terms,
    each (weight or a positive multiple of it, A, B), given a factor check,
    coefficients(k) of outcome k, which matches its target when every
    difference is at most tol, and the completeness verdict."""
    psd_ok = all(w >= 0 and factor_psd(a) and factor_psd(b) for w, a, b in terms)
    diffs = []
    for k, e in enumerate(target.elements):
        diff = tuple(g - c for g, c in zip(coefficients(k), e.coeffs))
        diffs.append(None if all(abs(x) <= tol for x in diff) else diff)
    outcomes_ok = tuple(d is None for d in diffs)
    ok = all(outcomes_ok) and complete and psd_ok
    return ProtocolVerification(ok, outcomes_ok, tuple(diffs), complete, psd_ok)
