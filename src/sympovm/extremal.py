"""Extremal feasible POVMs: vertex enumeration, catalogs, certificates.

Each family's extremal classes up to outcome order are written once, in
closed form, in ``extremal_classes``; the ordered catalog (every placement
of a class), the class sweep (``catalog_classes``), the basic vectors and
the oo named elements are read from it.

Two independent enumeration routes are provided.  The primary one is an
exact double-description sweep (incremental halfspace insertion on the
homogenised cone, integer ray arithmetic, combinatorial adjacency).  The
oracle is brute-force active-set enumeration: every maximal-rank subset
of halfspaces is solved and kept if feasible.  The oracle is restricted
to reduced dimension <= 8; it prefilters the combinatorial explosion in
floating point (safe here because all constraint data is scaled to small
integers, so a nonsingular active set has |det| >= 1) and every surviving
candidate is re-solved and re-checked in exact rational arithmetic before
it is accepted.  Both routes, like the simplex, eliminate and reduce
integer rows through ``_exactlin``, the one exact elimination kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _exactlin
from .feasible import (
    Polytope,
    SymPovm,
    build_feasible_polytope,
    inequality_count,
    is_feasible,
    povm_from_coords,
)
from .operators import json_list, json_object, parse_fraction, parse_int
from .symmetry import CoeffVector, Family, SymmetryKind, kind_from_json


class EmptyPolytopeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# vertex sets

@dataclass(frozen=True)
class VertexSet:
    """Vertices of a feasible-POVM polytope, canonically sorted.

    ``points`` holds raw polytope coordinates; the POVM views expand
    eliminated two-outcome polytopes back to both elements.  The constraints
    active at each point are derived from the polytope on output.
    """

    kind: SymmetryKind | None
    n_outcomes: int | None
    points: tuple  # of coords tuples
    eliminated: bool = False

    def coords_set(self):
        return frozenset(self.points)

    def povm_coords(self):
        """The points as full POVM coordinates: an eliminated two-outcome
        point (M1) becomes (M1, 1 - M1)."""
        if not self.eliminated:
            return self.points
        return tuple(pt + tuple(1 - v for v in pt) for pt in self.points)

    def ordered_povms(self):
        if self.kind is None:
            raise ValueError("geometry-only vertex set has no POVM view")
        return [povm_from_coords(self.kind, self.n_outcomes, full)
                for full in self.povm_coords()]

    def povm_keys(self):
        return frozenset(tuple(e.coeffs for e in p.elements)
                         for p in self.ordered_povms())

    def canonical_classes(self):
        """(canonical povm, multiplicity) of each outcome-permutation class,
        sorted by the canonical elements."""
        groups = {}
        for povm in self.ordered_povms():
            canon = povm.canonical()
            entry = groups.setdefault(tuple(e.coeffs for e in canon.elements), [canon, 0])
            entry[1] += 1
        return [tuple(groups[k]) for k in sorted(groups)]

    def to_json(self) -> dict:
        """The points with their active labels (null without a family)."""
        poly = None if self.kind is None else \
            build_feasible_polytope(self.kind, self.n_outcomes, eliminate=self.eliminated)
        out = {"count": len(self.points),
               "vertices": [{"coords": [str(c) for c in coords],
                             "active": None if poly is None else
                             [list(a) for a in poly.active_labels(coords)]}
                            for coords in self.points]}
        if self.kind is not None:
            out["family"] = self.kind.family.value
            out["dim"] = self.kind.dim
            out["outcomes"] = self.n_outcomes
            out["eliminated"] = self.eliminated
            out["classes"] = [{"elements": [[str(c) for c in e.coeffs]
                                            for e in povm.elements],
                               "multiplicity": mult}
                              for povm, mult in self.canonical_classes()]
        return out

    @classmethod
    def from_json(cls, obj) -> "VertexSet":
        """Read a vertex set; a wrong shape or value is a ValueError naming its field."""
        json_object(obj, "vertices")
        k = kind_from_json(json_object(obj, "family", "dim", "outcomes")) \
            if "family" in obj else None
        outcomes = obj.get("outcomes")
        if outcomes is not None or k is not None:
            outcomes = parse_int(outcomes, "outcomes")
        eliminated = obj.get("eliminated", False)
        if not isinstance(eliminated, bool):
            raise ValueError(f"eliminated: expected true or false, got {eliminated!r}")
        width = None  # coordinates per point, known only with a family
        if k is not None:
            if outcomes < 1:
                raise ValueError(f"outcomes: expected a positive integer, got {outcomes}")
            if eliminated and outcomes != 2:
                raise ValueError(f"eliminated: true needs outcomes 2, got {outcomes}")
            width = k.n_coeffs * (1 if eliminated else outcomes)
        points = []
        for i, v in enumerate(json_list(obj["vertices"], "vertices")):
            where = f"vertices[{i}]"
            json_object(v, "coords", where=where)
            coords = json_list(v["coords"], f"{where}.coords")
            if width is not None and len(coords) != width:
                raise ValueError(f"{where}.coords: expected {width} entries, got {len(coords)}")
            points.append(tuple(parse_fraction(c, f"{where}.coords[{j}]")
                                for j, c in enumerate(coords)))
        return cls(k, outcomes, tuple(points), eliminated=eliminated)


def _vertex_set_from_points(polytope: Polytope, pts):
    meta = polytope.meta or {}
    points = tuple(sorted(map(tuple, pts)))
    return VertexSet(meta.get("kind"), meta.get("outcomes"), points,
                     eliminated=bool(meta.get("eliminated")))


# ---------------------------------------------------------------------------
# equality elimination

def _reduce_polytope(polytope: Polytope):
    """Parametrise the equality-affine subspace: x = x0 + B z.

    Returns (x0, basis vectors B, reduced rows [(coeffs, rhs, orig index)]).
    """
    n = polytope.ambient_dim
    if polytope.equalities:
        rows = [list(r) for r, _, _ in polytope.equalities]
        rhs = [b for _, b, _ in polytope.equalities]
        x0 = _exactlin.solve(rows, rhs)
        if x0 is None:
            raise EmptyPolytopeError("inconsistent equality constraints")
        basis = _exactlin.nullspace(rows, n)
    else:
        x0 = [Fraction(0)] * n
        basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced = []
    for idx, (row, rhs, _) in enumerate(polytope.inequalities):
        coeffs = [sum(r * b for r, b in zip(row, bvec)) for bvec in basis]
        shift = rhs - sum(r * v for r, v in zip(row, x0))
        if all(c == 0 for c in coeffs):
            if shift > 0:
                raise EmptyPolytopeError("equality subspace violates an inequality")
            continue
        reduced.append((coeffs, shift, idx))
    return x0, basis, reduced


def _lift(x0, basis, z):
    return tuple(x + sum(b[i] * zz for b, zz in zip(basis, z))
                 for i, x in enumerate(x0))


# ---------------------------------------------------------------------------
# double description

def _dd_cone(rows, dim):
    """Extreme rays of {y : row . y >= 0 for all rows}, exact integers.

    Standard incremental insertion: start from a simplicial cone spanned by
    the first ``dim`` independent rows, then cut with the remaining rows,
    keeping adjacent positive/negative ray combinations.  Zero sets are
    re-evaluated exactly on every new ray so the combinatorial adjacency
    test stays valid under degeneracy.
    """
    # the pivot columns of rref(rows^T) are the first independent rows
    chosen_idx = _exactlin.rref([list(col) for col in zip(*rows)])[1]
    if len(chosen_idx) < dim:
        raise ValueError("cone is not pointed; polytope unbounded or degenerate")
    inv = _exactlin.inverse([rows[i] for i in chosen_idx])
    rays = [_exactlin.primitive_ints([inv[i][j] for i in range(dim)])
            for j in range(dim)]
    processed = list(chosen_idx)

    def zeroset(ray):
        mask = 0
        for pos, ri in enumerate(processed):
            if sum(a * b for a, b in zip(rows[ri], ray)) == 0:
                mask |= 1 << pos
        return mask

    masks = [zeroset(r) for r in rays]
    for i, row in enumerate(rows):
        if i in chosen_idx:
            continue
        vals = [sum(a * b for a, b in zip(row, r)) for r in rays]
        if all(v >= 0 for v in vals):
            processed.append(i)
            bit = 1 << (len(processed) - 1)
            masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
            continue
        pos = [k for k, v in enumerate(vals) if v > 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        new_rays = []
        for p in pos:
            for q in neg:
                common = masks[p] & masks[q]
                if common.bit_count() < dim - 2:
                    continue
                if any(k != p and k != q and (masks[k] & common) == common
                       for k in range(len(rays))):
                    continue
                combo = tuple(vals[p] * rays[q][t] - vals[q] * rays[p][t]
                              for t in range(dim))
                new_rays.append(_exactlin.primitive(combo))
        processed.append(i)
        bit = 1 << (len(processed) - 1)
        keep_rays = [rays[k] for k in pos] + [rays[k] for k in zero]
        keep_masks = [masks[k] for k in pos] + [masks[k] | bit for k in zero]
        for r in new_rays:
            keep_rays.append(r)
            keep_masks.append(zeroset(r))
        rays, masks = keep_rays, keep_masks
    return rays


def enumerate_vertices(polytope: Polytope) -> VertexSet:
    """Exact vertex enumeration by double description."""
    x0, basis, reduced = _reduce_polytope(polytope)
    m = len(basis)
    if m == 0:
        if polytope.check_point(x0):
            raise EmptyPolytopeError("equality point violates the inequalities")
        return _vertex_set_from_points(polytope, [tuple(x0)])
    rows = []
    for coeffs, shift, _ in reduced:
        rows.append(_exactlin.primitive_ints(list(coeffs) + [-shift]))
    rows.append(tuple([0] * m + [1]))  # homogenising t >= 0
    rays = _dd_cone(rows, m + 1)
    pts = []
    seen = set()
    for ray in rays:
        t = ray[m]
        if t == 0:
            raise ValueError("polytope is unbounded (recession ray found)")
        z = [Fraction(v, t) for v in ray[:m]]
        x = _lift(x0, basis, z)
        if x not in seen:
            seen.add(x)
            pts.append(x)
    if not pts:
        raise EmptyPolytopeError("polytope is empty")
    return _vertex_set_from_points(polytope, pts)


# ---------------------------------------------------------------------------
# brute-force active-set oracle

# combinations screened per numpy batch by brute_force_vertices
_SCREEN_CHUNK = 60000


# The most inequalities of a feasible polytope that `vertex_polytope` builds:
# by double description bell N = 8 (64 rows) takes about 5 s and bell N = 10
# (80) 25 s; the tests and the benchmark use at most 40.
MAX_VERTEX_INEQUALITIES = 64


def vertex_polytope(k: SymmetryKind, n_outcomes: int) -> Polytope:
    """build_feasible_polytope(k, n_outcomes) for vertex enumeration; a
    polytope over MAX_VERTEX_INEQUALITIES rows is refused before it is built."""
    rows = inequality_count(k, n_outcomes)
    if rows > MAX_VERTEX_INEQUALITIES:
        raise ValueError(f"{n_outcomes} outcomes give {rows} inequalities, over the bound "
                         f"of {MAX_VERTEX_INEQUALITIES} for vertex enumeration")
    return build_feasible_polytope(k, n_outcomes)


def brute_force_vertices(polytope: Polytope) -> VertexSet:
    """Independent enumeration oracle: all maximal-rank active subsets.

    Reduced dimension must be <= 8.  Candidate active sets are screened in
    floating point and every survivor is confirmed in exact arithmetic, so
    the output is exact; the integer-data guard below keeps the screen
    conservative (no exact vertex can be screened out).  Needs numpy.
    """
    import numpy as np

    x0, basis, reduced = _reduce_polytope(polytope)
    m = len(basis)
    if m == 0:
        return enumerate_vertices(polytope)
    if m > 8:
        raise ValueError("brute-force oracle is limited to reduced dimension <= 8")
    int_rows = [_exactlin.primitive_ints(list(coeffs) + [shift])
                for coeffs, shift, _ in reduced]
    A = np.array([r[:m] for r in int_rows], dtype=float)
    b = np.array([r[m] for r in int_rows], dtype=float)
    K = len(int_rows)
    if K < m:
        raise EmptyPolytopeError("too few inequalities to pin a vertex")
    maxabs = max(1, max(abs(v) for r in int_rows for v in r[:m]))
    if (m ** 0.5 * maxabs) ** m > 1e12:
        raise ValueError("constraint integers too large for the float screen")

    candidates = {}
    combo_iter = itertools.combinations(range(K), m)
    while True:
        block = list(itertools.islice(combo_iter, _SCREEN_CHUNK))
        if not block:
            break
        idx = np.array(block, dtype=np.intp)
        M = A[idx]
        rhs = b[idx]
        dets = np.linalg.det(M)
        ok = np.abs(dets) > 0.5
        if not ok.any():
            continue
        X = np.linalg.solve(M[ok], rhs[ok][:, :, None])[:, :, 0]
        res = X @ A.T - b
        feas = (res >= -1e-7).all(axis=1)
        for row_i in np.nonzero(feas)[0]:
            key = tuple(np.round(X[row_i], 9))
            subs = candidates.setdefault(key, [])
            if len(subs) < 32:
                subs.append(tuple(int(v) for v in idx[ok][row_i]))

    exact_pts = set()
    frac_rows = [[Fraction(v) for v in r[:m]] for r in int_rows]
    frac_rhs = [Fraction(r[m]) for r in int_rows]
    for subs in candidates.values():
        for sub in subs:
            sol = _exactlin.solve([frac_rows[i] for i in sub],
                                  [frac_rhs[i] for i in sub])
            if sol is None:
                continue
            if all(sum(r * v for r, v in zip(frac_rows[i], sol)) >= frac_rhs[i]
                   for i in range(K)):
                exact_pts.add(tuple(sol))
    pts = [_lift(x0, basis, z) for z in sorted(exact_pts)]
    if not pts:
        raise EmptyPolytopeError("polytope is empty")
    return _vertex_set_from_points(polytope, pts)


# ---------------------------------------------------------------------------
# extremality certificates

@dataclass(frozen=True)
class ExtremalityReport:
    extremal: bool
    rank: int
    ambient: int
    perturbation: SymPovm | None = None  # feasible direction when non-extremal


def is_extremal(p: SymPovm) -> ExtremalityReport:
    """Active-set rank test with an explicit perturbation witness.

    p is extremal iff the constraints active at p span coefficient space;
    otherwise any kernel direction delta keeps both p + delta and
    p - delta feasible after scaling below the slack of the inactive rows.
    """
    report = is_feasible(p)
    if not report.feasible:
        raise ValueError(f"is_extremal requires a feasible POVM; violations: "
                         f"{report.violations}")
    poly = build_feasible_polytope(p.kind, p.n_outcomes, eliminate=False)
    x = p.coords()
    rows = [list(r) for r, _, _ in poly.equalities]
    slack_rows = []
    for row, rhs, label in poly.inequalities:
        val = sum(r * v for r, v in zip(row, x))
        if val == rhs:
            rows.append(list(row))
        else:
            slack_rows.append((row, val - rhs))
    kernel = _exactlin.nullspace(rows, poly.ambient_dim)
    rank = poly.ambient_dim - len(kernel)
    if not kernel:
        return ExtremalityReport(True, rank, poly.ambient_dim)
    delta = kernel[0]
    eps = None
    for row, slack in slack_rows:
        move = sum(r * d for r, d in zip(row, delta))
        if move:
            bound = slack / abs(move)
            if eps is None or bound < eps:
                eps = bound
    scale = Fraction(1) if eps is None else eps / 2
    witness = povm_from_coords(p.kind, p.n_outcomes,
                               tuple(scale * d for d in delta))
    return ExtremalityReport(False, rank, poly.ambient_dim, perturbation=witness)


# ---------------------------------------------------------------------------
# the class table and the catalogs placed from it

def _rest(*parts):
    """The identity element minus ``parts``, coefficient by coefficient."""
    return tuple(1 - sum(c) for c in zip(*parts))


def extremal_classes(k: SymmetryKind) -> tuple:
    """Every extremal class of family k up to outcome order, in closed form.

    A class is the tuple of its nonzero elements.  The order is fixed: the
    identity; the two-outcome pairs (the isotropic/werner images of the
    protocol's point masses x = 1 and y = 1, the three Bell pairs (c, 1 - c),
    oo's B, C and D); then oo's genuine three-outcome triple (B1, M2, C1).
    At oo d = 2 the triple's middle element is 0, and B, C and the triple
    are one class.
    """
    d = k.dim
    zero, one = Fraction(0), Fraction(1)
    ident = (one,) * k.n_coeffs
    if k.family is Family.BELL:
        firsts = [tuple(Fraction(int(i in (0, j))) for i in range(4)) for j in (1, 2, 3)]
        return ((ident,),) + tuple((c, _rest(c)) for c in firsts)
    if k.family is Family.OO:
        den = Fraction((d + 2) * (d - 1))
        b1 = (zero, zero, 2 * d / den)
        c1 = (one, one / (d - 1), (d - 2) / den)
        d1 = (one, zero, Fraction(2, d + 2))
        triple = (b1, _rest(b1, c1), c1)
        return ((ident,),) + tuple((c, _rest(c)) for c in (b1, c1, d1)) + \
            (tuple(e for e in triple if any(e)),)
    # the images of the point masses x = 1 and y = 1
    if k.family is Family.ISOTROPIC:
        return (ident,), ((one, Fraction(1, d + 1)), (zero, Fraction(d, d + 1)))
    return (ident,), ((zero, Fraction(2, d + 1)), (one, Fraction(d - 1, d + 1)))


def pair_classes(k: SymmetryKind) -> tuple:
    """The two-outcome classes of the table, each (element, complement)."""
    return extremal_classes(k)[1:4]  # oo's triple comes after B, C and D


def oo_two_outcome_elements(d: int) -> dict:
    """The eight two-outcome extremal elements, keyed A1..D2 (A is 0 and 1)."""
    (ident,), *pairs = extremal_classes(SymmetryKind(Family.OO, d))[:4]
    named = {"A1": (Fraction(0),) * 3, "A2": ident}
    for letter, (x1, x2) in zip("BCD", pairs):
        named[letter + "1"], named[letter + "2"] = x1, x2
    return named


def oo_three_outcome_elements(d: int) -> tuple:
    """The genuine 3-outcome extremal triple (M1, M2, M3) of the table, with
    M2 = 1 - M1 - M3 kept where it is 0 (d = 2)."""
    m1, *_, m3 = extremal_classes(SymmetryKind(Family.OO, d))[-1]
    return m1, _rest(m1, m3), m3


def _fitting_classes(k: SymmetryKind, n_outcomes: int):
    """The table's classes with at most n_outcomes nonzero elements."""
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    return [parts for parts in extremal_classes(k) if len(parts) <= n_outcomes]


# The most coordinates an ordered catalog may hold: N outcomes place a class
# of c elements N!/(N-c)! ways, each point N*n coordinates, so oo's triple
# alone gives about 3 N^4.  oo fits up to N = 12 (62 208; printing its JSON
# takes seconds), isotropic and werner up to N = 32; N = 100 oo would be 3e8.
MAX_CATALOG_ENTRIES = 2 ** 16


@lru_cache(maxsize=None)
def catalog_extrema(k: SymmetryKind, n_outcomes: int) -> VertexSet:
    """The extremal n-outcome POVMs: every placement of a class of the table
    into distinct outcomes, sorted.  Cached: a VertexSet is immutable."""
    classes = _fitting_classes(k, n_outcomes)
    entries = sum(math.perm(n_outcomes, len(parts)) for parts in classes) * \
        n_outcomes * k.n_coeffs
    if entries > MAX_CATALOG_ENTRIES:
        raise ValueError(f"{n_outcomes} outcomes are too many for an ordered catalog: "
                         f"{entries} coordinates, over the bound of {MAX_CATALOG_ENTRIES}")
    zero = (Fraction(0),) * k.n_coeffs
    pts = set()
    for parts in classes:
        for slots in itertools.permutations(range(n_outcomes), len(parts)):
            placed = dict(zip(slots, parts))
            pts.add(tuple(c for s in range(n_outcomes) for c in placed.get(s, zero)))
    return VertexSet(k, n_outcomes, tuple(sorted(pts)), eliminated=False)


def catalog_classes(k: SymmetryKind, n_outcomes: int) -> list:
    """The canonical n-outcome POVM of each class of the table, sorted as
    ``VertexSet.canonical_classes`` sorts them; no ordered catalog is built."""
    zero = (Fraction(0),) * k.n_coeffs
    classes = {}
    for parts in _fitting_classes(k, n_outcomes):
        elems = sorted(parts + (zero,) * (n_outcomes - len(parts)))
        classes[tuple(elems)] = SymPovm(k, tuple(CoeffVector(k, e) for e in elems))
    return [classes[key] for key in sorted(classes)]


# ---------------------------------------------------------------------------
# basic vectors

@dataclass(frozen=True)
class BasicVectorSet:
    kind: SymmetryKind
    vectors: tuple  # of CoeffVector


def basic_vectors(k: SymmetryKind) -> BasicVectorSet:
    """Conic generators of the feasible elements: 0, the identity and the
    elements of the table's two-outcome pairs (Bell: the pair elements
    sorted, then 0 and the identity)."""
    zero = (Fraction(0),) * k.n_coeffs
    ident = extremal_classes(k)[0][0]
    elems = [e for pair in pair_classes(k) for e in pair]
    out = sorted(elems) + [zero, ident] if k.family is Family.BELL else [zero, ident] + elems
    return BasicVectorSet(k, tuple(CoeffVector(k, v) for v in out))


# ---------------------------------------------------------------------------
# structure checks over a catalog

@dataclass(frozen=True)
class LemmaCheck:
    vertex_index: int
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _proportional_to(v, w):
    """Scalar lam > 0 with v = lam * w, or None."""
    lam = None
    for a, b in zip(v, w):
        if b == 0:
            if a != 0:
                return None
        else:
            r = Fraction(a) / b
            if lam is None:
                lam = r
            elif lam != r:
                return None
    return lam if lam and lam > 0 else None


def check_lemma_properties(catalog: VertexSet) -> LemmaReport:
    """Structural requirements every extremal vertex must satisfy.

    Checked per canonical vertex: linear independence of the nonzero
    elements; for the Bell family, at least N-1 tight columns among N
    nonzero ones; for the oo family, no vertex with 3+ nonzero outcomes
    may use both members of a complementary pair nor the identity element;
    and every vertex with a full count of nonzero outcomes must consist of
    elements proportional to 2-outcome extremal elements.
    """
    k = catalog.kind
    n = k.n_coeffs
    two_out = [v.coeffs for v in basic_vectors(k).vectors if any(v.coeffs)]
    # the letter of each element of the identity class (A) and of oo's pairs
    pair_of = {e: letter for letter, cls in zip("ABCD", extremal_classes(k)) for e in cls}
    checks = []
    for vi, (povm, _) in enumerate(catalog.canonical_classes()):
        nz = [e.coeffs for e in povm.nonzero_elements()]
        indep = _exactlin.rank([list(map(Fraction, e)) for e in nz]) == len(nz)
        checks.append(LemmaCheck(vi, "nonzero-elements-independent", indep,
                                 f"{len(nz)} nonzero outcomes"))
        if k.family is Family.BELL and len(nz) >= 2:
            tight = sum(1 for e in nz if 2 * max(e) == sum(e))
            checks.append(LemmaCheck(vi, "bell-tight-columns",
                                     tight >= len(nz) - 1,
                                     f"{tight} tight of {len(nz)}"))
        if k.family is Family.OO and len(nz) >= 3:
            letters = []
            for e in nz:
                letter = next((tag for w, tag in pair_of.items()
                               if _proportional_to(e, w) is not None), None)
                if letter is None:
                    letters = None
                    break
                letters.append(letter)
            ok = (letters is not None and len(set(letters)) == len(letters)
                  and "A" not in letters)
            checks.append(LemmaCheck(vi, "oo-no-complementary-pair", ok,
                                     f"pair letters {letters}"))
        if len(nz) == n:
            ok = all(any(_proportional_to(e, w) is not None for w in two_out)
                     for e in nz)
            checks.append(LemmaCheck(vi, "max-outcome-two-outcome-proportional",
                                     ok, ""))
    return LemmaReport(tuple(checks))
