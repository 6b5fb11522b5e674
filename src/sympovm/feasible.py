"""Feasible-POVM polytopes and exact rational linear programming.

A symmetric POVM lives in coefficient space: N blocks of n rational
coefficients.  Feasibility is positivity plus PPT-ness of every element
plus completeness, all of which are linear, so the feasible set is a
rational polytope and every optimisation here is an exact LP.

The simplex implementation is a two-phase tableau method over Fractions
with Bland's rule (entering: lowest eligible index; leaving: lowest basis
index among minimum ratios), which makes every run deterministic and
cycling impossible.  Every variable is nonnegative.  Infeasible systems
yield a Farkas certificate: a combination of constraint rows, nonnegative
on the inequalities, adding up to an inequality that no x >= 0 satisfies.
The cost row is the tableau's last row, and every pivot is
``_exactlin.pivot``, the one exact elimination kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from ._exactlin import frac, pivot
from .operators import json_list, json_object
from .symmetry import CoeffVector, SymmetryKind, kind_from_json, pt_coefficient_map


@dataclass(frozen=True)
class SymPovm:
    """Ordered list of invariant POVM elements of one symmetry kind."""

    kind: SymmetryKind
    elements: tuple

    def __post_init__(self):
        for e in self.elements:
            if e.kind != self.kind:
                raise ValueError("all elements must share the POVM's symmetry kind")

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def is_complete(self) -> bool:
        n = self.kind.n_coeffs
        sums = [sum(e.coeffs[i] for e in self.elements) for i in range(n)]
        return all(s == 1 for s in sums)

    def coords(self) -> tuple:
        """Stacked coefficient vector, element-major."""
        return tuple(c for e in self.elements for c in e.coeffs)

    def canonical(self) -> "SymPovm":
        """Outcome order normalised by lexicographic sort of coefficient tuples."""
        return SymPovm(self.kind, tuple(sorted(self.elements, key=lambda e: e.coeffs)))

    def permuted(self, perm) -> "SymPovm":
        return SymPovm(self.kind, tuple(self.elements[p] for p in perm))

    def nonzero_elements(self) -> tuple:
        return tuple(e for e in self.elements if any(e.coeffs))

    def to_json(self) -> dict:
        return {"family": self.kind.family.value, "dim": self.kind.dim,
                "elements": [[str(c) for c in e.coeffs] for e in self.elements]}

    @classmethod
    def from_json(cls, obj) -> "SymPovm":
        """Read a POVM object; a wrong shape or value is a ValueError naming its field."""
        json_object(obj, "family", "dim", "elements")
        k = kind_from_json(obj)
        return cls(k, tuple(CoeffVector.from_json_row(k, row, f"elements[{i}]")
                            for i, row in enumerate(json_list(obj["elements"], "elements"))))


def povm_from_coords(k: SymmetryKind, n_outcomes: int, coords) -> SymPovm:
    n = k.n_coeffs
    elems = tuple(CoeffVector(k, tuple(coords[j * n: (j + 1) * n]))
                  for j in range(n_outcomes))
    return SymPovm(k, elems)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple  # of (label, value) with label ("pos"|"ppt"|"complete", k, i)


def is_feasible(p: SymPovm) -> FeasibilityReport:
    """Positivity + PPT per element + completeness, with violated labels."""
    ptm = pt_coefficient_map(p.kind)
    bad = []
    for k, e in enumerate(p.elements):
        for i, c in enumerate(e.coeffs):
            if c < 0:
                bad.append((("pos", k, i), c))
        for i, c in enumerate(ptm.apply(e).coeffs):
            if c < 0:
                bad.append((("ppt", k, i), c))
    n = p.kind.n_coeffs
    for i in range(n):
        s = sum(e.coeffs[i] for e in p.elements)
        if s != 1:
            bad.append((("complete", None, i), s))
    return FeasibilityReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# polytopes

@dataclass(frozen=True)
class Polytope:
    """H-representation: rows row.x >= rhs plus equality rows row.x = rhs."""

    ambient_dim: int
    inequalities: tuple  # of (row tuple, rhs, label)
    equalities: tuple
    meta: dict = field(default_factory=dict, compare=False)

    def check_point(self, x):
        """Violated labels at x (empty iff feasible)."""
        bad = []
        for row, rhs, label in self.inequalities:
            if sum(r * v for r, v in zip(row, x)) < rhs:
                bad.append(label)
        for row, rhs, label in self.equalities:
            if sum(r * v for r, v in zip(row, x)) != rhs:
                bad.append(label)
        return bad

    def active_labels(self, x) -> tuple:
        out = [label for row, rhs, label in self.inequalities
               if sum(r * v for r, v in zip(row, x)) == rhs]
        out.extend(label for _, _, label in self.equalities)
        return tuple(out)

    def to_json(self) -> dict:
        def rows(items):
            return [{"row": [str(c) for c in row], "rhs": str(rhs), "label": list(label)}
                    for row, rhs, label in items]

        return {"ambient_dim": self.ambient_dim,
                "inequalities": rows(self.inequalities),
                "equalities": rows(self.equalities)}


def build_feasible_polytope(k: SymmetryKind, n_outcomes: int,
                            eliminate: bool | None = None) -> Polytope:
    """Positivity + PPT + completeness constraints in coefficient space.

    For two-outcome POVMs the second element is eliminated via
    M2 = 1 - M1 (set ``eliminate=False`` to keep the full 2n variables),
    so the polytope matches the free-element polyhedron picture.
    """
    if eliminate is None:
        eliminate = n_outcomes == 2
    return _build_feasible_polytope(k, n_outcomes, eliminate)


@lru_cache(maxsize=None)
def _build_feasible_polytope(k, n_outcomes, eliminate) -> Polytope:
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    n = k.n_coeffs
    ptm = pt_coefficient_map(k)
    pt_rows = [list(r) for r in ptm.matrix]
    if eliminate and n_outcomes != 2:
        raise ValueError("variable elimination applies to 2-outcome POVMs only")
    zero, one = Fraction(0), Fraction(1)

    if eliminate:
        ineqs = []
        for i in range(n):
            e = tuple(one if j == i else zero for j in range(n))
            ineqs.append((e, zero, ("pos", 0, i)))
            ineqs.append((tuple(-c for c in e), -one, ("pos", 1, i)))
        for i in range(n):
            row = tuple(pt_rows[i])
            ineqs.append((row, zero, ("ppt", 0, i)))
            ineqs.append((tuple(-c for c in row), -one, ("ppt", 1, i)))
        return Polytope(n, tuple(ineqs), (),
                        meta={"kind": k, "outcomes": 2, "eliminated": True})

    dim = n * n_outcomes
    ineqs = []
    for kk in range(n_outcomes):
        base = kk * n
        for i in range(n):
            row = [zero] * dim
            row[base + i] = one
            ineqs.append((tuple(row), zero, ("pos", kk, i)))
        for i in range(n):
            row = [zero] * dim
            for j in range(n):
                row[base + j] = pt_rows[i][j]
            ineqs.append((tuple(row), zero, ("ppt", kk, i)))
    eqs = []
    for i in range(n):
        row = [zero] * dim
        for kk in range(n_outcomes):
            row[kk * n + i] = one
        eqs.append((tuple(row), one, ("complete", None, i)))
    return Polytope(dim, tuple(ineqs), tuple(eqs),
                    meta={"kind": k, "outcomes": n_outcomes, "eliminated": False})


# ---------------------------------------------------------------------------
# exact simplex

class UnboundedLpError(RuntimeError):
    """Unbounded LP; cannot occur for bounded POVM polytopes."""


@dataclass(frozen=True)
class LinearProgram:
    """Optimise objective . x over the polytope intersected with {x >= 0}.

    Every LP of the package has nonnegative variables (POVM coefficients,
    convex weights, transform entries), so none is split into free parts.
    """

    polytope: Polytope
    objective: tuple
    sense: str = "max"

    def __post_init__(self):
        if len(self.objective) != self.polytope.ambient_dim:
            raise ValueError("objective dimension mismatch")
        if self.sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None = None
    point: tuple | None = None
    active_labels: tuple | None = None
    certificate: tuple | None = None  # ((label, coeff), ...) Farkas combination

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.status == "optimal":
            out["value"] = str(self.value)
            out["point"] = [str(v) for v in self.point]
            out["vertex_certificate"] = [list(l) for l in self.active_labels]
        else:
            out["farkas"] = [{"label": list(l), "coeff": str(c)}
                             for l, c in self.certificate]
        return out


def _bland_iterate(T, basis, ncols_allowed):
    """Bland's rule on a tableau whose last row is the cost row."""
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


def lp_solve(lp: LinearProgram) -> LpResult:
    """Exact two-phase simplex.  Deterministic; returns a vertex optimum."""
    poly = lp.polytope
    n = poly.ambient_dim
    rows = []
    labels = []
    # equalities first, then inequalities with slack columns
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
        full[:n] = row
        if si is not None:
            full[n + si] = Fraction(-1)
        full[-1] = rhs
        if rhs < 0:
            full = [-v for v in full[:-1]] + [-rhs]
            signs.append(Fraction(-1))
        else:
            signs.append(Fraction(1))
        T.append(full)
    for i in range(m):
        T[i][ncols + i] = Fraction(1)
    basis = [ncols + i for i in range(m)]

    # phase 1: minimise the artificial sum; the cost row is the last row
    T.append([-sum(T[i][j] for i in range(m)) if j < ncols or j == ncols + m
              else Fraction(0) for j in range(ncols + m + 1)])
    _bland_iterate(T, basis, ncols)
    cost = T[-1]
    if -cost[-1] != 0:
        # infeasible; multipliers from the artificial columns' reduced costs
        cert = []
        for i in range(m):
            pi = (1 - cost[ncols + i]) * signs[i]
            if pi:
                cert.append((labels[i], pi))
        return LpResult("infeasible", certificate=tuple(cert))

    # drive basic artificials out; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            e = next((j for j in range(ncols) if T[i][j]), None)
            if e is None:
                continue  # 0 = 0 row
            pivot(T, i, e)
            basis[i] = e
        keep.append(i)
    if len(keep) < m:
        T = [T[i] for i in keep] + [T[-1]]
        basis = [basis[i] for i in keep]

    # phase 2: price out the basic columns of the new cost row
    obj = [frac(c) for c in lp.objective]
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


# ---------------------------------------------------------------------------
# convex decomposition over a vertex catalog

@dataclass(frozen=True)
class DecompositionResult:
    decomposed: bool
    weights: tuple | None = None       # ((povm, weight), ...) nonzero weights
    certificate: tuple | None = None   # Farkas combination when outside the hull


def convex_decompose(p: SymPovm, catalog) -> DecompositionResult:
    """Express p as an exact convex combination of catalog POVMs.

    ``catalog`` is a VertexSet (or any object with ``ordered_povms()``)
    whose outcome-permutation closure shares p's kind and outcome count.
    """
    povms = list(catalog.ordered_povms())
    if not povms:
        raise ValueError("empty catalog")
    for v in povms:
        if v.kind != p.kind or v.n_outcomes != p.n_outcomes:
            raise ValueError("catalog does not match the POVM's kind/outcome count")
    cols = [v.coords() for v in povms]
    target = p.coords()
    dim = len(povms)
    eqs = []
    for i, t in enumerate(target):
        eqs.append((tuple(col[i] for col in cols), t, ("coord", None, i)))
    eqs.append(((Fraction(1),) * dim, Fraction(1), ("weight-sum", None, None)))
    poly = Polytope(dim, (), tuple(eqs))
    res = lp_solve(LinearProgram(poly, (Fraction(0),) * dim, sense="min"))
    if res.status == "infeasible":
        return DecompositionResult(False, certificate=res.certificate)
    weights = tuple((povms[j], w) for j, w in enumerate(res.point) if w)
    return DecompositionResult(True, weights=weights)
