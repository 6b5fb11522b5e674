"""Feasible-POVM polytopes and exact rational linear programming.

A symmetric POVM lives in coefficient space: N blocks of n rational
coefficients.  Feasibility is positivity plus PPT-ness of every element
plus completeness, all of which are linear, so the feasible set is a
rational polytope and every optimisation here is an exact LP.

The simplex implementation is a two-phase tableau method with Bland's
rule (entering: lowest eligible index; leaving: lowest basis index among
minimum ratios), which makes every run deterministic and cycling
impossible.  Every variable is nonnegative.  Infeasible systems yield a
Farkas certificate: a combination of constraint rows, nonnegative on the
inequalities, adding up to an inequality that no x >= 0 satisfies.

The tableau is integer: M = D*T for the rational tableau T, D > 0 the last
pivot, and every pivot is ``_exactlin.pivot``, the one exact elimination
kernel.  All constraint rows are scaled by one common denominator and the
artificial columns stay the identity, so the phase-1 cost row, hence every
pivot, the vertex returned and the certificate, are those of T; a scale
per row would change the phase-1 cost row.  Ratios are compared by
cross-multiplication.  The cost row is the tableau's last row; the phase-2
objective is scaled to integers by its own denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from ._exactlin import pivot, scaled_rows
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


def inequality_count(k: SymmetryKind, n_outcomes: int) -> int:
    """The rows of build_feasible_polytope(k, n_outcomes), without building
    it: a positivity and a PPT row per coefficient of each outcome."""
    return 2 * k.n_coeffs * n_outcomes


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


def _bland_iterate(M, d, basis, ncols_allowed):
    """Bland's rule on an integer tableau M = d*T whose last row is the cost
    row; ratios are compared by cross-multiplication.  Returns the last d."""
    rhs = len(M[0]) - 1
    while True:
        cost = M[-1]
        e = next((j for j in range(ncols_allowed) if cost[j] < 0), None)
        if e is None:
            return d
        best_r = None
        for i in range(len(M) - 1):
            row = M[i]
            a = row[e]
            if a <= 0:
                continue
            if best_r is not None:
                # row[rhs]/a against num/den, both denominators positive
                left, right = row[rhs] * den, num * a
                if left > right or (left == right and basis[i] > basis[best_r]):
                    continue
            best_r, num, den = i, row[rhs], a
        if best_r is None:
            raise UnboundedLpError("objective unbounded over the feasible region")
        d = pivot(M, d, best_r, e)
        basis[best_r] = e


def lp_solve(lp: LinearProgram) -> LpResult:
    """Exact two-phase simplex.  Deterministic; returns a vertex optimum."""
    poly = lp.polytope
    n = poly.ambient_dim
    # equalities first, then inequalities with slack columns
    constraints = poly.equalities + poly.inequalities
    rows = [list(row) + [rhs] for row, rhs, _ in constraints]
    labels = [label for _, _, label in constraints]
    m = len(rows)
    neq = len(poly.equalities)
    nslack = m - neq
    ncols = n + nslack
    # one common scale, never one per row: see the module docstring
    ints, scale = scaled_rows(rows)
    M = []
    signs = []
    for i, row in enumerate(ints):
        full = row[:n] + [0] * (nslack + m) + [row[n]]
        if i >= neq:
            full[n + i - neq] = -scale
        sign = -1 if row[n] < 0 else 1
        if sign < 0:
            full = [-v for v in full]
        full[ncols + i] = 1
        signs.append(sign)
        M.append(full)
    basis = [ncols + i for i in range(m)]

    # phase 1: minimise the artificial sum; the cost row is the last row
    cost = [-sum(col) for col in zip(*M)] if M else [0] * (ncols + 1)
    cost[ncols:ncols + m] = [0] * m
    M.append(cost)
    d = _bland_iterate(M, 1, basis, ncols)
    cost = M[-1]
    if cost[-1] != 0:
        # infeasible; multipliers from the artificial columns' reduced costs
        cert = []
        for i in range(m):
            pi = Fraction((d - cost[ncols + i]) * signs[i], d)
            if pi:
                cert.append((labels[i], pi))
        return LpResult("infeasible", certificate=tuple(cert))

    # phase 2 needs no artificial column
    M = [row[:ncols] + row[-1:] for row in M]
    # drive basic artificials out; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            e = next((j for j in range(ncols) if M[i][j]), None)
            if e is None:
                continue  # 0 = 0 row
            d = pivot(M, d, i, e)
            basis[i] = e
        keep.append(i)
    if len(keep) < m:
        M = [M[i] for i in keep] + [M[-1]]
        basis = [basis[i] for i in keep]

    # phase 2: price the cost row, c*d - sum c_b(i) M[i], over integer c
    (obj,), _ = scaled_rows([lp.objective])
    if lp.sense == "max":
        obj = [-c for c in obj]
    obj += [0] * (nslack + 1)
    cost = [c * d for c in obj]
    for i, bj in enumerate(basis):
        if obj[bj]:
            cost = [x - obj[bj] * y for x, y in zip(cost, M[i])]
    M[-1] = cost
    d = _bland_iterate(M, d, basis, ncols)

    z = [Fraction(0)] * ncols
    for i, bj in enumerate(basis):
        z[bj] = Fraction(M[i][-1], d)
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

    ``catalog`` is a VertexSet of p's kind and outcome count: its full POVM
    coordinates (``povm_coords``) are the LP's columns.  Only the vertices of
    nonzero weight become SymPovms.
    """
    if not catalog.points:
        raise ValueError("empty catalog")
    if catalog.kind != p.kind or catalog.n_outcomes != p.n_outcomes:
        raise ValueError("catalog does not match the POVM's kind/outcome count")
    cols = catalog.povm_coords()
    target = p.coords()
    dim = len(cols)
    eqs = []
    for i, t in enumerate(target):
        eqs.append((tuple(col[i] for col in cols), t, ("coord", None, i)))
    eqs.append(((Fraction(1),) * dim, Fraction(1), ("weight-sum", None, None)))
    poly = Polytope(dim, (), tuple(eqs))
    res = lp_solve(LinearProgram(poly, (Fraction(0),) * dim, sense="min"))
    if res.status == "infeasible":
        return DecompositionResult(False, certificate=res.certificate)
    weights = tuple((povm_from_coords(p.kind, p.n_outcomes, cols[j]), w)
                    for j, w in enumerate(res.point) if w)
    return DecompositionResult(True, weights=weights)
