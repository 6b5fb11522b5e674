"""Certifies that no single invertible nonnegative coefficient transform
turns the stipulated product-form protocol family into the PPT oo polytope.

The stipulated protocols have elements x X + y Y + z Z on orthogonal
projectors summing to the identity, so their 2-outcome coefficient
polytope is the unit cube.  An admissible transform L would have to be
invertible, entrywise nonnegative and row-stochastic, keep R . L
entrywise nonnegative (R is the oo partial-transpose matrix), and carry
the cube onto the PPT 2-outcome polytope vertex-to-vertex.  Two
independent exhaustive procedures certify that no such L exists for a
given dimension:

  (i)  vertex matching: 0 and 1 are fixed, complementary cube vertex
       pairs must map onto complementary polytope vertex pairs, leaving
       3! * 2^3 = 48 candidate column assignments, each solved and
       checked directly;
  (ii) unit-row case analysis: a valid transform forces each unit row
       vector to appear as a row of L or of R . L; all 6^3 = 216
       placements are settled by exact LP feasibility.

The same search run on the isotropic family (coefficient square, its
partial-transpose matrix mapping into the werner basis) is feasible and
recovers the known protocol transform, confirming the method detects
genuine solutions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._exactlin import det, inverse, mat_mul
from .extremal import basic_vectors, pair_classes
from .feasible import LinearProgram, Polytope, lp_solve
from .symmetry import Family, SymmetryKind, pt_coefficient_map


@dataclass(frozen=True)
class RequirementCheck:
    name: str
    passed: bool
    witness: tuple = ()


@dataclass(frozen=True)
class LRequirementsReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return tuple(c.name for c in self.checks if not c.passed)


def _entrywise_nonneg(m, tag):
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v < 0:
                return RequirementCheck(tag, False, (i, j, v))
    return RequirementCheck(tag, True)


def _rows_sum_one(m, tag):
    for i, row in enumerate(m):
        s = sum(row)
        if s != 1:
            return RequirementCheck(tag, False, (i, s))
    return RequirementCheck(tag, True)


def verify_L_requirements(L, pt_matrix) -> LRequirementsReport:
    """All structural requirements on a candidate transform L.

    ``pt_matrix`` is the coefficient partial-transpose matrix of the
    family under study (R for oo).
    """
    L = [[Fraction(x) for x in row] for row in L]
    RL = mat_mul([list(r) for r in pt_matrix], L)
    det_L = det(L)
    checks = (
        _entrywise_nonneg(L, "L-nonnegative"),
        _rows_sum_one(L, "L-rows-sum-1"),
        RequirementCheck("L-invertible", det_L != 0, (det_L,)),
        _entrywise_nonneg(RL, "RL-nonnegative"),
        _rows_sum_one(RL, "RL-rows-sum-1"),
    )
    return LRequirementsReport(checks)


@dataclass(frozen=True)
class NoGoCase:
    route: str                # "vertex-matching" | "unit-rows"
    assignment: tuple         # human-readable description of the case
    feasible: bool
    failures: tuple = ()      # failed requirement names / mismatch notes
    certificate: tuple = ()   # Farkas combination for LP cases

    def to_json(self) -> dict:
        return {"route": self.route, "assignment": list(self.assignment),
                "feasible": self.feasible, "failures": list(self.failures),
                "certificate": [{"label": list(l), "coeff": str(c)}
                                for l, c in self.certificate]}


@dataclass(frozen=True)
class NoGoCertificate:
    dim: int
    family: str
    verdict: str              # "infeasible" | "feasible"
    cases: tuple
    transforms: tuple = ()    # admissible L matrices when feasible

    def to_json(self) -> dict:
        return {"dim": self.dim, "family": self.family, "verdict": self.verdict,
                "cases": [c.to_json() for c in self.cases],
                "transforms": [[[str(x) for x in row] for row in L]
                               for L in self.transforms]}


def _vertex_matching_cases(pairs, vertices, pt_matrix):
    """Route (i): all assignments of cube vertex pairs to polytope pairs.

    Returns the cases and the admissible transforms L among them.

    In coefficient dimension n >= 3 each unit vector carries its own cube
    vertex pair {e_i, 1 - e_i}; in dimension 2 the square has a single
    nontrivial pair (e2 = 1 - e1), so only the orientation is free.
    """
    n = len(pairs[0][0])
    candidates = []
    if n == 2:
        v1, v2 = pairs[0]
        candidates = [([v1, v2], ("e1->pair1.1",)), ([v2, v1], ("e1->pair1.2",))]
    else:
        for perm in itertools.permutations(range(n)):
            for orient in itertools.product((0, 1), repeat=n):
                cols = [pairs[perm[i]][orient[i]] for i in range(n)]
                label = tuple(f"e{i + 1}->pair{perm[i] + 1}.{orient[i] + 1}"
                              for i in range(n))
                candidates.append((cols, label))
    cases, transforms = [], []
    for cols, label in candidates:
        L = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        report = verify_L_requirements(L, pt_matrix)
        failures = list(report.failures())
        # image of every cube vertex must itself be a polytope vertex
        images = set()
        for bits in itertools.product((0, 1), repeat=n):
            img = tuple(sum(cols[j][i] * bits[j] for j in range(n))
                        for i in range(n))
            images.add(img)
        if images != vertices:
            failures.append("vertex-images-mismatch")
        cases.append(NoGoCase("vertex-matching", label,
                              not failures, tuple(failures)))
        if not failures:
            transforms.append(L)
    return cases, transforms


def _unit_row_cases(pt_matrix, n):
    """Route (ii): exact LP feasibility for every unit-row placement."""
    R = [list(r) for r in pt_matrix]
    zero, one = Fraction(0), Fraction(1)
    # variable order: L[i][j] at index i*n + j, all >= 0; the RL >= 0 rows and
    # the L row sums are the same for every placement
    ineqs = []
    for i in range(n):
        for j in range(n):
            row = [zero] * (n * n)
            for k in range(n):
                row[k * n + j] = R[i][k]
            ineqs.append((tuple(row), zero, ("RL", i, j)))
    row_sums = []
    for i in range(n):
        row = [zero] * (n * n)
        for j in range(n):
            row[i * n + j] = one
        row_sums.append((tuple(row), one, ("L-row-sum", i, None)))
    cases = []
    slots = [("L", r) for r in range(n)] + [("RL", r) for r in range(n)]
    for placement in itertools.product(slots, repeat=n):
        eqs = list(row_sums)
        for unit, (which, r) in enumerate(placement):
            for j in range(n):
                target = one if j == unit else zero
                row = [zero] * (n * n)
                if which == "L":
                    row[r * n + j] = one
                else:
                    for k in range(n):
                        row[k * n + j] = R[r][k]
                eqs.append((tuple(row), target, ("unit", which, (r, unit, j))))
        poly = Polytope(n * n, tuple(ineqs), tuple(eqs))
        res = lp_solve(LinearProgram(poly, (zero,) * (n * n), sense="min"))
        label = tuple(f"e{u + 1}@{w}[{r}]" for u, (w, r) in enumerate(placement))
        if res.status == "infeasible":
            cases.append(NoGoCase("unit-rows", label, False,
                                  ("lp-infeasible",), res.certificate))
        else:
            L = [[res.point[i * n + j] for j in range(n)] for i in range(n)]
            report = verify_L_requirements(L, pt_matrix)
            cases.append(NoGoCase("unit-rows", label, True,
                                  tuple(report.failures())))
    return cases


def _search(k: SymmetryKind) -> NoGoCertificate:
    """Both routes for family k: the class table's two-outcome pairs, whose
    elements with 0 and 1 (the basic vectors) are the polytope's vertices."""
    pt_matrix = pt_coefficient_map(k).matrix
    vertices = {v.coeffs for v in basic_vectors(k).vectors}
    cases, transforms = _vertex_matching_cases(list(pair_classes(k)), vertices, pt_matrix)
    cases += _unit_row_cases(pt_matrix, len(pt_matrix))
    verdict = "feasible" if any(c.feasible for c in cases) else "infeasible"
    return NoGoCertificate(k.dim, k.family.value, verdict, tuple(cases),
                           tuple(transforms))


def naive_transform_search(d: int) -> NoGoCertificate:
    """Exhaustive certificate for the oo family at local dimension d."""
    if d < 3:
        raise ValueError("the oo search needs d >= 3 (the d = 2 polytope degenerates)")
    return _search(SymmetryKind(Family.OO, d))


def isotropic_sanity_search(d: int) -> NoGoCertificate:
    """The same search on the isotropic family; must come out feasible."""
    return _search(SymmetryKind(Family.ISOTROPIC, d))


def recovered_protocol_map(cert: NoGoCertificate):
    """Inverses of the admissible transforms (coefficients -> protocol)."""
    out = []
    for L in cert.transforms:
        inv = inverse([list(r) for r in L])
        out.append(tuple(tuple(row) for row in inv))
    return tuple(out)
