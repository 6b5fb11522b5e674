"""Polytope assembly, exact LP and convex decomposition tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympovm.extremal import catalog_extrema
from sympovm.feasible import (
    LinearProgram,
    Polytope,
    SymPovm,
    UnboundedLpError,
    build_feasible_polytope,
    convex_decompose,
    is_feasible,
    lp_solve,
    povm_from_coords,
)
from sympovm.symmetry import CoeffVector, kind
from tests import fraction_tableau

ZERO, ONE = Fraction(0), Fraction(1)


def bell_povm(*cols):
    k = kind("bell", 2)
    return SymPovm(k, tuple(CoeffVector(k, c) for c in cols))


def test_two_outcome_polytope_is_eliminated():
    poly = build_feasible_polytope(kind("oo", 3), 2)
    assert poly.ambient_dim == 3
    assert len(poly.inequalities) == 12
    assert not poly.equalities


def test_full_polytope_shape():
    poly = build_feasible_polytope(kind("bell", 2), 4)
    assert poly.ambient_dim == 16
    assert len(poly.inequalities) == 32
    assert len(poly.equalities) == 4


def test_is_feasible_identity_povm():
    k = kind("oo", 4)
    p = SymPovm(k, (CoeffVector(k, (1, 1, 1)),))
    assert is_feasible(p).feasible


def test_is_feasible_reports_bell_pt_violation():
    p = bell_povm((1, 0, 0, 0), (0, 1, 1, 1))
    report = is_feasible(p)
    assert not report.feasible
    labels = [l for l, _ in report.violations]
    assert all(l[0] == "ppt" and l[1] == 0 for l in labels)


def test_is_feasible_isotropic_sepcon():
    for d in (2, 3, 4):
        k = kind("isotropic", d)
        bad = SymPovm(k, (CoeffVector(k, (1, Fraction(1, d + 2))),
                          CoeffVector(k, (0, Fraction(d + 1, d + 2)))))
        report = is_feasible(bad)
        assert not report.feasible
        assert any(l[0] == "ppt" for l, _ in report.violations)
        good = SymPovm(k, (CoeffVector(k, (1, Fraction(1, d + 1))),
                           CoeffVector(k, (0, Fraction(d, d + 1)))))
        assert is_feasible(good).feasible


def test_is_feasible_flags_incompleteness():
    k = kind("isotropic", 2)
    p = SymPovm(k, (CoeffVector(k, (1, 1)), CoeffVector(k, (1, 0))))
    report = is_feasible(p)
    assert not report.feasible
    assert any(l[0] == "complete" for l, _ in report.violations)


def test_feasible_bell_four_outcome_cycle():
    half = Fraction(1, 2)
    p = bell_povm((half, half, 0, 0), (0, half, half, 0),
                  (0, 0, half, half), (half, 0, 0, half))
    assert is_feasible(p).feasible


def test_lp_maximise_isotropic_weight():
    poly = build_feasible_polytope(kind("isotropic", 2), 2)
    res = lp_solve(LinearProgram(poly, (ONE, ZERO), sense="max"))
    assert res.status == "optimal"
    assert res.value == 1
    assert not poly.check_point(res.point)
    assert res.active_labels  # a vertex certificate is attached


def test_lp_bell_guessing_value():
    poly = build_feasible_polytope(kind("bell", 2), 4)
    quarter = Fraction(1, 4)
    objective = [ZERO] * 16
    for out in range(4):
        objective[out * 4 + out] = quarter
    res = lp_solve(LinearProgram(poly, tuple(objective), sense="max"))
    assert res.value == Fraction(1, 2)


def test_lp_infeasible_certificate_is_valid():
    toy = Polytope(1, (((ONE,), ONE, ("a", None, 0)),
                       ((-ONE,), ZERO, ("b", None, 0))), ())
    res = lp_solve(LinearProgram(toy, (ZERO,), sense="max"))
    assert res.status == "infeasible"
    # the combination of rows with these coefficients proves 0 >= positive
    rows = {("a", None, 0): ((ONE,), ONE), ("b", None, 0): ((-ONE,), ZERO)}
    combo = ZERO
    bound = ZERO
    for label, coeff in res.certificate:
        assert coeff >= 0
        row, rhs = rows[label]
        combo += coeff * row[0]
        bound += coeff * rhs
    assert combo == 0 and bound > 0


def test_lp_unbounded_raises():
    ray = Polytope(1, (((ONE,), ZERO, ("lo", None, 0)),), ())
    with pytest.raises(UnboundedLpError):
        lp_solve(LinearProgram(ray, (ONE,), sense="max"))


def test_lp_minimise_matches_negated_maximise():
    poly = build_feasible_polytope(kind("werner", 3), 2)
    res_min = lp_solve(LinearProgram(poly, (ONE, -ONE), sense="min"))
    res_max = lp_solve(LinearProgram(poly, (-ONE, ONE), sense="max"))
    assert res_min.value == -res_max.value


def test_convex_decompose_vertex_is_itself():
    k = kind("oo", 3)
    catalog = catalog_extrema(k, 2)
    vertex = catalog.ordered_povms()[3]
    res = convex_decompose(vertex, catalog)
    assert res.decomposed
    assert sum(w for _, w in res.weights) == 1
    nonzero = [(p, w) for p, w in res.weights if w]
    assert len(nonzero) == 1 and nonzero[0][0].coords() == vertex.coords()


def test_convex_decompose_random_feasible():
    rng = random.Random(23)
    k = kind("bell", 2)
    catalog = catalog_extrema(k, 4)
    povms = catalog.ordered_povms()
    for _ in range(25):
        weights = [Fraction(rng.randint(0, 10)) for _ in povms]
        weights[rng.randrange(len(povms))] += 1
        total = sum(weights)
        coords = [ZERO] * 16
        for w, p in zip(weights, povms):
            for i, c in enumerate(p.coords()):
                coords[i] += (w / total) * c
        target = povm_from_coords(k, 4, coords)
        res = convex_decompose(target, catalog)
        assert res.decomposed
        rebuilt = [ZERO] * 16
        for p, w in res.weights:
            for i, c in enumerate(p.coords()):
                rebuilt[i] += w * c
        assert tuple(rebuilt) == target.coords()


def test_convex_decompose_infeasible_point_has_certificate():
    k = kind("isotropic", 2)
    catalog = catalog_extrema(k, 2)
    outside = SymPovm(k, (CoeffVector(k, (1, Fraction(1, 4))),
                          CoeffVector(k, (0, Fraction(3, 4)))))
    assert not is_feasible(outside).feasible
    res = convex_decompose(outside, catalog)
    assert not res.decomposed
    assert res.certificate


def test_convex_decompose_reads_an_eliminated_catalog():
    # a DD vertex set of a two-outcome polytope holds M1 only; each column
    # stands for (M1, 1 - M1), and the weighted POVMs have both elements
    from sympovm.extremal import enumerate_vertices

    k = kind("oo", 3)
    eliminated = enumerate_vertices(build_feasible_polytope(k, 2))
    assert eliminated.eliminated
    full = catalog_extrema(k, 2)
    rng = random.Random(31)
    for _ in range(5):
        weights = [Fraction(rng.randint(1, 4)) for _ in full.points]
        coords = [sum(w * pt[i] for w, pt in zip(weights, full.points)) / sum(weights)
                  for i in range(6)]
        target = povm_from_coords(k, 2, coords)
        for catalog in (eliminated, full):
            res = convex_decompose(target, catalog)
            assert res.decomposed
            rebuilt = [sum(w * p.coords()[i] for p, w in res.weights) for i in range(6)]
            assert rebuilt == coords
            assert {p.coords() for p, _ in res.weights} <= set(full.points)
    with pytest.raises(ValueError, match="does not match"):
        convex_decompose(target, catalog_extrema(k, 3))


@pytest.mark.parametrize("fam,d", [("isotropic", 2), ("werner", 3),
                                   ("bell", 2), ("oo", 3)])
def test_is_feasible_matches_operator_level_check(fam, d):
    from sympovm.operators import is_psd, partial_transpose
    from sympovm.symmetry import coeff_to_operator

    rng = random.Random(59)
    k = kind(fam, d)
    n = k.n_coeffs
    seen = {True: 0, False: 0}
    for _ in range(40):
        first = CoeffVector(k, tuple(Fraction(rng.randint(-2, 12), 12)
                                     for _ in range(n)))
        second = CoeffVector(k, tuple(1 - c for c in first.coeffs))
        p = SymPovm(k, (first, second))
        op_ok = all(is_psd(coeff_to_operator(e)) and
                    is_psd(partial_transpose(coeff_to_operator(e)))
                    for e in p.elements)
        assert is_feasible(p).feasible == op_ok
        seen[op_ok] += 1
    assert seen[True] and seen[False]


def test_lp_optimum_equals_vertex_sweep():
    from sympovm.extremal import enumerate_vertices

    rng = random.Random(53)
    plans = [("isotropic", 2, 2), ("werner", 3, 2), ("oo", 3, 2),
             ("oo", 3, 3), ("bell", 2, 3)]
    for fam, d, n in plans:
        poly = build_feasible_polytope(kind(fam, d), n)
        verts = enumerate_vertices(poly).points
        for _ in range(6):
            objective = tuple(Fraction(rng.randint(-5, 5), 3)
                              for _ in range(poly.ambient_dim))
            res = lp_solve(LinearProgram(poly, objective, sense="max"))
            best = max(sum(c * v for c, v in zip(objective, vert))
                       for vert in verts)
            assert res.value == best


def split_route(poly, objective):
    """The free-variable route: x = x+ - x-, each row r becoming (r, -r) in
    interleaved columns, solved over x+, x- >= 0."""
    def split(row):
        return tuple(v for c in row for v in (c, -c))

    def rows(items):
        return tuple((split(row), rhs, label) for row, rhs, label in items)

    return Polytope(2 * poly.ambient_dim, rows(poly.inequalities),
                    rows(poly.equalities)), split(objective)


def test_lp_over_nonneg_x_equals_free_split_route():
    # every package LP has x >= 0 implied by its rows; Bland's rule on the
    # split tableau must still reach the same vertex.  An infeasible LP may
    # get a shorter certificate, since x >= 0 needs no row of its own
    rng = random.Random(71)
    plans = [("isotropic", 2, 2, None), ("werner", 3, 3, None), ("oo", 3, 2, False),
             ("oo", 3, 3, None), ("bell", 2, 2, False), ("bell", 2, 4, None)]
    for fam, d, n, eliminate in plans:
        poly = build_feasible_polytope(kind(fam, d), n, eliminate=eliminate)
        dim = poly.ambient_dim
        # the Bayes objective of repeated states is degenerate
        state = [Fraction(rng.randint(0, 3)) for _ in range(kind(fam, d).n_coeffs)]
        objectives = [tuple(state * (dim // len(state)))]
        objectives += [tuple(Fraction(rng.randint(-2, 2), 3) for _ in range(dim))
                       for _ in range(3)]
        cut = ((ONE,) + (ZERO,) * (dim - 1), -ONE, ("cut", None, 0))
        infeasible = Polytope(dim, poly.inequalities, poly.equalities + (cut,))
        for target, objective in [(poly, c) for c in objectives] + [(infeasible, objectives[0])]:
            for sense in ("max", "min"):
                res = lp_solve(LinearProgram(target, objective, sense=sense))
                ref = lp_solve(LinearProgram(*split_route(target, objective), sense=sense))
                assert res.status == ref.status
                if ref.status == "infeasible":
                    # valid over x >= 0: combined row <= 0, combined rhs > 0
                    rows = {label: (row, rhs) for row, rhs, label in
                            target.inequalities + target.equalities}
                    ineqs = {label for _, _, label in target.inequalities}
                    combo = [sum(c * rows[l][0][j] for l, c in res.certificate)
                             for j in range(dim)]
                    assert all(v <= 0 for v in combo)
                    assert all(c >= 0 for l, c in res.certificate if l in ineqs)
                    assert sum(c * rows[l][1] for l, c in res.certificate) > 0
                    continue
                z = ref.point
                assert res.value == ref.value
                assert res.point == tuple(z[2 * j] - z[2 * j + 1] for j in range(dim))


def same_result(lp):
    """lp_solve against the Fraction-tableau simplex: every field and the
    type of every number, or UnboundedLpError on both."""
    try:
        ref = fraction_tableau.lp_solve(lp)
    except UnboundedLpError:
        with pytest.raises(UnboundedLpError):
            lp_solve(lp)
        return
    res = lp_solve(lp)
    assert res == ref

    def number_types(r):
        return [type(v) for v in (r.value, *(r.point or ()),
                                  *(c for _, c in r.certificate or ()))]

    assert number_types(res) == number_types(ref)


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def random_lps(draw):
    """Small LPs with fractional rows and objectives and negative right-hand
    sides.  Some get a 0 = 0 row, some a multiple of another equality row,
    some an equality row of nonpositive entries through the origin (its
    artificial leaves the basis on a negative pivot), and half an upper
    bound on sum(x)."""
    n = draw(st.integers(1, 4))
    rows = st.lists(rationals, min_size=n, max_size=n)
    eqs = draw(st.lists(st.tuples(rows, rationals), max_size=3))
    ineqs = draw(st.lists(st.tuples(rows, rationals), max_size=4))
    extra = draw(st.sampled_from(("none", "zero", "multiple", "origin")))
    if extra == "zero":
        eqs.insert(draw(st.integers(0, len(eqs))), ([ZERO] * n, ZERO))
    elif extra == "multiple" and eqs:
        row, rhs = draw(st.sampled_from(eqs))
        f = draw(rationals.filter(bool))
        eqs.insert(draw(st.integers(0, len(eqs))), ([f * c for c in row], f * rhs))
    elif extra == "origin":
        row = [-abs(c) for c in draw(rows)]
        eqs.insert(draw(st.integers(0, len(eqs))), (row, ZERO))
    if draw(st.booleans()):
        ineqs.append(([-ONE] * n, Fraction(-draw(st.integers(0, 4)))))
    # a zero objective is the decomposition LP: every feasible point is optimal
    objective = draw(st.one_of(st.just([ZERO] * n), rows))
    poly = Polytope(n, tuple((tuple(r), b, ("ge", None, i)) for i, (r, b) in enumerate(ineqs)),
                    tuple((tuple(r), b, ("eq", None, i)) for i, (r, b) in enumerate(eqs)))
    return LinearProgram(poly, tuple(objective), draw(st.sampled_from(("max", "min"))))


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(random_lps())
def test_lp_equals_fraction_tableau_on_random_lps(lp):
    same_result(lp)


def test_lp_equals_fraction_tableau_on_package_lps():
    # decompositions (zero objective, many optimal vertices), points outside
    # the hull (Farkas certificates) and degenerate Bayes objectives
    rng = random.Random(29)
    for fam, d, n in (("isotropic", 3, 2), ("werner", 3, 3), ("oo", 3, 2),
                      ("oo", 3, 3), ("bell", 2, 3)):
        k = kind(fam, d)
        povms = catalog_extrema(k, n).ordered_povms()
        poly = build_feasible_polytope(k, n, eliminate=False)
        for _ in range(4):
            weights = [Fraction(rng.randint(0, 2)) for _ in povms]
            weights[0] += 1
            coords = [sum(w * p.coords()[i] for w, p in zip(weights, povms)) / sum(weights)
                      for i in range(poly.ambient_dim)]
            outside = [c + Fraction(rng.randint(-1, 1), 5) for c in coords]
            for target in (coords, outside):
                cols = [p.coords() for p in povms]
                eqs = tuple((tuple(col[i] for col in cols), t, ("coord", None, i))
                            for i, t in enumerate(target))
                eqs += (((ONE,) * len(cols), ONE, ("weight-sum", None, None)),)
                same_result(LinearProgram(Polytope(len(cols), (), eqs),
                                          (ZERO,) * len(cols), "min"))
            state = [Fraction(rng.randint(0, 2)) for _ in range(k.n_coeffs)]
            for sense in ("max", "min"):
                same_result(LinearProgram(poly, tuple(state * n), sense))


def test_polytope_and_lp_result_json():
    import json

    poly = build_feasible_polytope(kind("oo", 3), 2)
    blob = poly.to_json()
    assert blob["ambient_dim"] == 3 and len(blob["inequalities"]) == 12
    json.dumps(blob)  # serialisable
    res = lp_solve(LinearProgram(poly, (ONE, ZERO, ZERO), sense="max"))
    out = res.to_json()
    assert out["status"] == "optimal" and out["value"] == "1"
    assert out["vertex_certificate"]
    json.dumps(out)


def test_povm_json_round_trip():
    p = bell_povm((1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0))
    blob = p.to_json()
    assert SymPovm.from_json(blob) == p
    assert SymPovm.from_json(blob).to_json() == blob
