"""Vertex enumeration, catalogs, extremality and basic-vector tests."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from sympovm.extremal import (
    EmptyPolytopeError,
    basic_vectors,
    brute_force_vertices,
    catalog_classes,
    catalog_extrema,
    check_lemma_properties,
    enumerate_vertices,
    extremal_classes,
    is_extremal,
    oo_three_outcome_elements,
    oo_two_outcome_elements,
)
from sympovm.feasible import (
    SymPovm,
    build_feasible_polytope,
    is_feasible,
    povm_from_coords,
    Polytope,
)
from sympovm.symmetry import CoeffVector, kind

ZERO, ONE = Fraction(0), Fraction(1)


def cube(n):
    rows = []
    for i in range(n):
        e = [ZERO] * n
        e[i] = ONE
        rows.append((tuple(e), ZERO, ("lo", None, i)))
        rows.append((tuple(-x for x in e), -ONE, ("hi", None, i)))
    return Polytope(n, tuple(rows), ())


def test_unit_cube_vertices():
    vs = enumerate_vertices(cube(3))
    assert vs.coords_set() == frozenset(itertools.product((ZERO, ONE), repeat=3))
    assert brute_force_vertices(cube(3)).coords_set() == vs.coords_set()
    # without a family there is no polytope to derive the labels from
    assert all(v["active"] is None for v in vs.to_json()["vertices"])


def test_vertex_active_sets_have_full_rank():
    # at every reported vertex the active rows (plus equalities) must span
    # the ambient space
    from sympovm._exactlin import rank

    for poly in (cube(3), build_feasible_polytope(kind("oo", 3), 2),
                 build_feasible_polytope(kind("bell", 2), 3)):
        labelled = {label: row for row, _, label in poly.inequalities}
        for coords in enumerate_vertices(poly).points:
            active = poly.active_labels(coords)
            rows = [list(r) for r, _, _ in poly.equalities]
            rows += [list(labelled[l]) for l in active if l in labelled]
            assert rank(rows) == poly.ambient_dim


def test_empty_polytope_raises():
    bad = Polytope(1, (((ONE,), ONE, ("a", None, 0)),
                       ((-ONE,), ZERO, ("b", None, 0))), ())
    with pytest.raises(EmptyPolytopeError):
        enumerate_vertices(bad)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_oo_two_outcome_formula_vertices(d):
    vs = enumerate_vertices(build_feasible_polytope(kind("oo", d), 2))
    assert vs.coords_set() == frozenset(oo_two_outcome_elements(d).values())


@pytest.mark.parametrize("fam,d,n", [("isotropic", 2, 2), ("isotropic", 3, 3),
                                     ("werner", 2, 2), ("werner", 3, 2),
                                     ("oo", 2, 2), ("oo", 3, 2), ("oo", 3, 3),
                                     ("bell", 2, 2), ("bell", 2, 3)])
def test_double_description_equals_brute_force(fam, d, n):
    poly = build_feasible_polytope(kind(fam, d), n)
    assert enumerate_vertices(poly).coords_set() == \
        brute_force_vertices(poly).coords_set()


@pytest.mark.parametrize("fam,d,n", [("isotropic", 2, 2), ("isotropic", 4, 3),
                                     ("werner", 3, 2), ("oo", 3, 3),
                                     ("oo", 4, 2), ("bell", 2, 3), ("bell", 2, 4),
                                     ("oo", 3, 4), ("oo", 3, 5), ("oo", 4, 4),
                                     ("oo", 4, 5), ("bell", 2, 5)])
def test_catalog_matches_enumeration(fam, d, n):
    k = kind(fam, d)
    cat = catalog_extrema(k, n)
    env = enumerate_vertices(build_feasible_polytope(k, n))
    assert cat.povm_keys() == env.povm_keys()


def test_isotropic_catalog_entries_d2():
    k = kind("isotropic", 2)
    keys = catalog_extrema(k, 2).povm_keys()
    third = Fraction(1, 3)
    assert ((ONE, ONE), (ZERO, ZERO)) in keys
    assert ((ONE, third), (ZERO, 2 * third)) in keys
    assert ((ZERO, 2 * third), (ONE, third)) in keys
    assert len(keys) == 4


def test_bell_catalog_structure():
    keys = catalog_extrema(kind("bell", 2), 2).povm_keys()
    assert len(keys) == 8  # identity both ways + the six pair splits
    assert ((ONE, ONE, ZERO, ZERO), (ZERO, ZERO, ONE, ONE)) in keys


def test_bell_three_outcomes_never_genuinely_three():
    env = enumerate_vertices(build_feasible_polytope(kind("bell", 2), 3))
    assert all(len(p.nonzero_elements()) <= 2 for p in env.ordered_povms())


def test_oo_catalog_three_outcome_triple_d3():
    m1, m2, m3 = oo_three_outcome_elements(3)
    assert m1 == (0, 0, Fraction(3, 5))
    assert m2 == (0, Fraction(1, 2), Fraction(3, 10))
    assert m3 == (1, Fraction(1, 2), Fraction(1, 10))
    keys = catalog_extrema(kind("oo", 3), 3).povm_keys()
    assert (m1, m2, m3) in keys


# sha256 of the catalog vertices (coordinates and active labels) for d = 2..6
# (bell: d = 2) and N = 1..5, and of the basic vectors for the same dims, as
# the three-branch closed-form catalog produced them before the class table
CATALOG_DIGESTS = {
    "isotropic": ("0be07c7d7ace8bec46440a5a6b700fd46659bdd37833175bbf21d3d5f314d77e",
                  "6f07920e555692980b27ec0c5d1aa17f25f68740421fb22eb6f67ffb307ea92a"),
    "werner": ("dc71165fef10f99007e2dc172e778f45ecbb4cd2a576edb981ae10b85f38514c",
               "5f259c1578fb93750e17bc5d602dd13ff24ce5621b0e92585cda036b8b952413"),
    "bell": ("062bb4c4e674890fbb2049c9a27043145d574538b0a9913885cd5a4b04371480",
             "805edd6d144ab02aa54f59a8851dfd9a4ca532b63d870f40db1236913b9e6eed"),
    "oo": ("65006fec1975fdd5a3d537989a33dd9b760b48373b80e968069f12114e827191",
           "00f0d4f0889f1e79ae98d268af38a4c9944b9d1d45c3fd497629a8fd81371f79"),
}


def family_dims(fam):
    return (2,) if fam == "bell" else range(2, 7)


def sha256_json(blob):
    return hashlib.sha256(json.dumps(blob).encode()).hexdigest()


@pytest.mark.parametrize("fam", sorted(CATALOG_DIGESTS))
def test_class_table_places_the_recorded_catalogs(fam):
    points = []
    for d in family_dims(fam):
        for n in range(1, 6):
            catalog = catalog_extrema(kind(fam, d), n)
            assert catalog_classes(kind(fam, d), n) == \
                [p for p, _ in catalog.canonical_classes()], (d, n)
            points.append(catalog.to_json()["vertices"])
    assert sha256_json(points) == CATALOG_DIGESTS[fam][0]


@pytest.mark.parametrize("fam", sorted(CATALOG_DIGESTS))
def test_basic_vectors_read_the_class_table_in_the_recorded_order(fam):
    vectors = [[[str(c) for c in v.coeffs] for v in basic_vectors(kind(fam, d)).vectors]
               for d in family_dims(fam)]
    assert sha256_json(vectors) == CATALOG_DIGESTS[fam][1]


def test_class_table_sizes_and_oo_d2_coincidences():
    for fam, count in (("isotropic", 2), ("werner", 2), ("bell", 4), ("oo", 5)):
        for d in family_dims(fam):
            classes = extremal_classes(kind(fam, d))
            assert len(classes) == count
            assert all(any(e) for cls in classes for e in cls)
    # at d = 2 the triple's middle element is 0: B, C and the triple are one class
    assert len(catalog_classes(kind("oo", 2), 3)) == 3
    assert [len(cls) for cls in extremal_classes(kind("oo", 2))] == [1, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        catalog_classes(kind("oo", 3), 0)


def assert_witness_feasible(p, witness):
    """p + witness and p - witness are both feasible POVMs."""
    for sign in (1, -1):
        coords = tuple(a + sign * b for a, b in zip(p.coords(), witness.coords()))
        assert is_feasible(povm_from_coords(p.kind, p.n_outcomes, coords)).feasible


def test_is_extremal_on_catalog_and_mixtures():
    rng = random.Random(29)
    for fam, d, n in [("isotropic", 2, 2), ("bell", 2, 4), ("oo", 3, 3)]:
        k = kind(fam, d)
        catalog = catalog_extrema(k, n)
        povms = catalog.ordered_povms()
        for povm, _ in catalog.canonical_classes():
            report = is_extremal(povm)
            assert report.extremal
            assert report.rank == report.ambient
        for _ in range(15):
            i, j = rng.sample(range(len(povms)), 2)
            lam = Fraction(rng.randint(1, 9), 10)
            coords = tuple(lam * a + (1 - lam) * b
                           for a, b in zip(povms[i].coords(), povms[j].coords()))
            mix = povm_from_coords(k, n, coords)
            report = is_extremal(mix)
            assert not report.extremal
            assert_witness_feasible(mix, report.perturbation)


def test_four_cycle_bell_povm_is_not_extremal():
    half = Fraction(1, 2)
    k = kind("bell", 2)
    p = SymPovm(k, (CoeffVector(k, (half, half, 0, 0)),
                    CoeffVector(k, (0, half, half, 0)),
                    CoeffVector(k, (0, 0, half, half)),
                    CoeffVector(k, (half, 0, 0, half))))
    report = is_extremal(p)
    assert not report.extremal
    assert_witness_feasible(p, report.perturbation)


def test_identity_with_zero_outcomes_is_extremal():
    k = kind("oo", 3)
    p = SymPovm(k, (CoeffVector(k, (1, 1, 1)), CoeffVector(k, (0, 0, 0)),
                    CoeffVector(k, (0, 0, 0))))
    assert is_extremal(p).extremal


def test_is_extremal_rejects_infeasible():
    k = kind("isotropic", 2)
    p = SymPovm(k, (CoeffVector(k, (1, Fraction(1, 4))),
                    CoeffVector(k, (0, Fraction(3, 4)))))
    with pytest.raises(ValueError):
        is_extremal(p)


def test_oo_basic_vectors_are_the_two_outcome_extrema():
    k = kind("oo", 3)
    vecs = {v.coeffs for v in basic_vectors(k).vectors}
    assert vecs == set(oo_two_outcome_elements(3).values())


def test_vertex_set_json_round_trip():
    import json

    vs = enumerate_vertices(build_feasible_polytope(kind("oo", 3), 2))
    blob = vs.to_json()
    from sympovm.extremal import VertexSet

    again = VertexSet.from_json(json.loads(json.dumps(blob)))
    assert again.to_json() == blob
    assert again.povm_keys() == vs.povm_keys()


@pytest.mark.parametrize("edit,message", [
    (lambda b: b["vertices"][0]["coords"].__setitem__(0, "1/0"),
     'vertices[0].coords[0]: zero denominator in "1/0"'),
    (lambda b: b.pop("vertices"), "missing field 'vertices'"),
    (lambda b: b["vertices"][0].update(coords="1/2"), "vertices[0].coords: expected a list"),
    (lambda b: b.update(dim="three"), "dim: expected an integer"),
    (lambda b: b.update(eliminated="false"), "eliminated: expected true or false, got 'false'"),
    (lambda b: b.pop("outcomes"), "missing field 'outcomes'"),
    (lambda b: b.update(outcomes=None), "outcomes: expected an integer, got None"),
    (lambda b: b.update(outcomes=2.5), "outcomes: expected an integer, got 2.5"),
    (lambda b: b.update(outcomes=True), "outcomes: expected an integer, got True"),
    (lambda b: b.update(outcomes=3), "eliminated: true needs outcomes 2, got 3"),
    (lambda b: b.update(outcomes=0), "outcomes: expected a positive integer, got 0"),
    (lambda b: b["vertices"][1]["coords"].pop(), "vertices[1].coords: expected 3 entries, got 2"),
])
def test_vertex_set_reader_names_the_bad_field(edit, message):
    import json

    from sympovm.extremal import VertexSet

    blob = json.loads(json.dumps(
        enumerate_vertices(build_feasible_polytope(kind("oo", 3), 2)).to_json()))
    edit(blob)
    with pytest.raises(ValueError) as err:
        VertexSet.from_json(blob)
    assert message in str(err.value)


def test_catalog_extrema_evaluates_no_constraint(monkeypatch):
    # the active labels are output-only: a catalog holds coordinates, and
    # only VertexSet.to_json derives the labels
    def refuse(self, x):
        raise AssertionError("active labels evaluated")

    # a cached catalog would never reach the patched method
    catalog_extrema.cache_clear()
    monkeypatch.setattr(Polytope, "active_labels", refuse)
    for fam, d in (("isotropic", 3), ("werner", 3), ("bell", 2), ("oo", 3)):
        for n in (1, 2, 3, 4):
            catalog = catalog_extrema(kind(fam, d), n)
            assert catalog.canonical_classes(), (fam, n)
    with pytest.raises(AssertionError, match="active labels evaluated"):
        catalog.to_json()


def test_catalog_extrema_is_cached():
    # a VertexSet is immutable, so one object serves every caller
    catalog_extrema.cache_clear()
    k = kind("oo", 3)
    first = catalog_extrema(k, 3)
    assert catalog_extrema(k, 3) is first
    catalog_extrema.cache_clear()
    again = catalog_extrema(k, 3)
    assert again is not first and again == first


def test_ordered_catalog_size_bound():
    # oo at N = 12 places 1 728 points of 36 coordinates, N = 13 2 197 of 39
    k = kind("oo", 3)
    assert len(catalog_extrema(k, 12).points) <= 12 + 3 * 12 * 11 + 12 * 11 * 10
    with pytest.raises(ValueError, match="13 outcomes are too many .* 85683 coordinates"):
        catalog_extrema(k, 13)


def test_lemma_checks_pass_on_real_catalogs():
    for fam, d, n in [("bell", 2, 4), ("oo", 3, 3), ("isotropic", 3, 2)]:
        catalog = catalog_extrema(kind(fam, d), n)
        assert check_lemma_properties(catalog).all_passed


def test_lemma_checks_fail_on_dependent_columns():
    half = Fraction(1, 2)
    k = kind("bell", 2)
    p = SymPovm(k, (CoeffVector(k, (half, half, 0, 0)),
                    CoeffVector(k, (0, half, half, 0)),
                    CoeffVector(k, (0, 0, half, half)),
                    CoeffVector(k, (half, 0, 0, half))))
    from sympovm.extremal import VertexSet

    fake = VertexSet(k, 4, (p.coords(),))
    report = check_lemma_properties(fake)
    failed = [c.name for c in report.failures()]
    assert "nonzero-elements-independent" in failed
