"""Commutant basis, twirl and partial-transpose map tests."""

import random
from fractions import Fraction

import pytest

from sympovm.operators import (
    BipartiteOperator,
    is_psd,
    ketbra,
    maximally_entangled_projector,
    partial_transpose,
    swap_operator,
    tensor,
)
from sympovm.symmetry import (
    CoeffVector,
    all_ones,
    basis_traces,
    bell_group_average,
    coeff_to_operator,
    commutant_basis,
    kind,
    pt_coefficient_map,
    twirl_coefficients,
)
from tests.test_operators import random_hermitian_grid


def test_kind_validation():
    with pytest.raises(ValueError):
        kind("bell", 3)
    with pytest.raises(ValueError):
        kind("oo", 1)
    assert kind("OO", 4).n_coeffs == 3


def test_basis_traces():
    assert basis_traces(kind("oo", 3)) == (1, 3, 5)
    assert basis_traces(kind("isotropic", 2)) == (1, 3)
    assert basis_traces(kind("werner", 4)) == (6, 10)
    assert basis_traces(kind("bell", 2)) == (1, 1, 1, 1)


ALL_KINDS = [("bell", 2)] + [(fam, d) for fam in ("isotropic", "werner", "oo")
                             for d in range(2, 9)]


def unit_vectors(k):
    return [CoeffVector(k, tuple(int(i == j) for i in range(k.n_coeffs)))
            for j in range(k.n_coeffs)]


@pytest.mark.parametrize("fam,d", ALL_KINDS)
def test_closed_form_pt_map_and_traces_match_dense_oracle(fam, d):
    # the PT map and the traces come from the commutant table; the dense
    # projectors, partial transpose and twirl must give the same numbers
    k = kind(fam, d)
    m = pt_coefficient_map(k)
    projs = commutant_basis(k).projectors
    assert basis_traces(k) == tuple(p.trace() for p in projs)
    for j, (p, e) in enumerate(zip(projs, unit_vectors(k))):
        column = tuple(row[j] for row in m.matrix)
        assert twirl_coefficients(partial_transpose(p), m.target).coeffs == column
        assert partial_transpose(coeff_to_operator(e)) == coeff_to_operator(m.apply(e))


@pytest.mark.parametrize("fam,d", [(fam, d) for fam in ("isotropic", "werner", "oo")
                                   for d in range(2, 7)])
def test_table_coordinates_rebuild_the_dense_projectors(fam, d):
    from sympovm.symmetry import _PROJECTOR_COORDS

    k = kind(fam, d)
    span = (BipartiteOperator.identity(d), swap_operator(d), maximally_entangled_projector(d))
    rebuilt = []
    for row in _PROJECTOR_COORDS[k.family]:
        acc = BipartiteOperator.zeros(d)
        for c, op in zip(row, span):
            acc = acc + op.scale(Fraction(c))
        rebuilt.append(acc)
    assert tuple(rebuilt) == commutant_basis(k).projectors


def test_coefficient_paths_build_no_dense_operator(monkeypatch):
    from sympovm.discrimination import DiscriminationProblem, StateCoeffs, optimal_local_bayes
    from sympovm.extremal import catalog_extrema, enumerate_vertices
    from sympovm.feasible import SymPovm, _build_feasible_polytope, build_feasible_polytope, \
        convex_decompose, is_feasible
    from sympovm.nogo import isotropic_sanity_search, naive_transform_search

    # cached dense bases would hide a build, so start from empty caches
    for cached in (pt_coefficient_map, commutant_basis, _build_feasible_polytope,
                   catalog_extrema):
        cached.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator was built")

    monkeypatch.setattr(BipartiteOperator, "__init__", refuse)
    for fam, d in (("isotropic", 3), ("werner", 3), ("bell", 2), ("oo", 3)):
        k = kind(fam, d)
        catalog = catalog_extrema(k, 3)
        first, last = catalog.ordered_povms()[0], catalog.ordered_povms()[-1]
        povm = SymPovm(k, tuple((x + y).scale(Fraction(1, 2))
                                for x, y in zip(first.elements, last.elements)))
        assert is_feasible(povm).feasible
        assert convex_decompose(povm, catalog).decomposed
        assert enumerate_vertices(build_feasible_polytope(k, 2)).points
        states = [StateCoeffs(k, tuple(Fraction(int(i == j)) for i in range(k.n_coeffs)))
                  for j in range(k.n_coeffs)]
        optimal_local_bayes(DiscriminationProblem(states, [Fraction(1, len(states))] *
                                                  len(states)))
    assert naive_transform_search(3).verdict == "infeasible"
    assert isotropic_sanity_search(3).verdict == "feasible"


def test_bell_projectors_rank_one_orthogonal():
    basis = commutant_basis(kind("bell", 2))
    for i, p in enumerate(basis.projectors):
        assert p.trace() == 1
        assert p @ p == p
        for j, q in enumerate(basis.projectors):
            if i != j:
                assert (p @ q).trace() == 0


def test_twirl_of_00_in_bell_basis():
    op = tensor(ketbra(0, 0, 2), ketbra(0, 0, 2))
    v = twirl_coefficients(op, kind("bell", 2))
    assert v.coeffs == (0, 0, Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_twirl_of_computational_correlation(d):
    k = kind("oo", d)
    op = BipartiteOperator.zeros(d)
    for i in range(d):
        op = op + tensor(ketbra(i, i, d), ketbra(i, i, d))
    assert twirl_coefficients(op, k).coeffs == (1, 0, Fraction(2, d + 2))


@pytest.mark.parametrize("fam,d", [("isotropic", 2), ("isotropic", 4),
                                   ("werner", 3), ("bell", 2), ("oo", 3)])
def test_twirl_round_trip(fam, d):
    rng = random.Random(11)
    k = kind(fam, d)
    for _ in range(20):
        v = CoeffVector(k, tuple(Fraction(rng.randint(-8, 8), 5)
                                 for _ in range(k.n_coeffs)))
        assert twirl_coefficients(coeff_to_operator(v), k) == v


def test_twirl_is_idempotent_on_statistics():
    rng = random.Random(13)
    k = kind("oo", 3)
    for _ in range(10):
        m = BipartiteOperator(3, random_hermitian_grid(rng, 9))
        once = twirl_coefficients(m, k)
        assert twirl_coefficients(coeff_to_operator(once), k) == once


def test_bell_group_average_matches_projection():
    rng = random.Random(17)
    k = kind("bell", 2)
    for _ in range(15):
        m = BipartiteOperator(2, random_hermitian_grid(rng, 4))
        assert bell_group_average(m) == coeff_to_operator(twirl_coefficients(m, k))


def test_oo_pt_matrix_d3():
    sixth = Fraction(1, 6)
    want = ((2 * sixth, -6 * sixth, 10 * sixth),
            (-2 * sixth, 3 * sixth, 5 * sixth),
            (2 * sixth, 3 * sixth, sixth))
    m = pt_coefficient_map(kind("oo", 3))
    assert m.matrix == want
    assert m.apply(all_ones(m.source)).coeffs == (1, 1, 1)


def test_isotropic_pt_image_in_werner_basis():
    k = kind("isotropic", 2)
    m = pt_coefficient_map(k)
    image = m.apply(CoeffVector(k, (1, Fraction(1, 3))))
    assert image.kind.family.value == "werner"
    assert image.coeffs[0] == 0  # antisymmetric weight vanishes on the boundary


def test_bell_pt_image_of_phi_plus():
    k = kind("bell", 2)
    m = pt_coefficient_map(k)
    e3 = CoeffVector(k, (0, 0, 1, 0))
    assert m.apply(e3).coeffs == (Fraction(1, 2), Fraction(-1, 2),
                                  Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("d", range(2, 7))
def test_pt_maps_compose_to_identity(d):
    iso = pt_coefficient_map(kind("isotropic", d))
    wer = pt_coefficient_map(kind("werner", d))
    for first, second in ((iso, wer), (wer, iso)):
        comp = second.compose(first).matrix
        assert comp == ((1, 0), (0, 1))
    oo = pt_coefficient_map(kind("oo", d))
    sq = oo.compose(oo).matrix
    assert sq == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_pt_map_tag_mismatch_rejected():
    iso = pt_coefficient_map(kind("isotropic", 2))
    with pytest.raises(ValueError):
        iso.compose(iso)
    with pytest.raises(ValueError):
        iso.apply(CoeffVector(kind("werner", 2), (1, 1)))


@pytest.mark.parametrize("fam,d", [("isotropic", 3), ("werner", 2),
                                   ("bell", 2), ("oo", 3)])
def test_pt_positivity_coefficient_vs_operator(fam, d):
    rng = random.Random(19)
    k = kind(fam, d)
    ptm = pt_coefficient_map(k)
    hits = {True: 0, False: 0}
    for _ in range(60):
        v = CoeffVector(k, tuple(Fraction(rng.randint(-6, 12), 12)
                                 for _ in range(k.n_coeffs)))
        coeff_ok = ptm.apply(v).is_nonneg()
        op_ok = is_psd(partial_transpose(coeff_to_operator(v)))
        assert coeff_ok == op_ok
        hits[coeff_ok] += 1
    assert hits[True] and hits[False]  # both branches exercised


@pytest.mark.parametrize("d", range(2, 7))
def test_isotropic_and_werner_pt_reduce_to_single_halfspaces(d):
    # beyond positivity, the only binding PT row is (d+1)b >= a for
    # isotropic and (d+1)b >= (d-1)a for werner: the other row of each
    # map has nonnegative entries, hence is implied by positivity
    iso = pt_coefficient_map(kind("isotropic", d)).matrix
    assert all(v >= 0 for v in iso[1])
    assert tuple(x * d for x in iso[0]) == (-1, d + 1)
    wer = pt_coefficient_map(kind("werner", d)).matrix
    assert all(v >= 0 for v in wer[1])
    assert tuple(2 * x for x in wer[0]) == (1 - d, 1 + d)


def test_bell_pt_halfspaces_are_the_two_absolute_value_conditions():
    half = Fraction(1, 2)
    rows = frozenset(pt_coefficient_map(kind("bell", 2)).matrix)
    assert rows == frozenset({(half, half, half, -half), (half, half, -half, half),
                              (half, -half, half, half), (-half, half, half, half)})


def test_coeff_vector_json_round_trip():
    v = CoeffVector(kind("oo", 3), (1, 0, Fraction(2, 5)))
    blob = v.to_json()
    assert blob == {"family": "oo", "dim": 3, "coeffs": ["1", "0", "2/5"]}
    assert CoeffVector.from_json(blob) == v


def test_coeff_vector_json_errors_name_the_field():
    base = {"family": "isotropic", "dim": 2}
    cases = [
        (dict(base, coeffs=["1", "1/0"]), 'coeffs[1]: zero denominator in "1/0"'),
        (dict(base, coeffs=5), "coeffs: expected a list, got int"),
        (base, "top level: missing field 'coeffs'"),
        (dict(base, coeffs=["1"]), "coeffs: isotropic(d=2) expects 2 coefficients"),
    ]
    for blob, message in cases:
        with pytest.raises(ValueError) as exc:
            CoeffVector.from_json(blob)
        assert str(exc.value) == message
