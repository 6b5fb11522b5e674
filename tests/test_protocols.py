"""Protocol synthesis and exact verification tests."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympovm.extremal import catalog_extrema, oo_three_outcome_elements, oo_two_outcome_elements
from sympovm.feasible import SymPovm
from sympovm.operators import (
    CR0,
    BipartiteOperator,
    CRat,
    is_psd,
    ketbra,
    kraus_from_separable_form,
    mat_eye,
    tensor,
)
from sympovm.protocols import (
    InfeasibleTargetError,
    LocalProtocol,
    ProductTerm,
    bell_protocol,
    build_pure_state_set,
    cube_rotation_group,
    isotropic_protocol,
    oo_protocol,
    protocol_for_vertex,
    verify_protocol,
    werner_protocol,
)
from sympovm.symmetry import CoeffVector, kind, twirl_coefficients
from sympovm._acceptance import random_feasible_target


def iso_povm(d, *cols):
    k = kind("isotropic", d)
    return SymPovm(k, tuple(CoeffVector(k, c) for c in cols))


def test_isotropic_protocol_boundary_element():
    third = Fraction(1, 3)
    target = iso_povm(2, (1, third), (0, 2 * third))
    proto = isotropic_protocol(target)
    # x = 1, y = 0 puts the first outcome on sum_i |ii><ii|
    want = tensor(ketbra(0, 0, 2), ketbra(0, 0, 2)) + \
        tensor(ketbra(1, 1, 2), ketbra(1, 1, 2))
    assert proto.outcome_operator(0) == want
    assert twirl_coefficients(want, target.kind).coeffs == (1, third)
    assert verify_protocol(proto, target).ok


def test_isotropic_protocol_identity_and_complement():
    target = iso_povm(3, (1, 1))
    proto = isotropic_protocol(target)
    assert proto.outcome_operator(0) == BipartiteOperator.identity(3)
    d = 4
    target = iso_povm(d, (0, Fraction(d, d + 1)), (1, Fraction(1, d + 1)))
    proto = isotropic_protocol(target)
    # first outcome has x = 0, y = 1
    want = BipartiteOperator.zeros(d)
    for i in range(d):
        comp = [[(1 if (r == c and r != i) else 0) for c in range(d)]
                for r in range(d)]
        want = want + tensor(ketbra(i, i, d), comp)
    assert proto.outcome_operator(0) == want
    assert verify_protocol(proto, target).ok


def test_isotropic_protocol_refuses_infeasible():
    d = 3
    target = iso_povm(d, (1, Fraction(1, d + 2)), (0, Fraction(d + 1, d + 2)))
    with pytest.raises(InfeasibleTargetError) as err:
        isotropic_protocol(target)
    assert err.value.outcome == 0
    assert err.value.coefficient < 0


def test_werner_protocol_examples():
    k = kind("werner", 2)
    third = Fraction(1, 3)
    target = SymPovm(k, (CoeffVector(k, (1, third)), CoeffVector(k, (0, 2 * third))))
    proto = werner_protocol(target)
    assert verify_protocol(proto, target).ok
    # boundary x = 0 at b = a (d-1)/(d+1)
    d = 5
    kb = kind("werner", d)
    bound = SymPovm(kb, (CoeffVector(kb, (1, Fraction(d - 1, d + 1))),
                         CoeffVector(kb, (0, Fraction(2, d + 1)))))
    assert verify_protocol(werner_protocol(bound), bound).ok
    bad = SymPovm(kb, (CoeffVector(kb, (1, Fraction(1, d + 1))),
                       CoeffVector(kb, (0, Fraction(d, d + 1)))))
    with pytest.raises(InfeasibleTargetError):
        werner_protocol(bad)


@pytest.mark.parametrize("fam,synth", [("isotropic", isotropic_protocol),
                                       ("werner", werner_protocol)])
def test_random_feasible_targets_verify(fam, synth):
    rng = random.Random(31)
    for d in (2, 3, 4):
        k = kind(fam, d)
        for _ in range(25):
            target = random_feasible_target(rng, k, rng.randint(1, 4))
            assert verify_protocol(synth(target), target).ok


def test_bell_protocol_computational_split():
    k = kind("bell", 2)
    target = SymPovm(k, (CoeffVector(k, (0, 0, 1, 1)), CoeffVector(k, (1, 1, 0, 0))))
    proto = bell_protocol(target)
    got = twirl_coefficients(proto.outcome_operator(0), k)
    assert got.coeffs == (0, 0, 1, 1)
    assert verify_protocol(proto, target).ok


def test_bell_protocol_identity_is_do_nothing():
    k = kind("bell", 2)
    target = SymPovm(k, (CoeffVector(k, (1, 1, 1, 1)), CoeffVector(k, (0, 0, 0, 0))))
    proto = bell_protocol(target)
    assert len(proto.outcomes[0]) == 1
    assert proto.outcomes[1] == ()
    assert verify_protocol(proto, target).ok


def test_bell_protocol_all_catalog_entries():
    k = kind("bell", 2)
    for n in (2, 3):
        for povm in catalog_extrema(k, n).ordered_povms():
            assert verify_protocol(bell_protocol(povm), povm).ok


def test_bell_protocol_by_index_and_unknown():
    proto = bell_protocol(0)
    assert isinstance(proto, LocalProtocol)
    with pytest.raises(ValueError):
        bell_protocol(99)
    k = kind("bell", 2)
    with pytest.raises(ValueError):
        bell_protocol(SymPovm(k, (CoeffVector(k, (Fraction(1, 2), 0, 0, Fraction(1, 2))),
                                  CoeffVector(k, (Fraction(1, 2), 1, 1, Fraction(1, 2))))))


def test_cube_rotation_group_is_the_24_proper_rotations():
    mats = cube_rotation_group()
    assert len(mats) == 24
    assert len(set(mats)) == 24
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert ident in mats


def test_pure_state_set_shapes():
    assert len(build_pure_state_set(2).states) == 2
    s3 = build_pure_state_set(3)
    assert len(s3.states) == 24
    assert all(st.weight == Fraction(1, 8) for st in s3.states)
    s5 = build_pure_state_set(5)
    assert len(s5.states) == 26
    weights = sorted({st.weight for st in s5.states})
    assert weights == [Fraction(1, 8), Fraction(1)]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_oo_protocol_d_outcome(d):
    k = kind("oo", d)
    named = oo_two_outcome_elements(d)
    proto = oo_protocol("D", d)
    got = twirl_coefficients(proto.outcome_operator(0), k)
    assert got.coeffs == (1, 0, Fraction(2, d + 2)) == named["D1"]
    target = SymPovm(k, (CoeffVector(k, named["D1"]), CoeffVector(k, named["D2"])))
    assert verify_protocol(proto, target).ok


def test_oo_protocol_b_and_triple_d3():
    k = kind("oo", 3)
    named = oo_two_outcome_elements(3)
    states = build_pure_state_set(3)
    proto = oo_protocol("B", 3, states)
    assert twirl_coefficients(proto.outcome_operator(0), k).coeffs == \
        (0, 0, Fraction(3, 5)) == named["B1"]
    triple = oo_protocol("triple", 3, states)
    target = SymPovm(k, tuple(CoeffVector(k, c) for c in oo_three_outcome_elements(3)))
    assert verify_protocol(triple, target).ok


def test_oo_protocol_bad_ids():
    with pytest.raises(ValueError):
        oo_protocol("E", 3)
    with pytest.raises(ValueError):
        oo_protocol("B", 4, build_pure_state_set(3))


@pytest.mark.parametrize("d", [3, 4])
def test_oo_all_catalog_entries_verify(d):
    k = kind("oo", d)
    states = build_pure_state_set(d)
    for n in (2, 3):
        for povm in catalog_extrema(k, n).ordered_povms():
            proto = protocol_for_vertex(povm, states)
            assert verify_protocol(proto, povm).ok


def test_verify_protocol_detects_corruption():
    third = Fraction(1, 3)
    target = iso_povm(2, (1, third), (0, 2 * third))
    proto = isotropic_protocol(target)
    terms = list(proto.outcomes[1])
    bad = ProductTerm(Fraction(1, 2), terms[0].a_factor, terms[0].b_factor)
    corrupted = LocalProtocol(proto.kind, (proto.outcomes[0], (bad,) + tuple(terms[1:])))
    report = verify_protocol(corrupted, target)
    assert not report.ok
    assert report.outcomes_ok == (True, False)
    assert report.diffs[1] is not None


def test_verify_protocol_outcome_count_mismatch():
    third = Fraction(1, 3)
    target = iso_povm(2, (1, third), (0, 2 * third))
    proto = isotropic_protocol(target)
    with pytest.raises(ValueError):
        verify_protocol(proto, iso_povm(2, (1, 1)))


def test_protocol_outcomes_sum_to_identity_before_twirl():
    rng = random.Random(37)
    k = kind("werner", 3)
    target = random_feasible_target(rng, k, 3)
    proto = werner_protocol(target)
    total = BipartiteOperator.zeros(3)
    for i in range(3):
        total = total + proto.outcome_operator(i)
    assert total == BipartiteOperator.identity(3)


def test_kraus_reconstructs_protocol_outcomes():
    rng = random.Random(41)
    k = kind("isotropic", 3)
    target = random_feasible_target(rng, k, 2)
    proto = isotropic_protocol(target)
    for i in range(2):
        terms = [(t.weight, t.a_factor, t.b_factor) for t in proto.outcomes[i]]
        pairs = kraus_from_separable_form(terms)
        total = BipartiteOperator.zeros(3)
        for p in pairs:
            total = total + p.element()
        assert total == proto.outcome_operator(i)


def test_oo_triple_outcome_factors_are_psd():
    # the leftover Bob factor 1 - |q><q| - (|q><q|)^T is PSD exactly because
    # the states are orthogonal to their own transposes
    from sympovm.operators import mat_is_hermitian, psd_exact

    proto = oo_protocol("triple", 5)
    for terms in proto.outcomes:
        for t in terms:
            assert mat_is_hermitian(t.b_factor) and psd_exact(t.b_factor)
    k = kind("oo", 5)
    target = SymPovm(k, tuple(CoeffVector(k, c) for c in oo_three_outcome_elements(5)))
    report = verify_protocol(proto, target)
    assert report.ok and report.factors_psd


def test_protocol_json_round_trip():
    third = Fraction(1, 3)
    target = iso_povm(2, (1, third), (0, 2 * third))
    proto = isotropic_protocol(target)
    blob = proto.to_json()
    again = LocalProtocol.from_json(json.loads(json.dumps(blob)))
    assert again.to_json() == blob
    assert verify_protocol(again, target).ok


def test_pure_state_set_json_round_trip():
    from sympovm.protocols import PureStateSet

    s = build_pure_state_set(5)
    blob = s.to_json()
    again = PureStateSet.from_json(json.loads(json.dumps(blob)))
    assert again.to_json() == blob
    # the reader re-validates; corrupting a weight must be rejected
    bad = json.loads(json.dumps(blob))
    bad["states"][0]["weight"] = "1/2"
    with pytest.raises(AssertionError):
        PureStateSet.from_json(bad)


@pytest.mark.parametrize("edit,message", [
    (lambda b: b["states"][0].update(weight="1/0"),
     'states[0].weight: zero denominator in "1/0"'),
    (lambda b: b.pop("states"), "missing field 'states'"),
    (lambda b: b["states"][0].update(vec="1"), "states[0].vec: expected a list"),
    (lambda b: b["states"][0].update(vec=[["1", "0"], "0", ["0", "0"]]),
     "states[0].vec[1]: expected a [re, im] pair"),
    (lambda b: b.update(dim="three"), "dim: expected an integer"),
    (lambda b: b.update(dim=4), "states[0].vec: expected 4 amplitudes, got 3"),
])
def test_pure_state_set_reader_names_the_bad_field(edit, message):
    from sympovm.protocols import PureStateSet

    blob = json.loads(json.dumps(build_pure_state_set(3).to_json()))
    edit(blob)
    with pytest.raises(ValueError) as err:
        PureStateSet.from_json(blob)
    assert message in str(err.value)


def float_copy(proto):
    """proto read back from a file whose entries are plain numbers."""
    blob = proto.to_json()
    for outcome in blob["outcomes"]:
        for term in outcome:
            for key in ("a", "b"):
                ent = term[key]["entries"]
                term[key]["entries"] = [[[float(Fraction(p[0])), float(Fraction(p[1]))]
                                         for p in row] for row in ent]
    return LocalProtocol.from_json(blob)


def test_float_protocol_verifies_within_eps():
    third = Fraction(1, 3)
    target = iso_povm(2, (1, third), (0, 2 * third))
    floaty = float_copy(isotropic_protocol(target))
    assert not floaty.exact
    assert verify_protocol(floaty, target, eps=1e-9).ok


# ---------------------------------------------------------------------------
# the invariant route of verify_protocol against the dense route

def dense_coefficients(proto, k):
    return twirl_coefficients(proto.outcome_operator(k), proto.kind)


def dense_complete(proto):
    d = proto.kind.dim
    total = BipartiteOperator.zeros(d)
    for k in range(len(proto.outcomes)):
        total = total + proto.outcome_operator(k)
    return total == BipartiteOperator.identity(d)


def route_result(route, proto, k):
    try:
        return route(proto, k).coeffs
    except ValueError as exc:
        return str(exc)


PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=60)
KINDS = [kind(f, d) for f in ("isotropic", "werner", "oo") for d in (2, 3, 4)] + \
    [kind("bell", 2)]
small_rationals = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
entries = st.one_of(st.just(CR0), st.builds(CRat, small_rationals, small_rationals))


@st.composite
def factors(draw, d, hermitian):
    g = [[draw(entries) for _ in range(d)] for _ in range(d)]
    if hermitian:
        g = [[g[i][j] + g[j][i].conjugate() for j in range(d)] for i in range(d)]
    return tuple(tuple(row) for row in g)


@st.composite
def random_protocols(draw, hermitian):
    """Protocols with random Gaussian-rational factors and random weights;
    with hermitian=None each factor is Hermitian or not at random."""
    k = draw(st.sampled_from(KINDS))

    def factor():
        herm = draw(st.booleans()) if hermitian is None else hermitian
        return draw(factors(k.dim, herm))

    outcomes = tuple(
        tuple(ProductTerm(draw(small_rationals), factor(), factor())
              for _ in range(draw(st.integers(0, 3))))
        for _ in range(draw(st.integers(1, 3))))
    return LocalProtocol(k, outcomes)


@given(random_protocols(hermitian=True))
@PROPERTY_SETTINGS
def test_invariant_coefficients_match_dense_twirl(proto):
    for k in range(len(proto.outcomes)):
        assert proto.outcome_coefficients(k) == dense_coefficients(proto, k)


@given(random_protocols(hermitian=None))
@PROPERTY_SETTINGS
def test_both_routes_reject_non_real_traces_together(proto):
    for k in range(len(proto.outcomes)):
        assert route_result(LocalProtocol.outcome_coefficients, proto, k) == \
            route_result(dense_coefficients, proto, k)
    assert proto.resolves_identity() == dense_complete(proto)


@st.composite
def complete_protocols(draw):
    """Synthesised protocols, which resolve the identity, of every family."""
    fam = draw(st.sampled_from(["isotropic", "werner", "bell", "oo"]))
    if fam in ("isotropic", "werner"):
        k = kind(fam, draw(st.integers(2, 4)))
        target = random_feasible_target(random.Random(draw(st.integers(0, 999))), k,
                                        draw(st.integers(1, 3)))
        return (isotropic_protocol if fam == "isotropic" else werner_protocol)(target)
    k = kind("bell", 2) if fam == "bell" else kind("oo", draw(st.integers(3, 4)))
    povms = catalog_extrema(k, draw(st.integers(2, 3))).ordered_povms()
    return protocol_for_vertex(draw(st.sampled_from(povms)))


@st.composite
def perturbed_protocols(draw, proto=None, hermitian=False):
    """A complete protocol (or proto) with one factor entry moved by a
    nonzero amount; with hermitian, the mirror entry moves by the conjugate
    amount, so that a Hermitian factor stays Hermitian."""
    if proto is None:
        proto = draw(complete_protocols())
    k = draw(st.sampled_from([k for k, terms in enumerate(proto.outcomes) if terms]))
    n = draw(st.integers(0, len(proto.outcomes[k]) - 1))
    i, j = draw(st.integers(0, proto.kind.dim - 1)), draw(st.integers(0, proto.kind.dim - 1))
    im = st.just(Fraction(0)) if hermitian and i == j else small_rationals
    delta = draw(st.builds(CRat, small_rationals, im).filter(bool))
    t = proto.outcomes[k][n]
    on_a = draw(st.booleans())
    grid = [list(row) for row in (t.a_factor if on_a else t.b_factor)]
    grid[i][j] = grid[i][j] + delta
    if hermitian and i != j:
        grid[j][i] = grid[j][i] + delta.conjugate()
    grid = tuple(tuple(row) for row in grid)
    term = ProductTerm(t.weight, grid, t.b_factor) if on_a else \
        ProductTerm(t.weight, t.a_factor, grid)
    terms = proto.outcomes[k][:n] + (term,) + proto.outcomes[k][n + 1:]
    return LocalProtocol(proto.kind, proto.outcomes[:k] + (terms,) + proto.outcomes[k + 1:])


@given(complete_protocols())
@PROPERTY_SETTINGS
def test_sparse_completeness_of_synthesised_protocols(proto):
    assert proto.resolves_identity() and dense_complete(proto)


@given(perturbed_protocols())
@PROPERTY_SETTINGS
def test_sparse_completeness_matches_dense_after_a_perturbation(proto):
    assert proto.resolves_identity() == dense_complete(proto)


def test_oo_triple_d8_verifies_from_invariants():
    # the dense route needs 64 x 64 operators here and does not fit tier-1 time
    d = 8
    k = kind("oo", d)
    target = SymPovm(k, tuple(CoeffVector(k, c) for c in oo_three_outcome_elements(d)))
    proto = oo_protocol("triple", d)
    report = verify_protocol(proto, target)
    assert report.ok and report.complete and report.factors_psd
    t = proto.outcomes[1][0]
    corrupted = LocalProtocol(k, (proto.outcomes[0],
                                  (ProductTerm(t.weight / 2, t.a_factor, t.b_factor),) +
                                  proto.outcomes[1][1:], proto.outcomes[2]))
    report = verify_protocol(corrupted, target)
    assert not report.ok and not report.complete
    assert report.outcomes_ok == (True, False, True)


def test_exact_verification_builds_no_dense_operator(monkeypatch):
    target = SymPovm(kind("oo", 3), tuple(CoeffVector(kind("oo", 3), c)
                                          for c in oo_three_outcome_elements(3)))
    proto = oo_protocol("triple", 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator was built")

    monkeypatch.setattr(BipartiteOperator, "__init__", refuse)
    assert verify_protocol(proto, target).ok


def test_exact_completeness_keeps_only_the_reached_entries():
    # the completeness sum holds the entries that products of nonzero factor
    # entries reach, d^2 of them here, not one slot per entry of the
    # d^2 x d^2 sum: at d = 32 that would be 2^20 slots, 8 MB of pointers
    import tracemalloc

    from sympovm.protocols import _exact_complete, _scaled_terms

    d = 32
    proto = isotropic_protocol(iso_povm(d, (0, Fraction(d, d + 1)), (1, Fraction(1, d + 1))))
    outcomes, scale = _scaled_terms(proto.outcomes)
    tracemalloc.start()
    try:
        assert _exact_complete(outcomes, scale, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_pure_state_set_is_built_once_per_dimension():
    assert build_pure_state_set(5) is build_pure_state_set(5)


# ---------------------------------------------------------------------------
# float mode against the exact verification


@st.composite
def float_mode_cases(draw):
    """(target, exact protocol): a synthesised protocol of any family, intact
    or with one factor moved Hermitian-ly, and the target read off the
    intact protocol."""
    proto = draw(complete_protocols())
    target = SymPovm(proto.kind, tuple(proto.outcome_coefficients(k)
                                       for k in range(len(proto.outcomes))))
    if draw(st.booleans()):
        proto = draw(perturbed_protocols(proto, hermitian=True))
    return target, proto


@given(float_mode_cases())
@PROPERTY_SETTINGS
def test_float_verification_matches_exact(case):
    from sympovm import _float

    target, proto = case
    floaty = float_copy(proto)
    exact, approx = verify_protocol(proto, target), verify_protocol(floaty, target)
    assert (approx.outcomes_ok, approx.complete, approx.factors_psd) == \
        (exact.outcomes_ok, exact.complete, exact.factors_psd)
    for k, terms in enumerate(floaty.outcomes):
        got = _float.outcome_coefficients(terms, proto.kind)
        want = proto.outcome_coefficients(k).coeffs
        assert all(abs(g - float(c)) <= 1e-12 * max(1, abs(c)) for g, c in zip(got, want))


@pytest.mark.parametrize("eigenvalue,psd", [(-1e-6, False), (-1e-12, True)])
def test_float_factor_psd_within_eps(eigenvalue, psd):
    third = Fraction(1, 3)
    target = iso_povm(2, (1, third), (0, 2 * third))
    proto = float_copy(isotropic_protocol(target))
    assert verify_protocol(proto, target).factors_psd
    # Bob's first factor is diag(1, 0); move its zero eigenvalue
    t = proto.outcomes[0][0]
    b = t.b_factor.copy()
    b[1][1] = eigenvalue
    moved = LocalProtocol(proto.kind, ((ProductTerm(t.weight, t.a_factor, b),) +
                                       proto.outcomes[0][1:], proto.outcomes[1]))
    assert verify_protocol(moved, target).factors_psd is psd


# ---------------------------------------------------------------------------
# mutated protocols: the integer verification against the dense route

def mutations(proto, rng):
    """Four one-term mutations of proto: a weight scaled by 3/2, a Bob
    factor that is not PSD, a non-Hermitian Alice entry, a dropped term."""
    k = rng.choice([k for k, terms in enumerate(proto.outcomes) if terms])
    n = rng.randrange(len(proto.outcomes[k]))
    t = proto.outcomes[k][n]
    d = proto.kind.dim
    i, j = rng.randrange(d), rng.randrange(d)
    bob = [list(row) for row in t.b_factor]
    bob[i][i] = bob[i][i] - CRat(Fraction(rng.randint(1, 3)) + sum(
        (abs(x.re) + abs(x.im) for row in bob for x in row), Fraction(0)))
    alice = [list(row) for row in t.a_factor]
    alice[i][j] = alice[i][j] + (CRat(Fraction(1, 3), 1) if i != j else CRat(0, 1))

    def swap(term):
        terms = proto.outcomes[k][:n] + term + proto.outcomes[k][n + 1:]
        return LocalProtocol(proto.kind, proto.outcomes[:k] + (terms,) + proto.outcomes[k + 1:])

    return [swap((ProductTerm(t.weight * Fraction(3, 2), t.a_factor, t.b_factor),)),
            swap((ProductTerm(t.weight, t.a_factor, tuple(map(tuple, bob))),)),
            swap((ProductTerm(t.weight, tuple(map(tuple, alice)), t.b_factor),)),
            swap(())]


def dense_verification(proto, target):
    """verify_protocol's report from the dense outcome operators and the
    CRat elimination, or the error both must raise."""
    from tests.crat_ldl import ldl_crat

    def psd(g):
        return ldl_crat(g) is not None

    factors_psd = all(t.weight >= 0 and psd(t.a_factor) and psd(t.b_factor)
                      for terms in proto.outcomes for t in terms)
    complete = dense_complete(proto)
    diffs = []
    for k, e in enumerate(target.elements):
        try:
            coeffs = dense_coefficients(proto, k).coeffs
        except ValueError as exc:
            return str(exc)
        diff = tuple(g - c for g, c in zip(coeffs, e.coeffs))
        diffs.append(None if not any(diff) else diff)
    ok = all(d is None for d in diffs) and complete and factors_psd
    return (ok, tuple(d is None for d in diffs), tuple(diffs), complete, factors_psd)


def integer_verification(proto, target):
    try:
        r = verify_protocol(proto, target)
    except ValueError as exc:
        return str(exc)
    return (r.ok, r.outcomes_ok, r.diffs, r.complete, r.factors_psd)


def synthesised_cases():
    rng = random.Random(83)
    for fam, synth in (("isotropic", isotropic_protocol), ("werner", werner_protocol)):
        for d in (2, 3):
            target = random_feasible_target(rng, kind(fam, d), rng.randint(1, 3))
            yield synth(target), target
    for k, counts in ((kind("bell", 2), (2, 3)), (kind("oo", 3), (2, 3)), (kind("oo", 4), (3,))):
        for n in counts:
            for povm in catalog_extrema(k, n).ordered_povms()[::4]:
                yield protocol_for_vertex(povm), povm


def test_mutated_protocols_verify_as_the_dense_route():
    rng = random.Random(89)
    seen = set()
    for proto, target in synthesised_cases():
        assert integer_verification(proto, target) == dense_verification(proto, target)
        for mutated in mutations(proto, rng):
            got = integer_verification(mutated, target)
            assert got == dense_verification(mutated, target)
            seen.add(got if isinstance(got, str) else got[3:])
    # every check failed somewhere: completeness, factor PSD, a non-real trace
    reports = [s for s in seen if not isinstance(s, str)]
    assert any(not complete for complete, _ in reports)
    assert any(not psd for _, psd in reports)
    assert "operator trace against basis projector is not real" in seen
