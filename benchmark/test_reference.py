"""Tests of the benchmark's independent references, pinned to published values.

Run with: python -m pytest benchmark/test_reference.py
"""

from fractions import Fraction as F

import pytest

import reference as R


def test_oo_two_outcome_extrema_at_d3():
    want = {
        "A1": (0, 0, 0), "A2": (1, 1, 1),
        "B1": (0, 0, F(3, 5)), "B2": (1, 1, F(2, 5)),
        "C1": (1, F(1, 2), F(1, 10)), "C2": (0, F(1, 2), F(9, 10)),
        "D1": (1, 0, F(2, 5)), "D2": (0, 1, F(3, 5)),
    }
    assert R.oo_pairs(3) == {k: tuple(F(c) for c in v) for k, v in want.items()}


@pytest.mark.parametrize("family,d,counts", [
    ("oo", 3, (8, 27, 64, 125)),
    ("bell", 2, (8, 21, 40, 65)),
])
def test_ordered_vertex_counts(family, d, counts):
    assert tuple(len(R.ordered_vertices(family, d, n)) for n in (2, 3, 4, 5)) == counts


def test_every_ordered_vertex_is_complete():
    for family, d in (("isotropic", 4), ("werner", 3), ("bell", 2), ("oo", 5)):
        for povm in R.ordered_vertices(family, d, 4):
            assert all(sum(e[i] for e in povm) == 1
                       for i in range(R.N_COEFFS[family]))


def _grid(rows):
    return tuple(tuple((F(x), F(0)) if not isinstance(x, tuple) else
                       (F(x[0]), F(x[1])) for x in row) for row in rows)


def _ketbra(i, d):
    return _grid([[int(r == c == i) for c in range(d)] for r in range(d)])


def test_product_coefficients_of_the_d1_protocol():
    # D1 = sum_i |i><i| (x) |i><i| is the oo extremum (1, 0, 2/5) at d = 3
    total = [F(0)] * 3
    for i in range(3):
        for k, c in enumerate(R.product_coeffs("oo", 3, _ketbra(i, 3), _ketbra(i, 3))):
            total[k] += c
    assert tuple(total) == R.oo_pairs(3)["D1"]


def test_product_coefficients_of_identity_are_all_ones():
    for family, d in (("isotropic", 3), ("werner", 4), ("bell", 2), ("oo", 5)):
        ident = _grid([[int(r == c) for c in range(d)] for r in range(d)])
        assert R.product_coeffs(family, d, ident, ident) == (1,) * R.N_COEFFS[family]


def test_bell_pauli_correlators_of_a_product_basis():
    # same outcome in the z basis collects Phi+ and Phi-
    same = [R.product_coeffs("bell", 2, _ketbra(i, 2), _ketbra(i, 2)) for i in (0, 1)]
    assert tuple(a + b for a, b in zip(*same)) == (0, 0, 1, 1)
    # same outcome in the y basis collects Psi+ and Phi-
    half = F(1, 2)
    yp = _grid([[half, (0, -half)], [(0, half), half]])
    ym = _grid([[half, (0, half)], [(0, -half), half]])
    got = [R.product_coeffs("bell", 2, p, p) for p in (yp, ym)]
    assert tuple(a + b for a, b in zip(*got)) == (1, 0, 0, 1)


def test_basis_protocol_reproduces_the_point_mass_images():
    for family in ("isotropic", "werner"):
        xy = [(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))]
        blob = R.basis_protocol_json(family, 3, xy)
        assert R.protocol_coeffs(blob) == [R.point_mass_image(family, 3, x, y)
                                           for x, y in xy]


def _unit_states(n):
    return [tuple(F(int(i == j)) for i in range(n)) for j in range(n)]


def test_bell_local_half_versus_global_one():
    states, priors = _unit_states(4), [F(1, 4)] * 4
    assert R.bayes_sweep("bell", 2, states, priors) == F(1, 2)
    assert R.global_value(states, priors) == 1
    assert R.info_sweep("bell", 2, states, priors) == pytest.approx(1.0, abs=1e-12)
    assert R.mutual_information(priors, states) == pytest.approx(2.0, abs=1e-12)


def test_isotropic_pair_five_sixths():
    states, priors = _unit_states(2), [F(1, 2)] * 2
    assert R.bayes_sweep("isotropic", 2, states, priors) == F(5, 6)
    assert R.global_value(states, priors) == 1


def test_cost_matrix_is_minimised():
    states, priors = _unit_states(2), [F(1, 2)] * 2
    cost = [[0, 1], [1, 0]]   # error probability
    assert R.bayes_sweep("isotropic", 2, states, priors, cost) == F(1, 6)
    assert R.global_value(states, priors, cost) == 0


def test_state_set_check():
    vec = lambda s: [["1", "0"], ["0", s]]
    good = {"dim": 2, "states": [{"weight": "1", "norm2": "2", "vec": vec("1")},
                                 {"weight": "1", "norm2": "2", "vec": vec("-1")}]}
    assert R.check_state_set(good) is None
    bad = {"dim": 2, "states": good["states"][:1]}
    assert R.check_state_set(bad) is not None


def test_random_mixture_is_reconstructible_and_seeded():
    import random

    a = R.random_mixture(random.Random(7), "oo", 4, 3)
    b = R.random_mixture(random.Random(7), "oo", 4, 3)
    assert a == b
    assert all(sum(e[i] for e in a) == 1 for i in range(3))
