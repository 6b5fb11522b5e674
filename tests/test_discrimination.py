"""Local and global discrimination tests."""

import math
import random
from fractions import Fraction

import pytest

from sympovm.discrimination import (
    DiscriminationProblem,
    StateCoeffs,
    global_optimal,
    mutual_information_bits,
    optimal_local_bayes,
    optimal_local_info,
    outcome_distribution,
)
from sympovm.feasible import SymPovm
from sympovm.operators import ketbra, tensor
from sympovm.symmetry import CoeffVector, kind

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def bell_states():
    kb = kind("bell", 2)
    return [StateCoeffs(kb, tuple(Fraction(int(i == j)) for i in range(4)))
            for j in range(4)]


def test_state_coeffs_validation():
    kb = kind("bell", 2)
    with pytest.raises(ValueError):
        StateCoeffs(kb, (1, 1, 0, 0))
    with pytest.raises(ValueError):
        StateCoeffs(kb, (2, -1, 0, 0))


def test_state_coeffs_from_operator():
    ki = kind("isotropic", 2)
    rho = tensor(ketbra(0, 0, 2), ketbra(0, 0, 2))
    s = StateCoeffs.from_operator(rho, ki)
    assert s.weights == (HALF, HALF)


def test_outcome_distribution_examples():
    kb = kind("bell", 2)
    povm = SymPovm(kb, (CoeffVector(kb, (1, 1, 0, 0)), CoeffVector(kb, (0, 0, 1, 1))))
    phi_plus = StateCoeffs(kb, (0, 0, 1, 0))
    assert outcome_distribution(povm, phi_plus) == (0, 1)
    ident = SymPovm(kb, (CoeffVector(kb, (1, 1, 1, 1)),))
    assert outcome_distribution(ident, phi_plus) == (1,)
    ki = kind("isotropic", 2)
    third = Fraction(1, 3)
    extremal = SymPovm(ki, (CoeffVector(ki, (1, third)), CoeffVector(ki, (0, 2 * third))))
    sigma1 = StateCoeffs(ki, (1, 0))
    assert outcome_distribution(extremal, sigma1) == (1, 0)


def test_outcome_distribution_kind_mismatch():
    kb = kind("bell", 2)
    ki = kind("isotropic", 2)
    povm = SymPovm(kb, (CoeffVector(kb, (1, 1, 1, 1)),))
    with pytest.raises(ValueError):
        outcome_distribution(povm, StateCoeffs(ki, (1, 0)))


def test_four_bell_states_local_bayes_half():
    prob = DiscriminationProblem(bell_states(), [QUARTER] * 4)
    res = optimal_local_bayes(prob)
    assert res.value == HALF
    assert res.lp_value == res.sweep_value == HALF


def test_single_state_is_free():
    kb = kind("bell", 2)
    prob = DiscriminationProblem([StateCoeffs(kb, (0, 0, 1, 0))], [Fraction(1)])
    assert optimal_local_bayes(prob).value == 1


def test_isotropic_pair_local_bayes():
    ki = kind("isotropic", 2)
    prob = DiscriminationProblem([StateCoeffs(ki, (1, 0)), StateCoeffs(ki, (0, 1))],
                                 [HALF, HALF])
    res = optimal_local_bayes(prob)
    assert res.value == Fraction(5, 6)
    # the optimum uses the PPT-boundary element
    assert any(e.coeffs == (1, Fraction(1, 3)) for e in res.sweep_povm.elements)


def test_error_cost_matrix_matches_bayes():
    # 0/1 error cost: minimal expected cost = 1 - best success probability
    states = bell_states()
    cost = [[0 if g == s else 1 for s in range(4)] for g in range(4)]
    prob = DiscriminationProblem(states, [QUARTER] * 4, cost=cost)
    res = optimal_local_bayes(prob)
    assert res.value == 1 - HALF


def test_local_info_examples():
    prob = DiscriminationProblem(bell_states(), [QUARTER] * 4)
    res = optimal_local_info(prob)
    assert abs(res.bits - 1.0) < 1e-12
    single = DiscriminationProblem([bell_states()[0]], [Fraction(1)])
    assert optimal_local_info(single).bits == 0.0


def test_local_info_isotropic_pair_binary_channel():
    ki = kind("isotropic", 2)
    prob = DiscriminationProblem([StateCoeffs(ki, (1, 0)), StateCoeffs(ki, (0, 1))],
                                 [HALF, HALF])
    res = optimal_local_info(prob)
    # channel rows (1,0) and (1/3,2/3) up to outcome relabelling
    rows = {tuple(sorted(r)) for r in res.channel}
    assert rows == {(0, 1), (Fraction(1, 3), Fraction(2, 3))}
    h = lambda p: -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    expect = h(1 / 3) - 0.5 * h(1 / 3) + 0.5 * 0  # H(Y) - H(Y|X) with these rows
    assert abs(res.bits - (h(2 / 3) - 0.5 * h(1 / 3))) < 1e-12
    assert abs(res.bits - expect) < 1e-9


def test_global_examples():
    prob = DiscriminationProblem(bell_states(), [QUARTER] * 4)
    assert global_optimal(prob) == 1
    info = DiscriminationProblem(bell_states(), [QUARTER] * 4, cost="info")
    assert abs(global_optimal(info) - 2.0) < 1e-12
    ki = kind("isotropic", 2)
    pair = DiscriminationProblem([StateCoeffs(ki, (1, 0)), StateCoeffs(ki, (0, 1))],
                                 [HALF, HALF])
    assert global_optimal(pair) == 1
    same = DiscriminationProblem([StateCoeffs(ki, (HALF, HALF))] * 2,
                                 [Fraction(2, 3), Fraction(1, 3)])
    assert global_optimal(same) == Fraction(2, 3)  # identical states: max prior


def test_mixed_kinds_rejected():
    kb = kind("bell", 2)
    ki = kind("isotropic", 2)
    with pytest.raises(ValueError):
        DiscriminationProblem([StateCoeffs(kb, (1, 0, 0, 0)), StateCoeffs(ki, (1, 0))],
                              [HALF, HALF])


def test_local_never_beats_global():
    rng = random.Random(43)
    for fam, d in [("isotropic", 2), ("isotropic", 3), ("bell", 2), ("oo", 3)]:
        k = kind(fam, d)
        n = k.n_coeffs
        for _ in range(8):
            states = []
            for _ in range(rng.randint(2, 3)):
                raw = [Fraction(rng.randint(0, 6)) for _ in range(n)]
                if not any(raw):
                    raw[0] = Fraction(1)
                total = sum(raw)
                states.append(StateCoeffs(k, tuple(r / total for r in raw)))
            m = len(states)
            prob = DiscriminationProblem(states, [Fraction(1, m)] * m)
            assert optimal_local_bayes(prob).value <= global_optimal(prob)
            info = DiscriminationProblem(states, [Fraction(1, m)] * m, cost="info")
            assert optimal_local_info(info).bits <= global_optimal(info) + 1e-12


def test_bell_local_info_never_exceeds_one_bit():
    rng = random.Random(47)
    kb = kind("bell", 2)
    for _ in range(10):
        m = rng.randint(2, 5)
        states = []
        for _ in range(m):
            raw = [Fraction(rng.randint(0, 5)) for _ in range(4)]
            if not any(raw):
                raw[rng.randrange(4)] = Fraction(1)
            total = sum(raw)
            states.append(StateCoeffs(kb, tuple(r / total for r in raw)))
        priors_raw = [Fraction(rng.randint(1, 5)) for _ in range(m)]
        priors = [p / sum(priors_raw) for p in priors_raw]
        prob = DiscriminationProblem(states, priors)
        assert optimal_local_info(prob).bits <= 1.0 + 1e-12


def test_mutual_information_handles_zero_rows():
    assert mutual_information_bits([HALF, HALF], [(1, 0), (1, 0)]) == 0.0
    assert abs(mutual_information_bits([HALF, HALF], [(1, 0), (0, 1)]) - 1.0) < 1e-12


def test_info_cost_routed_to_info_solver():
    prob = DiscriminationProblem(bell_states(), [QUARTER] * 4, cost="info")
    with pytest.raises(ValueError):
        optimal_local_bayes(prob)


def random_states(rng, k, m):
    states = []
    for _ in range(m):
        raw = [Fraction(rng.randint(0, 6)) for _ in range(k.n_coeffs)]
        if not any(raw):
            raw[rng.randrange(k.n_coeffs)] = Fraction(1)
        states.append(StateCoeffs(k, tuple(r / sum(raw) for r in raw)))
    return states


def expected_cost(povm, guesses, prob):
    """sum over outcomes k and states j of prior_j c[guess_k][j] Pr(k | j),
    read from outcome_distribution alone (c the identity for Bayes)."""
    total = Fraction(0)
    for j, (state, prior) in enumerate(zip(prob.states, prob.priors)):
        for g, pr in zip(guesses, outcome_distribution(povm, state)):
            c = int(g == j) if prob.cost == "bayes" else prob.cost[g][j]
            total += prior * c * pr
    return total


@pytest.mark.parametrize("cost", ["bayes", "matrix"])
def test_local_results_attain_their_values(cost):
    rng = random.Random(53 if cost == "bayes" else 59)
    for fam, d in [("isotropic", 2), ("isotropic", 3), ("werner", 3), ("bell", 2),
                   ("oo", 3), ("oo", 4)]:
        k = kind(fam, d)
        for m in range(2, 6):
            states = random_states(rng, k, m)
            priors_raw = [Fraction(rng.randint(1, 5)) for _ in range(m)]
            priors = [p / sum(priors_raw) for p in priors_raw]
            matrix = "bayes" if cost == "bayes" else \
                [[rng.randint(0, 9) for _ in range(m)] for _ in range(m)]
            prob = DiscriminationProblem(states, priors, cost=matrix)
            res = optimal_local_bayes(prob)
            assert res.value == res.lp_value == res.sweep_value
            assert len(res.guesses) == res.sweep_povm.n_outcomes == m
            assert expected_cost(res.sweep_povm, res.guesses, prob) == res.sweep_value
            assert expected_cost(res.povm, range(m), prob) == res.value
            if cost == "bayes":
                assert global_optimal(prob) >= res.value
            else:
                assert global_optimal(prob) <= res.value


def test_global_cost_matrix_by_hand():
    # per commutant block, the cheapest guess: block 0 has Pr = 1 and 1/4,
    # guess 0 costs 3 * 1/2 * 1/4 = 3/8 < guess 1's 1 * 1/2 * 1; block 1 has
    # Pr = 0 and 3/4, guess 1 costs 0.  Reading c[j][g] gives 1/8, max 13/8.
    ki = kind("isotropic", 2)
    prob = DiscriminationProblem(
        [StateCoeffs(ki, (1, 0)), StateCoeffs(ki, (QUARTER, 3 * QUARTER))],
        [HALF, HALF], cost=[[0, 3], [1, 0]])
    assert global_optimal(prob) == Fraction(3, 8)
    assert optimal_local_bayes(prob).value >= Fraction(3, 8)
