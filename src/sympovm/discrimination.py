"""Optimal local and global discrimination of symmetric state ensembles.

States invariant under one of the supported families are classical
objects in coefficient space: a state is its vector of projector weights
p_i = tr(rho Pi_i), and an invariant POVM element v assigns it outcome
probability sum_i v_i p_i.  A linear objective is therefore one gain
matrix: guess g scores an element e as e . W[g], with
W[g] = sum_j prior_j c[g][j] p_j (c the identity for Bayes).  The local
optimum is an exact LP over the feasible polytope whose objective is the
rows of W; a sweep over the extremal classes of
``extremal.catalog_classes`` (one canonical POVM per class, each outcome
relabelled to its best guess under W) must reach the same value, and the
two are cross-checked on every call (a mismatch is a RuntimeError).
Mutual information is maximised over the same classes alone, a convex
function attaining its maximum at a vertex.

Global discrimination of commuting states reduces to classically
distinguishing their projector-weight distributions: the best guess per
commutant block, sum_i max_g W[g][i] (min for a cost matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._exactlin import frac
from .extremal import catalog_classes
from .feasible import (
    LinearProgram,
    SymPovm,
    build_feasible_polytope,
    lp_solve,
    povm_from_coords,
)
from .symmetry import SymmetryKind, basis_traces, twirl_coefficients


@dataclass(frozen=True)
class StateCoeffs:
    """A symmetric state as its commutant projector weights."""

    kind: SymmetryKind
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(frac(w) for w in self.weights))
        if len(self.weights) != self.kind.n_coeffs:
            raise ValueError("wrong number of projector weights")
        if any(w < 0 for w in self.weights) or sum(self.weights) != 1:
            raise ValueError("projector weights must be nonnegative and sum to 1")

    @classmethod
    def from_operator(cls, rho, k: SymmetryKind) -> "StateCoeffs":
        coeffs = twirl_coefficients(rho, k).coeffs
        return cls(k, tuple(c * t for c, t in zip(coeffs, basis_traces(k))))

    def to_json(self):
        return [str(w) for w in self.weights]


@dataclass(frozen=True)
class DiscriminationProblem:
    states: tuple          # of StateCoeffs, all the same kind
    priors: tuple          # rationals summing to 1
    cost: object = "bayes"  # "bayes" | "info" | square cost matrix rows

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "priors", tuple(frac(p) for p in self.priors))
        kinds = {s.kind for s in self.states}
        if len(kinds) != 1:
            raise ValueError("all states must share one symmetry kind")
        if len(self.priors) != len(self.states):
            raise ValueError("need one prior per state")
        if any(p < 0 for p in self.priors) or sum(self.priors) != 1:
            raise ValueError("priors must be nonnegative and sum to 1")
        if not isinstance(self.cost, str):
            rows = tuple(tuple(frac(c) for c in row) for row in self.cost)
            if len(rows) != len(self.states) or \
                    any(len(r) != len(self.states) for r in rows):
                raise ValueError("cost matrix must be square, one row per guess")
            object.__setattr__(self, "cost", rows)
        elif self.cost not in ("bayes", "info"):
            raise ValueError("cost must be 'bayes', 'info' or a matrix")

    @property
    def kind(self) -> SymmetryKind:
        return self.states[0].kind


def outcome_distribution(povm: SymPovm, state: StateCoeffs) -> tuple:
    """Pr(k) = sum_i coeffs_k[i] p_i, exactly."""
    if povm.kind != state.kind:
        raise ValueError("POVM and state symmetry kinds differ")
    return tuple(sum(c * w for c, w in zip(e.coeffs, state.weights))
                 for e in povm.elements)


def _gains(problem: DiscriminationProblem) -> tuple:
    """The N x n gain rows W[g] = sum_j prior_j c[g][j] p_j, exact; for Bayes
    c is the identity.  Element e scores e . W[g] under guess g."""
    m = len(problem.states)
    cost = problem.cost if problem.cost != "bayes" else \
        tuple(tuple(int(g == j) for j in range(m)) for g in range(m))
    return tuple(
        tuple(sum((p * c * s.weights[i]
                   for p, c, s in zip(problem.priors, row, problem.states)),
                  Fraction(0))
              for i in range(problem.kind.n_coeffs))
        for row in cost)


@dataclass(frozen=True)
class LocalBayesResult:
    value: Fraction
    povm: SymPovm
    lp_value: Fraction
    sweep_value: Fraction
    sweep_povm: SymPovm
    guesses: tuple  # optimal guess per outcome for the sweep POVM


def optimal_local_bayes(problem: DiscriminationProblem) -> LocalBayesResult:
    """Exact LP over the feasible polytope, cross-checked by a class sweep.

    Bayes success is maximised (cost matrices are minimised); the LP fixes
    guess k on outcome k while the sweep relabels each extremal outcome to
    its best guess, and the two optima must coincide exactly.
    """
    if problem.cost == "info":
        raise ValueError("use optimal_local_info for mutual information")
    k = problem.kind
    m = len(problem.states)
    bayes = problem.cost == "bayes"
    gains = _gains(problem)
    poly = build_feasible_polytope(k, m, eliminate=False)
    objective = tuple(x for row in gains for x in row)
    res = lp_solve(LinearProgram(poly, objective, sense="max" if bayes else "min"))
    lp_povm = povm_from_coords(k, m, res.point)

    pick = max if bayes else min  # the first best guess per outcome
    best = None
    for povm in catalog_classes(k, m):
        scores = [[sum(c * x for c, x in zip(e.coeffs, row)) for row in gains]
                  for e in povm.elements]
        guesses = tuple(pick(range(m), key=s.__getitem__) for s in scores)
        total = sum(s[g] for s, g in zip(scores, guesses))
        if best is None or (total > best[0] if bayes else total < best[0]):
            best = (total, povm, guesses)
    sweep_value, sweep_povm, guesses = best
    if sweep_value != res.value:
        raise RuntimeError(f"LP optimum {res.value} != catalog sweep {sweep_value}; "
                           "the extremal catalog is incomplete")
    return LocalBayesResult(res.value, lp_povm, res.value, sweep_value,
                            sweep_povm, guesses)


def mutual_information_bits(priors, channel_rows) -> float:
    """I(input; output) in bits for exact priors and channel rows."""
    n_out = len(channel_rows[0]) if channel_rows else 0
    marginals = [sum(frac(p) * row[j] for p, row in zip(priors, channel_rows))
                 for j in range(n_out)]
    info = 0.0
    for p, row in zip(priors, channel_rows):
        for j in range(n_out):
            joint = frac(p) * row[j]
            if joint:
                info += float(joint) * math.log2(float(row[j]) / float(marginals[j]))
    return info


@dataclass(frozen=True)
class LocalInfoResult:
    bits: float
    povm: SymPovm
    channel: tuple  # exact rows Pr(outcome | state)


def optimal_local_info(problem: DiscriminationProblem) -> LocalInfoResult:
    """Best mutual information over the extremal classes.

    Mutual information is convex in the POVM, so the maximum over the
    feasible set is attained at an extremal measurement; extremal POVMs
    have at most n nonzero outcomes, so the n-outcome catalog suffices.
    """
    k = problem.kind
    best = None
    for povm in catalog_classes(k, k.n_coeffs):
        channel = tuple(outcome_distribution(povm, s) for s in problem.states)
        bits = mutual_information_bits(problem.priors, channel)
        if best is None or bits > best[0]:
            best = (bits, povm, channel)
    return LocalInfoResult(*best)


def global_optimal(problem: DiscriminationProblem):
    """Classical optimum over the projector-weight distributions.

    Invariant states of one family commute, so the best global measurement
    resolves every commutant projector block; the resulting channel is
    Pr(block i | state j) = p_j[i].  Returns an exact Fraction for Bayes
    and cost problems, a float for mutual information bits.
    """
    if problem.cost == "info":
        channel = tuple(s.weights for s in problem.states)
        return mutual_information_bits(problem.priors, channel)
    pick = max if problem.cost == "bayes" else min
    return sum(pick(column) for column in zip(*_gains(problem)))
