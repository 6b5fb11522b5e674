"""Seeded operation lists for the library workloads.

Each builder returns (warm-up ops, round ops).  An op's ``run`` calls the
public sympovm API on inputs generated here; ``key`` reduces its result
to a value later rounds must reproduce exactly; ``check`` compares the
result with the independent references and returns an error or None.
Program input objects are built at generation time, outside the timing.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import reference as R
import sympovm as S

FAMILIES_D = (("isotropic", (2, 3, 4, 5)), ("werner", (2, 3, 4, 5)),
              ("bell", (2,)), ("oo", (3, 4, 5)))


class Op:
    __slots__ = ("name", "shape", "run", "key", "check")

    def __init__(self, name, shape, run, key, check):
        self.name, self.shape = name, shape
        self.run, self.key, self.check = run, key, check

    def failed(self, raw):
        return isinstance(raw, Exception)


def _shuffle(ops):
    """Shuffle a round the same way for every seed.

    The order of the ops moves their timings (a seeded order moved the
    median protocol-verify latency from 25 to 42 ms between seeds), so the
    seed chooses the values of the inputs and never their order.
    """
    random.Random(0).shuffle(ops)


def _povm(family, d, elems):
    k = S.kind(family, d)
    return S.SymPovm(k, tuple(S.CoeffVector(k, e) for e in elems))


def _elements(povm):
    return tuple(tuple(e.coeffs) for e in povm.elements)


# ---------------------------------------------------------------------------
# catalog-queries

def _decompose_op(family, d, elems, verts):
    povm = _povm(family, d, elems)
    n_out = len(elems)

    def run():
        catalog = S.catalog_extrema(povm.kind, povm.n_outcomes)
        return S.convex_decompose(povm, catalog)

    def key(res):
        return res.decomposed, tuple((_elements(p), w) for p, w in res.weights or ())

    def check(res):
        if not res.decomposed:
            return "feasible POVM reported outside the hull"
        weighted = [(_elements(p), w) for p, w in res.weights]
        if any(w <= 0 for _, w in weighted) or sum(w for _, w in weighted) != 1:
            return "weights are not a convex combination"
        if any(p not in verts for p, _ in weighted):
            return "a used POVM is not a closed-form vertex"
        if R.reconstruct(weighted, R.N_COEFFS[family], n_out) != elems:
            return "weighted sum does not reconstruct the input"
        return None

    return Op("decompose", (family, d, n_out), run, key, check)


def _bayes_op(family, d, states, priors, cost):
    k = S.kind(family, d)
    problem = S.DiscriminationProblem([S.StateCoeffs(k, w) for w in states], priors,
                                      "bayes" if cost is None else cost)

    def run():
        return S.optimal_local_bayes(problem), S.global_optimal(problem)

    def key(raw):
        res, g = raw
        return res.value, _elements(res.povm), g

    def check(raw):
        res, g = raw
        want_local = R.bayes_sweep(family, d, states, priors, cost)
        want_global = R.global_value(states, priors, cost)
        if res.value != want_local:
            return f"local value {res.value} != sweep {want_local}"
        if g != want_global:
            return f"global value {g} != {want_global}"
        if (res.value > g) if cost is None else (res.value < g):
            return "local value beats the global optimum"
        elems = _elements(res.povm)
        if any(sum(e[i] for e in elems) != 1 for i in range(len(elems[0]))):
            return "optimal POVM is not complete"
        got = sum(R.element_score(e, states, priors, cost, g_) for g_, e in enumerate(elems))
        if got != res.value:
            return "optimal POVM does not attain the reported value"
        return None

    return Op("bayes" if cost is None else "cost", (family, d, len(states)),
              run, key, check)


def _info_op(family, d, states, priors):
    k = S.kind(family, d)
    problem = S.DiscriminationProblem([S.StateCoeffs(k, w) for w in states], priors,
                                      "info")

    def run():
        return S.optimal_local_info(problem), S.global_optimal(problem)

    def key(raw):
        res, g = raw
        return res.bits, _elements(res.povm), g

    def check(raw):
        res, g = raw
        want_local = R.info_sweep(family, d, states, priors)
        want_global = R.mutual_information(priors, states)
        if abs(res.bits - want_local) > 1e-9:
            return f"local info {res.bits} != sweep {want_local}"
        if abs(g - want_global) > 1e-9:
            return f"global info {g} != {want_global}"
        if res.bits > g + 1e-9:
            return "local information beats the global optimum"
        return None

    return Op("info", (family, d, R.N_COEFFS[family]), run, key, check)


def _relabel(rng, items):
    """``items`` in a seeded order, with the order used."""
    order = list(range(len(items)))
    rng.shuffle(order)
    return [items[i] for i in order], order


def catalog_queries(seed):
    """Fixed problems whose outcomes (states) the seed relabels.

    Drawing the values from the seed moved a round's time by 10 % and its
    median latency by a quarter from seed to seed; a relabelling keeps
    each problem's size and answer.
    """
    rng, values = random.Random(seed), random.Random(0)
    ops, warm = [], []
    for family, dims in FAMILIES_D:
        n = R.N_COEFFS[family]
        for d in dims:
            for n_out in (2, 3, 4, 5):
                verts = R.ordered_vertices(family, d, n_out)
                vset = frozenset(verts)
                warm.append(_decompose_op(family, d, verts[0], vset))
                mixture, _ = _relabel(rng, R.random_mixture(values, family, d, n_out))
                ops.append(_decompose_op(family, d, tuple(mixture), vset))
                states = [R.random_distribution(values, n) for _ in range(n_out)]
                priors = R.random_distribution(values, n_out, hi=4)
                cost = None
                if (d + n_out) % 2:
                    cost = [[Fraction(values.randint(0, 3)) for _ in range(n_out)]
                            for _ in range(n_out)]
                states, order = _relabel(rng, states)
                priors = tuple(priors[i] for i in order)
                if cost is not None:
                    cost = [[cost[i][j] for j in order] for i in order]
                ops.append(_bayes_op(family, d, states, priors, cost))
                if (family, d, n_out) == ("isotropic", 5, 3):
                    median_op = ops[-1]
            states = [R.random_distribution(values, n) for _ in range(3)]
            priors = R.random_distribution(values, 3, hi=4)
            states, order = _relabel(rng, states)
            ops.append(_info_op(family, d, states, tuple(priors[i] for i in order)))
    # The ops' latencies climb by about 3 % from one to the next around the
    # median, so a median among them moved by a sixth between runs.  Twenty
    # repeats of the query at the median (about 40 ms) hold it.
    ops += [median_op] * 20
    _shuffle(ops)
    return warm, ops


# ---------------------------------------------------------------------------
# protocol-verify

def _perturbed(elems):
    first = (elems[0][0] + Fraction(1, 97),) + tuple(elems[0][1:])
    return (first,) + tuple(elems[1:])


def _protocol_op(family, d, elems, synth, probe=False):
    """Synthesis + verification; ``probe`` also checks a perturbed target."""
    target = _povm(family, d, elems)
    wrong = _povm(family, d, _perturbed(elems))

    def run():
        proto = synth(target)
        return proto, S.verify_protocol(proto, target)

    def key(raw):
        proto, rep = raw
        return json.dumps(proto.to_json(), sort_keys=True), rep.ok

    def check(raw):
        proto, rep = raw
        if not rep.ok:
            return "verify_protocol rejects its own synthesis"
        if R.protocol_coeffs(proto.to_json()) != list(elems):
            return "invariant coefficients differ from the target"
        if probe and S.verify_protocol(proto, wrong).ok:
            return "a perturbed target is accepted"
        return None

    return Op("protocol", (family, d, len(elems)), run, key, check)


def protocol_verify(seed):
    rng = random.Random(seed)
    ops, warm = [], []
    probed = set()  # the first op of each kind also rejects a perturbed target

    def probe(family, d):
        fresh = (family, d) not in probed
        probed.add((family, d))
        return fresh

    basis_synth = {"isotropic": S.isotropic_protocol, "werner": S.werner_protocol}
    for family in ("isotropic", "werner"):
        for d in (2, 3, 4, 5):
            ident = (R.point_mass_image(family, d, R.ONE, R.ONE),)
            warm.append(_protocol_op(family, d, ident, basis_synth[family]))
            for n_out in (1, 2, 3, 4):
                for variant in (0, 1):
                    elems, _ = R.random_basis_target(rng, family, d, n_out, variant)
                    ops.append(_protocol_op(family, d, elems, basis_synth[family],
                                            probe(family, d)))
                    if (family, d, n_out, variant) == ("isotropic", 4, 2, 0):
                        median_op = ops[-1]
    for family, dims, counts in (("bell", (2,), (2, 3, 4)), ("oo", (3, 4, 5, 6), (2, 3))):
        for d in dims:
            warm.append(_protocol_op(family, d, R.class_members(family, d, 2)[0],
                                     S.protocol_for_vertex))
            for n_out in counts:
                for member in R.class_members(family, d, n_out):
                    order = list(range(n_out))
                    rng.shuffle(order)
                    elems = tuple(member[i] for i in order)
                    ops.append(_protocol_op(family, d, elems, S.protocol_for_vertex,
                                            probe(family, d)))
    # Half the ops take under 12 ms and half over 17 ms (on a fast host), so
    # a median among them jumped across that gap between runs.  Twenty
    # repeats of a target at the gap hold it.
    ops += [median_op] * 20
    _shuffle(ops)
    return warm, ops


# ---------------------------------------------------------------------------
# certificates

def _nogo_op(d):
    def run():
        return S.naive_transform_search(d)

    def key(cert):
        return json.dumps(cert.to_json(), sort_keys=True)

    def check(cert):
        vm = [c for c in cert.cases if c.route == "vertex-matching"]
        ur = [c for c in cert.cases if c.route == "unit-rows"]
        if cert.verdict != "infeasible" or len(vm) != 48 or len(ur) != 216:
            return f"verdict {cert.verdict} with {len(vm)}+{len(ur)} cases"
        if any(c.feasible for c in cert.cases):
            return "a case is feasible"
        if any(not c.certificate for c in ur):
            return "an LP case has no certificate"
        return None

    return Op("nogo", ("oo", d), run, key, check)


def _sanity_op(d):
    want = ((R.ONE, R.ZERO), (Fraction(1, d + 1), Fraction(d, d + 1)))

    def run():
        return S.isotropic_sanity_search(d)

    def key(cert):
        return json.dumps(cert.to_json(), sort_keys=True)

    def check(cert):
        if cert.verdict != "feasible":
            return f"isotropic search verdict {cert.verdict}"
        if want not in cert.transforms:
            return "the known isotropic transform is not recovered"
        return None

    return Op("sanity", ("isotropic", d), run, key, check)


def _vertices_op(family, d, n_out, method):
    k = S.kind(family, d)
    want = frozenset(R.ordered_vertices(family, d, n_out))
    enumerate_ = S.enumerate_vertices if method == "dd" else S.brute_force_vertices

    def run():
        return enumerate_(S.build_feasible_polytope(k, n_out))

    def key(vs):
        return vs.points

    def check(vs):
        got = [_elements(p) for p in vs.ordered_povms()]
        if len(got) != len(want) or frozenset(got) != want:
            return f"{method} vertices differ from the closed-form list"
        return None

    return Op(method, (family, d, n_out), run, key, check)


def certificates(seed):
    """The no-go, sanity and vertex problems are fixed: no op depends on the seed."""
    ops = [_nogo_op(d) for d in (3, 4, 5, 6)]
    ops += [_vertices_op("bell", 2, n, "brute") for n in (2, 3)]
    ops += [_vertices_op("oo", d, 2, "dd") for d in (3, 4, 5, 6)]
    ops += [_vertices_op("oo", d, 3, "dd") for d in (3, 4, 5)]
    ops += [_vertices_op("bell", 2, n, "dd") for n in (2, 3, 4)]
    ops += [_sanity_op(d) for d in (2, 3)]
    # The other ops range from 3 ms to 6 s with no two alike, so a median
    # among them jumped from op to op between runs.  Fifteen copies of one
    # op (about 70 ms; nine ops are faster, seven slower, the other two
    # sanity searches about as fast) hold the median.
    ops += [_sanity_op(4) for _ in range(15)]
    _shuffle(ops)
    warm = [_vertices_op("oo", d, 2, "dd") for d in (3, 4, 5, 6)]
    warm += [_sanity_op(d) for d in (2, 3, 4)]
    warm.append(_vertices_op("bell", 2, 2, "dd"))
    return warm, ops


BUILDERS = {
    "catalog-queries": catalog_queries,
    "protocol-verify": protocol_verify,
    "certificates": certificates,
}
