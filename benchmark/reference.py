"""Independent reference computations for the sympovm benchmark.

Nothing here imports sympovm.  Inputs are generated and outputs checked
with these closed forms, so a benchmark run cannot pass by agreeing with
the code under test.  All arithmetic is exact (``Fraction``); complex
matrix entries are ``(re, im)`` pairs of Fractions.

Coefficient order per family matches the file formats:
isotropic (P+, 1-P+), werner (P_A, P_S), bell (Psi+, Psi-, Phi+, Phi-),
oo (P+, (1-F)/2, (1+F)/2 - P+).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

N_COEFFS = {"isotropic": 2, "werner": 2, "bell": 4, "oo": 3}
ZERO = Fraction(0)
ONE = Fraction(1)


def projector_traces(family, d):
    """Traces (ranks) of the commutant projectors, in coefficient order."""
    if family == "isotropic":
        return (1, d * d - 1)
    if family == "werner":
        return (d * (d - 1) // 2, d * (d + 1) // 2)
    if family == "bell":
        return (1, 1, 1, 1)
    return (1, d * (d - 1) // 2, (d + 2) * (d - 1) // 2)


# ---------------------------------------------------------------------------
# closed-form extremal lists

def oo_pairs(d):
    """The eight 2-outcome oo extremal elements, A1..D2."""
    den = Fraction((d + 2) * (d - 1))
    return {
        "A1": (ZERO, ZERO, ZERO),
        "A2": (ONE, ONE, ONE),
        "B1": (ZERO, ZERO, 2 * d / den),
        "B2": (ONE, ONE, (d + 1) * (d - 2) / den),
        "C1": (ONE, Fraction(1, d - 1), (d - 2) / den),
        "C2": (ZERO, Fraction(d - 2, d - 1), d * d / den),
        "D1": (ONE, ZERO, Fraction(2, d + 2)),
        "D2": (ZERO, ONE, Fraction(d, d + 2)),
    }


def oo_triple(d):
    """The genuine 3-outcome oo extremum (M1, M2, M3)."""
    den = Fraction((d + 2) * (d - 1))
    return ((ZERO, ZERO, 2 * d / den),
            (ZERO, Fraction(d - 2, d - 1), d * (d - 2) / den),
            (ONE, Fraction(1, d - 1), (d - 2) / den))


def placements(n_outcomes, parts, n_coeffs):
    """Every ordered POVM putting ``parts`` in distinct slots, zeros elsewhere."""
    zero = (ZERO,) * n_coeffs
    out = set()
    for slots in itertools.permutations(range(n_outcomes), len(parts)):
        elems = [zero] * n_outcomes
        for s, part in zip(slots, parts):
            elems[s] = part
        out.add(tuple(elems))
    return out


def point_mass_image(family, d, x, y):
    """Coefficients of the computational-basis protocol with responses x, y.

    Alice measures |i><i|; Bob's response is x on |i><i| and y on the
    rest.  The twirl of that product term is a linear image of (x, y).
    """
    if family == "isotropic":
        return (x, (d * y + x) / (d + 1))
    return (y, (2 * x + (d - 1) * y) / (d + 1))


def vertex_classes(family, d):
    """Unordered extremal classes as tuples of nonzero elements."""
    if family in ("isotropic", "werner"):
        return [(point_mass_image(family, d, ONE, ONE),),
                (point_mass_image(family, d, ONE, ZERO),
                 point_mass_image(family, d, ZERO, ONE))]
    if family == "bell":
        out = [((ONE,) * 4,)]
        for pair in ((0, 1), (0, 2), (0, 3)):
            col = tuple(Fraction(int(i in pair)) for i in range(4))
            out.append((col, tuple(1 - c for c in col)))
        return out
    p = oo_pairs(d)
    out = [(p["A2"],)] + [(p[x + "1"], p[x + "2"]) for x in "BCD"]
    out.append(oo_triple(d))
    return out


def ordered_vertices(family, d, n_outcomes):
    """All ordered extremal POVMs with ``n_outcomes`` outcomes, sorted."""
    n = N_COEFFS[family]
    out = set()
    for cls in vertex_classes(family, d):
        if len(cls) <= n_outcomes:
            out |= placements(n_outcomes, list(cls), n)
    return sorted(out)


def class_members(family, d, n_outcomes):
    """One ordered representative per class that fits ``n_outcomes``."""
    zero = (ZERO,) * N_COEFFS[family]
    return [tuple(cls) + (zero,) * (n_outcomes - len(cls))
            for cls in vertex_classes(family, d) if len(cls) <= n_outcomes]


# ---------------------------------------------------------------------------
# exact complex d x d helpers: entries are (re, im) Fraction pairs

def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ctrace(m):
    t = (ZERO, ZERO)
    for i in range(len(m)):
        t = cadd(t, m[i][i])
    return t


def ctrace_prod(a, b, transpose_b=False):
    """tr(A B), or tr(A B^T) when ``transpose_b``."""
    t = (ZERO, ZERO)
    n = len(a)
    for i in range(n):
        for j in range(n):
            t = cadd(t, cmul(a[i][j], b[i][j] if transpose_b else b[j][i]))
    return t


_PAULI = {
    "i": (((ONE, ZERO), (ZERO, ZERO)), ((ZERO, ZERO), (ONE, ZERO))),
    "x": (((ZERO, ZERO), (ONE, ZERO)), ((ONE, ZERO), (ZERO, ZERO))),
    "y": (((ZERO, ZERO), (ZERO, -ONE)), ((ZERO, ONE), (ZERO, ZERO))),
    "z": (((ONE, ZERO), (ZERO, ZERO)), ((ZERO, ZERO), (-ONE, ZERO))),
}
# |beta><beta| = (1/4) sum_s sign_s s (x) s over s in (i, x, y, z)
_BELL_SIGNS = ((1, 1, 1, -1),     # Psi+
               (1, -1, -1, -1),   # Psi-
               (1, 1, -1, 1),     # Phi+
               (1, -1, 1, 1))     # Phi-


def product_coeffs(family, d, a, b):
    """Commutant coefficients of A (x) B from local invariants.

    tr(A(x)B) = trA trB, tr(F A(x)B) = tr(AB), tr(P+ A(x)B) = tr(AB^T)/d;
    the Bell projectors use Pauli correlators tr(sA) tr(sB).
    """
    if family == "bell":
        corr = []
        for s in "ixyz":
            corr.append(cmul(ctrace_prod(_PAULI[s], a), ctrace_prod(_PAULI[s], b)))
        out = []
        for signs in _BELL_SIGNS:
            acc = (ZERO, ZERO)
            for sg, c in zip(signs, corr):
                acc = cadd(acc, (sg * c[0], sg * c[1]))
            out.append((acc[0] / 4, acc[1] / 4))
    else:
        ta, tb = ctrace(a), ctrace(b)
        tt = cmul(ta, tb)
        swap = ctrace_prod(a, b)
        plus = ctrace_prod(a, b, transpose_b=True)
        plus = (plus[0] / d, plus[1] / d)
        anti = ((tt[0] - swap[0]) / 2, (tt[1] - swap[1]) / 2)
        sym = ((tt[0] + swap[0]) / 2, (tt[1] + swap[1]) / 2)
        if family == "isotropic":
            out = [plus, (tt[0] - plus[0], tt[1] - plus[1])]
        elif family == "werner":
            out = [anti, sym]
        else:
            out = [plus, anti, (sym[0] - plus[0], sym[1] - plus[1])]
        out = [(v[0] / t, v[1] / t)
               for v, t in zip(out, projector_traces(family, d))]
    if any(v[1] for v in out):
        raise ValueError("product term has a non-real coefficient")
    return tuple(v[0] for v in out)


def parse_grid(obj):
    """An exact square matrix from the operator / factor JSON format."""
    return tuple(tuple((Fraction(p[0]), Fraction(p[1])) for p in row)
                 for row in obj["entries"])


def protocol_coeffs(blob):
    """Per-outcome coefficient vectors of a protocol JSON, from invariants."""
    family, d = blob["twirl"], int(blob["dim"])
    out = []
    for terms in blob["outcomes"]:
        acc = [ZERO] * N_COEFFS[family]
        for t in terms:
            a, b = parse_grid(t["a"]), parse_grid(t["b"])
            w = Fraction(t["w"])
            for i, c in enumerate(product_coeffs(family, d, a, b)):
                acc[i] += w * c
        out.append(tuple(acc))
    return out


def basis_protocol_json(family, d, xy):
    """Computational-basis protocol JSON for responses [(x_k, y_k), ...].

    Outcome k: sum_i |i><i| (x) (x_k |i><i| + y_k (1 - |i><i|)).
    """
    def diag(vals):
        return {"dim": d, "entries": [[[str(vals[i]) if i == j else "0", "0"]
                                       for j in range(d)] for i in range(d)]}
    outcomes = []
    for x, y in xy:
        terms = []
        for i in range(d):
            a = [ONE if j == i else ZERO for j in range(d)]
            b = [x if j == i else y for j in range(d)]
            terms.append({"w": "1", "a": diag(a), "b": diag(b)})
        outcomes.append(terms)
    return {"twirl": family, "dim": d, "outcomes": outcomes}


# ---------------------------------------------------------------------------
# discrimination references

def element_score(element, states, priors, cost, guess):
    total = ZERO
    for j, (w, p) in enumerate(zip(states, priors)):
        pr = sum(c * x for c, x in zip(element, w))
        if cost is None:
            if j == guess:
                total += p * pr
        else:
            total += p * cost[guess][j] * pr
    return total


def bayes_sweep(family, d, states, priors, cost=None):
    """Optimal local value by sweeping the closed-form extremal classes.

    Each nonzero element takes its best guess; Bayes success is maximised,
    a cost matrix (rows = guesses) minimised.
    """
    n = len(states)
    pick = max if cost is None else min
    best = None
    for cls in vertex_classes(family, d):
        if len(cls) > n:
            continue
        total = ZERO
        for e in cls:
            total += pick(element_score(e, states, priors, cost, g) for g in range(n))
        if best is None or pick(best, total) == total:
            best = total
    # outcomes the class leaves empty contribute 0 either way
    return best


def global_value(states, priors, cost=None):
    """Classical optimum over the projector-weight distributions."""
    n_coeffs = len(states[0])
    total = ZERO
    for i in range(n_coeffs):
        if cost is None:
            total += max(p * w[i] for p, w in zip(priors, states))
        else:
            total += min(sum(p * cost[g][j] * w[i]
                             for j, (p, w) in enumerate(zip(priors, states)))
                         for g in range(len(states)))
    return total


def mutual_information(priors, rows):
    """I(input; output) in bits for exact priors and channel rows."""
    n_out = len(rows[0])
    marg = [sum(p * r[j] for p, r in zip(priors, rows)) for j in range(n_out)]
    info = 0.0
    for p, r in zip(priors, rows):
        for j in range(n_out):
            if p * r[j]:
                info += float(p * r[j]) * math.log2(float(r[j]) / float(marg[j]))
    return info


def info_sweep(family, d, states, priors):
    """Best local mutual information over the closed-form classes."""
    best = None
    for cls in vertex_classes(family, d):
        rows = [[sum(c * x for c, x in zip(e, w)) for e in cls] for w in states]
        bits = mutual_information(priors, rows)
        if best is None or bits > best:
            best = bits
    return best


# ---------------------------------------------------------------------------
# pure-state sets

def check_state_set(blob):
    """sum_q w_q |q><q| / norm2 == 1 and sum_j amp_j^2 == 0 for every state."""
    d = int(blob["dim"])
    acc = [[(ZERO, ZERO)] * d for _ in range(d)]
    for st in blob["states"]:
        w, n2 = Fraction(st["weight"]), Fraction(st["norm2"])
        vec = [(Fraction(p[0]), Fraction(p[1])) for p in st["vec"]]
        sq = (ZERO, ZERO)
        for x in vec:
            sq = cadd(sq, cmul(x, x))
        if sq != (ZERO, ZERO):
            return "a state fails self-transpose orthogonality"
        for i in range(d):
            for j in range(d):
                xy = cmul(vec[i], (vec[j][0], -vec[j][1]))
                acc[i][j] = cadd(acc[i][j], (w * xy[0] / n2, w * xy[1] / n2))
    for i in range(d):
        for j in range(d):
            if acc[i][j] != (Fraction(int(i == j)), ZERO):
                return "the states do not resolve the identity"
    return None


# ---------------------------------------------------------------------------
# seeded generators

def random_distribution(rng, n, hi=6):
    raw = [rng.randint(0, hi) for _ in range(n)]
    if not any(raw):
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return tuple(Fraction(r, total) for r in raw)


def random_mixture(rng, family, d, n_outcomes, n_parts=3):
    """Convex mixture of ``n_parts`` distinct extremal POVMs (so feasible)."""
    verts = ordered_vertices(family, d, n_outcomes)
    picks = rng.sample(verts, min(n_parts, len(verts)))
    ws = [rng.randint(1, 6) for _ in picks]
    total = sum(ws)
    n = N_COEFFS[family]
    elems = []
    for k in range(n_outcomes):
        elems.append(tuple(sum(Fraction(w, total) * v[k][i] for w, v in zip(ws, picks))
                           for i in range(n)))
    return tuple(elems)


# Integer weights of the responses x and y of basis targets, two variants
# per outcome count.  The seed only permutes them, so a target's cost in
# exact arithmetic hardly depends on the seed: drawn weights made the
# median protocol latency move by 40 % from seed to seed.
BASIS_WEIGHTS = {
    1: (((1,), (1,)), ((1,), (1,))),
    2: (((1, 2), (3, 4)), ((0, 3), (1, 5))),
    3: (((1, 2, 3), (2, 3, 6)), ((0, 2, 5), (1, 1, 4))),
    4: (((1, 2, 3, 4), (1, 3, 4, 5)), ((0, 1, 4, 6), (0, 2, 2, 3))),
}


def _shuffled_distribution(rng, raw):
    raw = list(raw)
    rng.shuffle(raw)
    total = sum(raw)
    return tuple(Fraction(r, total) for r in raw)


def random_basis_target(rng, family, d, n_outcomes, variant=0):
    """Seeded feasible isotropic/werner POVM with its protocol responses.

    The responses are seeded permutations of ``BASIS_WEIGHTS[n_outcomes]``
    (variant 0 or 1).
    """
    x_raw, y_raw = BASIS_WEIGHTS[n_outcomes][variant]
    xs = _shuffled_distribution(rng, x_raw)
    ys = _shuffled_distribution(rng, y_raw)
    elems = tuple(point_mass_image(family, d, x, y) for x, y in zip(xs, ys))
    return elems, tuple(zip(xs, ys))


def reconstruct(weighted, n_coeffs, n_outcomes):
    """sum_w w * povm over [(povm element tuples, weight), ...]."""
    acc = [[ZERO] * n_coeffs for _ in range(n_outcomes)]
    for povm, w in weighted:
        for k, e in enumerate(povm):
            for i, c in enumerate(e):
                acc[k][i] += w * c
    return tuple(tuple(r) for r in acc)
