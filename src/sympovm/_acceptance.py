"""Executable acceptance checks shared by the test suite and `repro`.

Every check returns (ok, detail).  All comparisons are exact unless a
stated float tolerance applies (mutual information values only).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from ._exactlin import mat_mul
from .discrimination import (
    DiscriminationProblem,
    StateCoeffs,
    global_optimal,
    optimal_local_bayes,
    optimal_local_info,
)
from .extremal import (
    brute_force_vertices,
    catalog_classes,
    catalog_extrema,
    enumerate_vertices,
    is_extremal,
    oo_three_outcome_elements,
    oo_two_outcome_elements,
    pair_classes,
)
from .feasible import (
    SymPovm,
    build_feasible_polytope,
    convex_decompose,
    is_feasible,
    povm_from_coords,
)
from .nogo import isotropic_sanity_search, naive_transform_search
from .operators import (
    CR0,
    BipartiteOperator,
    CRat,
    is_psd,
    kraus_from_separable_form,
    partial_transpose,
)
from .protocols import (
    build_pure_state_set,
    isotropic_protocol,
    protocol_for_vertex,
    verify_protocol,
    werner_protocol,
)
from .symmetry import (
    CoeffVector,
    coeff_to_operator,
    kind,
    pt_coefficient_map,
    twirl_coefficients,
)

# ---------------------------------------------------------------------------
# seeded corpora

def random_fraction(rng, lo=0, hi=1, den=12) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_coeff_vector(rng, k, lo=-1, hi=2) -> CoeffVector:
    return CoeffVector(k, tuple(random_fraction(rng, lo, hi)
                                for _ in range(k.n_coeffs)))


def random_distribution(rng, n):
    raw = [Fraction(rng.randint(0, 12)) for _ in range(n)]
    if not any(raw):
        raw[rng.randrange(n)] = Fraction(1)
    total = sum(raw)
    return [r / total for r in raw]


def random_feasible_povm(rng, catalog) -> SymPovm:
    """Random convex combination of the vertices of a catalog_extrema
    VertexSet (hence feasible)."""
    weights = random_distribution(rng, len(catalog.points))
    coords = [Fraction(0)] * len(catalog.points[0])
    for w, x in zip(weights, catalog.points):
        for i, c in enumerate(x):
            coords[i] += w * c
    return povm_from_coords(catalog.kind, catalog.n_outcomes, coords)


def random_feasible_target(rng, k, n_outcomes) -> SymPovm:
    """Random feasible isotropic/werner POVM: outcome j is x_j v1 + y_j v2
    for random distributions x, y and the class table's pair (v1, v2), the
    images of the protocol's point masses."""
    ((v1, v2),) = pair_classes(k)
    xs = random_distribution(rng, n_outcomes)
    ys = random_distribution(rng, n_outcomes)
    return SymPovm(k, tuple(CoeffVector(k, tuple(x * a + y * b for a, b in zip(v1, v2)))
                            for x, y in zip(xs, ys)))


def random_hermitian(rng, d, den=7) -> BipartiteOperator:
    n = d * d
    grid = [[CR0] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = CRat(Fraction(rng.randint(-den, den), den))
        for j in range(i + 1, n):
            re = Fraction(rng.randint(-den, den), den)
            im = Fraction(rng.randint(-den, den), den)
            grid[i][j] = CRat(re, im)
            grid[j][i] = CRat(re, -im)
    return BipartiteOperator(d, grid)


# ---------------------------------------------------------------------------
# criteria

def criterion_1_oo_two_outcome(seed=0):
    """oo 2-outcome vertex enumeration matches the closed-form catalog, d=3..6."""
    for d in (3, 4, 5, 6):
        k = kind("oo", d)
        t0 = time.time()
        vs = enumerate_vertices(build_feasible_polytope(k, 2))
        elapsed = time.time() - t0
        expect = frozenset(oo_two_outcome_elements(d).values())
        if vs.coords_set() != expect or len(vs.points) != 8:
            return False, f"d={d}: vertex set mismatch"
        if elapsed > 1.0:
            return False, f"d={d}: took {elapsed:.2f}s (> 1s)"
    return True, "8 formula vertices, exact set equality, d=3..6"


def criterion_2_oo_three_outcome(seed=0):
    """oo 3-outcome enumeration: the unique genuine triple, d=3..5."""
    for d in (3, 4, 5):
        k = kind("oo", d)
        t0 = time.time()
        env = enumerate_vertices(build_feasible_polytope(k, 3))
        elapsed = time.time() - t0
        if elapsed > 30.0:
            return False, f"d={d}: took {elapsed:.1f}s (> 30s)"
        cat = catalog_extrema(k, 3)
        if env.povm_keys() != cat.povm_keys():
            return False, f"d={d}: catalog mismatch"
        triples = [p for p, _ in env.canonical_classes()
                   if len(p.nonzero_elements()) == 3]
        want = SymPovm(k, tuple(CoeffVector(k, c)
                                for c in oo_three_outcome_elements(d))).canonical()
        if len(triples) != 1 or triples[0].elements != want.elements:
            return False, f"d={d}: genuine 3-outcome classes {len(triples)} != 1"
    return True, "unique genuine triple matches the closed form, d=3..5"


def criterion_3_bell_enumeration(seed=0):
    """Bell N=2,3 double-description vs brute force; N=4 structure."""
    k = kind("bell", 2)
    for n in (2, 3):
        poly = build_feasible_polytope(k, n)
        dd = enumerate_vertices(poly)
        bf = brute_force_vertices(poly)
        if dd.coords_set() != bf.coords_set():
            return False, f"N={n}: double description != brute force"
        if dd.povm_keys() != catalog_extrema(k, n).povm_keys():
            return False, f"N={n}: catalog mismatch"
    env = enumerate_vertices(build_feasible_polytope(k, 4))
    worst = max(len(p.nonzero_elements()) for p in env.ordered_povms())
    if worst > 2:
        return False, f"N=4: found a vertex with {worst} nonzero outcomes"
    if env.povm_keys() != catalog_extrema(k, 4).povm_keys():
        return False, "N=4: catalog mismatch"
    return True, "N=2,3 oracle agreement; N=4 equals catalog, <=2 nonzero outcomes"


def _dense_route_agrees(proto, report):
    """The dense oracle of verify_protocol: twirl each built outcome operator,
    rebuild it from one Kraus pair per term, and sum the outcomes to test
    completeness."""
    d = proto.kind.dim
    total = BipartiteOperator.zeros(d)
    for i, terms in enumerate(proto.outcomes):
        op = proto.outcome_operator(i)
        if twirl_coefficients(op, proto.kind) != proto.outcome_coefficients(i):
            return False
        pairs = kraus_from_separable_form((t.weight, t.a_factor, t.b_factor) for t in terms)
        if sum((p.element() for p in pairs), BipartiteOperator.zeros(d)) != op:
            return False
        total = total + op
    return (total == BipartiteOperator.identity(d)) == report.complete


def criterion_4_protocol_exactness(seed=0):
    """1000 random feasible targets per family verify exactly; catalogs too.

    Every bell and oo catalog protocol, and the first random target of each
    (family, d), is also checked against the dense route.
    """
    rng = random.Random(seed)
    for fam, synth in (("isotropic", isotropic_protocol), ("werner", werner_protocol)):
        for d in (2, 3, 4, 5):
            k = kind(fam, d)
            for i in range(250):
                target = random_feasible_target(rng, k, rng.randint(1, 4))
                proto = synth(target)
                report = verify_protocol(proto, target)
                if not report.ok:
                    return False, f"{fam} d={d}: random target failed"
                if i == 0 and not _dense_route_agrees(proto, report):
                    return False, f"{fam} d={d}: dense twirl disagrees"
    k = kind("bell", 2)
    for n in (2, 3, 4):
        for povm in catalog_classes(k, n):
            proto = protocol_for_vertex(povm)
            report = verify_protocol(proto, povm)
            if not report.ok:
                return False, f"bell N={n}: catalog protocol failed"
            if not _dense_route_agrees(proto, report):
                return False, f"bell N={n}: dense twirl disagrees"
    for d in (3, 4, 5):
        k = kind("oo", d)
        states = build_pure_state_set(d)
        for n in (2, 3):
            for povm in catalog_classes(k, n):
                proto = protocol_for_vertex(povm, states)
                report = verify_protocol(proto, povm)
                if not report.ok:
                    return False, f"oo d={d} N={n}: catalog protocol failed"
                if not _dense_route_agrees(proto, report):
                    return False, f"oo d={d} N={n}: dense twirl disagrees"
    return True, "2000 random targets + all bell/oo catalog entries verify exactly"


def criterion_5_pure_state_sets(seed=0):
    """Identity resolution and self-transpose orthogonality, d=2..6."""
    from .operators import mat_add, mat_eye, mat_scale

    for d in range(2, 7):
        s = build_pure_state_set(d)
        acc = [[CR0] * d for _ in range(d)]
        for st in s.states:
            if sum((x * x for x in st.vec), CR0):
                return False, f"d={d}: amplitude squares do not cancel"
            acc = mat_add(acc, mat_scale(st.weight, st.projector))
        if acc != mat_eye(d):
            return False, f"d={d}: identity resolution fails"
    return True, "sum w|q><q| = 1 and sum amp^2 = 0 exactly, d=2..6"


def criterion_6_pt_structure(seed=0):
    """PT involutions, coefficient-vs-operator PT positivity, Bell halfspaces."""
    for d in range(2, 9):
        r = pt_coefficient_map(kind("oo", d)).matrix
        sq = mat_mul(r, r)
        if any(sq[i][j] != (1 if i == j else 0) for i in range(3) for j in range(3)):
            return False, f"oo d={d}: R^2 != 1"
    for d in range(2, 7):
        fwd = pt_coefficient_map(kind("isotropic", d))
        back = pt_coefficient_map(kind("werner", d))
        for first, second in ((fwd, back), (back, fwd)):
            comp = second.compose(first).matrix
            if any(comp[i][j] != (1 if i == j else 0) for i in range(2) for j in range(2)):
                return False, f"d={d}: isotropic/werner maps do not invert each other"
    r = pt_coefficient_map(kind("bell", 2)).matrix
    sq = mat_mul(r, r)
    if any(sq[i][j] != (1 if i == j else 0) for i in range(4) for j in range(4)):
        return False, "bell: PT map squared != 1"

    rng = random.Random(seed)
    cases = [("bell", (2,), 1000), ("isotropic", (2, 3), 500),
             ("werner", (2, 3), 500), ("oo", (2, 3), 500)]
    for fam, dims, per in cases:
        for d in dims:
            k = kind(fam, d)
            ptm = pt_coefficient_map(k)
            for _ in range(per):
                v = random_coeff_vector(rng, k)
                coeff_ok = ptm.apply(v).is_nonneg()
                op_ok = is_psd(partial_transpose(coeff_to_operator(v)))
                if coeff_ok != op_ok:
                    return False, f"{fam} d={d}: coefficient/operator PT disagree on {v.coeffs}"

    half = Fraction(1, 2)
    rows = frozenset(pt_coefficient_map(kind("bell", 2)).matrix)
    want = frozenset({(half, half, half, -half), (half, half, -half, half),
                      (half, -half, half, half), (-half, half, half, half)})
    if rows != want:
        return False, "bell PT halfspaces differ from the two absolute-value conditions"
    return True, "involutions d<=8, 3000 positivity equivalences, exact halfspace match"


def criterion_7_nogo(seed=0):
    """No-go certificates for d=3..6; isotropic sanity inversion."""
    for d in (3, 4, 5, 6):
        t0 = time.time()
        cert = naive_transform_search(d)
        elapsed = time.time() - t0
        vm = [c for c in cert.cases if c.route == "vertex-matching"]
        ur = [c for c in cert.cases if c.route == "unit-rows"]
        if cert.verdict != "infeasible" or len(vm) != 48 or len(ur) != 216:
            return False, f"d={d}: verdict {cert.verdict}, {len(vm)}+{len(ur)} cases"
        if any(c.feasible for c in cert.cases):
            return False, f"d={d}: a case unexpectedly succeeded"
        if any(c.route == "unit-rows" and not c.certificate for c in cert.cases):
            return False, f"d={d}: an LP case lacks a certificate"
        if elapsed > 10.0:
            return False, f"d={d}: took {elapsed:.1f}s (> 10s)"
    for d in (2, 3, 4):
        cert = isotropic_sanity_search(d)
        if cert.verdict != "feasible" or len(cert.transforms) != 2:
            return False, f"isotropic d={d}: sanity search failed"
        want = ((Fraction(1), Fraction(0)),
                (Fraction(1, d + 1), Fraction(d, d + 1)))
        if want not in cert.transforms:
            return False, f"isotropic d={d}: known transform not recovered"
        from .nogo import recovered_protocol_map

        inv = recovered_protocol_map(cert)[cert.transforms.index(want)]
        if inv != ((Fraction(1), Fraction(0)),
                   (Fraction(-1, d), Fraction(d + 1, d))):
            return False, f"isotropic d={d}: inverse map mismatch"
    return True, "all 48+216 cases fail for d=3..6; isotropic inversion recovered"


def criterion_8_discrimination(seed=0):
    """Canonical local-vs-global discrimination values."""
    kb = kind("bell", 2)
    bell_states = [StateCoeffs(kb, tuple(Fraction(int(i == j)) for i in range(4)))
                   for j in range(4)]
    quarter = Fraction(1, 4)
    prob = DiscriminationProblem(bell_states, [quarter] * 4)
    r = optimal_local_bayes(prob)
    if r.value != Fraction(1, 2) or r.lp_value != r.sweep_value:
        return False, f"bell local bayes {r.value} != 1/2"
    info = optimal_local_info(prob)
    if abs(info.bits - 1.0) > 1e-9:
        return False, f"bell local info {info.bits} != 1.0"
    if global_optimal(prob) != 1:
        return False, "bell global bayes != 1"
    gi = global_optimal(DiscriminationProblem(bell_states, [quarter] * 4, cost="info"))
    if abs(gi - 2.0) > 1e-9:
        return False, f"bell global info {gi} != 2.0"
    ki = kind("isotropic", 2)
    pair = DiscriminationProblem([StateCoeffs(ki, (1, 0)), StateCoeffs(ki, (0, 1))],
                                 [Fraction(1, 2)] * 2)
    r2 = optimal_local_bayes(pair)
    if r2.value != Fraction(5, 6) or r2.lp_value != r2.sweep_value:
        return False, f"isotropic pair local bayes {r2.value} != 5/6"
    return True, "bayes 1/2 and 5/6, info 1.0 vs 2.0 bits, LP == sweep"


def criterion_9_property_suites(seed=0):
    """Involution, twirl round-trip, decomposition and extremality corpora."""
    rng = random.Random(seed)
    from .symmetry import twirl_coefficients

    for _ in range(200):
        d = rng.choice((2, 3))
        m = random_hermitian(rng, d)
        if partial_transpose(partial_transpose(m)) != m:
            return False, "partial transpose is not an involution"
    for fam, d in (("isotropic", 3), ("werner", 3), ("bell", 2), ("oo", 3)):
        k = kind(fam, d)
        for _ in range(200):
            v = random_coeff_vector(rng, k)
            if twirl_coefficients(coeff_to_operator(v), k) != v:
                return False, f"{fam}: twirl round-trip failed"

    plans = [("isotropic", 2, 2), ("werner", 2, 2), ("bell", 2, 4), ("oo", 3, 3)]
    for fam, d, n in plans:
        k = kind(fam, d)
        catalog = catalog_extrema(k, n)
        for _ in range(1000):
            p = random_feasible_povm(rng, catalog)
            if not is_feasible(p).feasible:
                return False, f"{fam}: sampled POVM infeasible"
            res = convex_decompose(p, catalog)
            if not res.decomposed:
                return False, f"{fam}: decomposition failed"
            coords = [Fraction(0)] * (k.n_coeffs * n)
            for povm, w in res.weights:
                for i, c in enumerate(povm.coords()):
                    coords[i] += w * c
            if tuple(coords) != p.coords():
                return False, f"{fam}: decomposition does not reconstruct"
        verts = catalog.ordered_povms()
        for povm, _ in catalog.canonical_classes():
            if not is_extremal(povm).extremal:
                return False, f"{fam}: catalog vertex not extremal"
        for _ in range(1000):
            i, j = rng.sample(range(len(verts)), 2)
            lam = Fraction(rng.randint(1, 11), 12)
            coords = tuple(lam * a + (1 - lam) * b
                           for a, b in zip(verts[i].coords(), verts[j].coords()))
            mix = povm_from_coords(k, n, coords)
            rep = is_extremal(mix)
            if rep.extremal:
                return False, f"{fam}: strict mixture reported extremal"
            plus = [a + b for a, b in zip(coords, rep.perturbation.coords())]
            minus = [a - b for a, b in zip(coords, rep.perturbation.coords())]
            if not is_feasible(povm_from_coords(k, n, plus)).feasible or \
                    not is_feasible(povm_from_coords(k, n, minus)).feasible:
                return False, f"{fam}: perturbation witness is not feasible"
    return True, "involution, twirl round-trips, 4000 decompositions, 4000 mixtures"


CRITERIA = (
    ("oo-2-outcome-vertices", criterion_1_oo_two_outcome),
    ("oo-3-outcome-triple", criterion_2_oo_three_outcome),
    ("bell-vertex-enumeration", criterion_3_bell_enumeration),
    ("protocol-exactness", criterion_4_protocol_exactness),
    ("pure-state-sets", criterion_5_pure_state_sets),
    ("pt-structure", criterion_6_pt_structure),
    ("nogo-certificates", criterion_7_nogo),
    ("discrimination-values", criterion_8_discrimination),
    ("property-suites", criterion_9_property_suites),
)


def run_all(seed=0):
    """Run every acceptance criterion with ``seed``; returns result dicts."""
    results = []
    for name, fn in CRITERIA:
        t0 = time.time()
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append({"criterion": name, "ok": ok, "detail": detail,
                        "seconds": round(time.time() - t0, 2)})
    return results
