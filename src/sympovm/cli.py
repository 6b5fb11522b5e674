"""Command-line interface.

Exit codes: 0 = success / verified, 1 = infeasible or mismatch (a
certificate is printed) or a failed internal cross-check (a RuntimeError
such as "LP optimum != catalog sweep" or an unbounded LP, reported on one
"error:" line of stderr), 2 = usage error.  Rational values serialise as
"p/q" strings so output is byte-identical across runs for fixed flags
and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .discrimination import (
    DiscriminationProblem,
    StateCoeffs,
    global_optimal,
    optimal_local_bayes,
    optimal_local_info,
    outcome_distribution,
)
from .extremal import (
    brute_force_vertices,
    catalog_extrema,
    enumerate_vertices,
    vertex_polytope,
)
from .feasible import SymPovm, convex_decompose, is_feasible
from .operators import json_list, json_object, parse_fraction
from .nogo import isotropic_sanity_search, naive_transform_search
from .protocols import (
    InfeasibleTargetError,
    LocalProtocol,
    bell_protocol,
    build_pure_state_set,
    isotropic_protocol,
    oo_protocol,
    verify_protocol,
    werner_protocol,
)
from .symmetry import CoeffVector, basis_traces, commutant_basis, kind, kind_from_json


def _print_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read(path, parse):
    """parse(JSON of path); bad JSON, a wrong shape or a bad value is an error
    naming the file."""
    try:
        return parse(_load_json(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _bounded(build, k, n_outcomes, where):
    """build(k, n_outcomes), a catalog or a polytope to enumerate; one over
    its size bound is an error naming where the outcome count came from."""
    try:
        return build(k, n_outcomes)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _family_kind(args):
    return kind(args.family, args.dim)


# The most exact scalars a dense command may hold: basis keeps n projector
# grids of d^4 entries, state-set and protocol-synth about d local d x d
# grids.  Every other command works on coefficient vectors and takes any dim.
MAX_DENSE_ENTRIES = 2 ** 15


def _dense_guard(d, entries):
    if entries > MAX_DENSE_ENTRIES:
        raise ValueError(f"dim {d} is too large for a dense build: about {entries} "
                         f"exact entries, over the bound of {MAX_DENSE_ENTRIES}")


def _csv_rows(rows):
    for row in rows:
        print(",".join(str(x) for x in row))


def cmd_basis(args):
    k = _family_kind(args)
    _dense_guard(k.dim, k.n_coeffs * k.dim ** 4)
    basis = commutant_basis(k)
    traces = basis_traces(k)
    if args.format == "csv":
        _csv_rows([("index", "trace")] + list(enumerate(traces)))
    else:
        _print_json({"family": k.family.value, "dim": k.dim,
                     "traces": list(traces),
                     "projectors": [p.to_json() for p in basis.projectors]})
    return 0


def cmd_check(args):
    povm = _read(args.povm, SymPovm.from_json)
    report = is_feasible(povm)
    _print_json({"feasible": report.feasible,
                 "violations": [{"label": list(l), "value": str(v)}
                                for l, v in report.violations]})
    return 0 if report.feasible else 1


def _vertex_output(vs, fmt):
    if fmt == "csv":
        header = ["vertex"] + [f"c{i}" for i in range(len(vs.points[0]))]
        _csv_rows([tuple(header)] +
                  [(i,) + tuple(str(c) for c in coords)
                   for i, coords in enumerate(vs.points)])
    else:
        _print_json(vs.to_json())


def cmd_vertices(args):
    poly = _bounded(vertex_polytope, _family_kind(args), args.outcomes, "--outcomes")
    vs = brute_force_vertices(poly) if args.method == "brute" else \
        enumerate_vertices(poly)
    _vertex_output(vs, args.format)
    return 0


def cmd_extrema(args):
    vs = _bounded(catalog_extrema, _family_kind(args), args.outcomes, "--outcomes")
    if args.format == "csv":
        rows = [("class", "multiplicity", "elements")]
        for i, (povm, mult) in enumerate(vs.canonical_classes()):
            elems = ";".join("|".join(str(c) for c in e.coeffs)
                             for e in povm.elements)
            rows.append((i, mult, elems))
        _csv_rows(rows)
    else:
        _print_json(vs.to_json())
    return 0


def cmd_decompose(args):
    povm = _read(args.povm, SymPovm.from_json)
    catalog = _bounded(catalog_extrema, povm.kind, povm.n_outcomes, args.povm)
    res = convex_decompose(povm, catalog)
    if res.decomposed:
        _print_json({"decomposed": True,
                     "weights": [{"weight": str(w), "povm": p.to_json()}
                                 for p, w in res.weights]})
        return 0
    _print_json({"decomposed": False,
                 "certificate": [{"label": list(l), "coeff": str(c)}
                                 for l, c in res.certificate]})
    return 1


def cmd_protocol_synth(args):
    k = kind(args.family, args.dim)
    if k.family.value in ("isotropic", "werner"):
        if not args.target:
            raise ValueError("--target is required for isotropic/werner synthesis")
        target = _read(args.target, SymPovm.from_json)
        _dense_guard(target.kind.dim, target.kind.dim ** 3)
        try:
            proto = isotropic_protocol(target) if k.family.value == "isotropic" \
                else werner_protocol(target)
        except InfeasibleTargetError as exc:  # a real infeasibility, not bad input
            _print_json({"outcome": exc.outcome, "coefficient": str(exc.coefficient),
                         "message": str(exc)})
            return 1
    elif k.family.value == "bell":
        if args.extremum_index is None:
            raise ValueError("--extremum-index is required for bell synthesis")
        proto = bell_protocol(args.extremum_index)
    else:
        if not args.extremum:
            raise ValueError("--extremum (A|B|C|D|triple) is required for oo synthesis")
        _dense_guard(k.dim, k.dim ** 3)
        proto = oo_protocol(args.extremum, args.dim)
    _print_json(proto.to_json())
    return 0


def cmd_protocol_verify(args):
    if not 0 <= args.eps < float("inf"):
        raise ValueError(f"--eps: expected a finite number >= 0, got {args.eps}")
    proto = _read(args.protocol, LocalProtocol.from_json)
    target = _read(args.target, SymPovm.from_json)
    report = verify_protocol(proto, target, eps=args.eps)
    _print_json(report.to_json())
    return 0 if report.ok else 1


def cmd_state_set(args):
    _dense_guard(args.dim, args.dim ** 3)
    _print_json(build_pure_state_set(args.dim).to_json())
    return 0


def cmd_nogo(args):
    cert = isotropic_sanity_search(args.dim) if args.family == "isotropic" \
        else naive_transform_search(args.dim)
    if args.json:
        _print_json(cert.to_json())
    else:
        failing = sum(1 for c in cert.cases if not c.feasible)
        print(f"family={cert.family} d={cert.dim} verdict={cert.verdict} "
              f"({failing}/{len(cert.cases)} cases infeasible)")
    if args.family == "isotropic":
        return 0 if cert.verdict == "feasible" else 1
    return 0 if cert.verdict == "infeasible" else 1


def _parse_priors(text, n):
    priors = [parse_fraction(p, "--priors") for p in text.split(",")] if text else \
        [Fraction(1, n)] * n
    return priors


def _fraction_rows(rows, where):
    return [[parse_fraction(x, f"{where}[{i}][{j}]") for j, x in
             enumerate(json_list(row, f"{where}[{i}]"))]
            for i, row in enumerate(json_list(rows, where))]


def _states_from_json(blob):
    json_object(blob, "family", "dim", "states")
    k = kind_from_json(blob)
    rows = _fraction_rows(blob["states"], "states")
    if not rows:
        raise ValueError("states: expected at least one state")
    return [StateCoeffs(k, tuple(row)) for row in rows]


def cmd_discriminate(args):
    states = _read(args.states, _states_from_json)
    priors = _parse_priors(args.priors, len(states))
    cost = args.cost
    if cost not in ("bayes", "info"):
        cost = _read(cost, lambda blob: _fraction_rows(blob, "cost"))
    problem = DiscriminationProblem(states, priors, cost)
    if args.mode == "global":
        value = global_optimal(problem)
        # the optimal global measurement resolves the commutant blocks,
        # which is itself an invariant (generally non-PPT) POVM
        k = problem.kind
        n = k.n_coeffs
        blocks = SymPovm(k, tuple(
            CoeffVector(k, tuple(Fraction(int(i == j)) for j in range(n)))
            for i in range(n)))
        _print_json({"mode": "global",
                     "value": float(value) if problem.cost == "info" else str(value),
                     "optimal_povm": blocks.to_json(),
                     "channel": [[str(w) for w in s.weights] for s in states]})
        return 0
    if problem.cost == "info":
        res = optimal_local_info(problem)
        _print_json({"mode": "local", "value": res.bits,
                     "optimal_povm": res.povm.to_json(),
                     "channel": [[str(x) for x in row] for row in res.channel]})
        return 0
    res = optimal_local_bayes(problem)
    channel = [[str(x) for x in outcome_distribution(res.povm, s)]
               for s in problem.states]
    _print_json({"mode": "local", "value": str(res.value),
                 "optimal_povm": res.povm.to_json(), "channel": channel})
    return 0


def cmd_repro(args):
    from . import _acceptance  # only repro needs it
    results = _acceptance.run_all(seed=args.seed)
    for r in results:
        status = "PASS" if r["ok"] else "FAIL"
        print(f"[{status}] {r['criterion']} ({r['seconds']}s): {r['detail']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
    return 0 if all(r["ok"] for r in results) else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="sympovm",
        description="Exact toolkit for symmetry-invariant bipartite POVMs")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    shared = dict(family=lambda sp: sp.add_argument(
        "--family", required=True,
        choices=["isotropic", "werner", "bell", "oo"]),
        dim=lambda sp, req=False: sp.add_argument(
            "--dim", type=int, default=2, required=req),
        outcomes=lambda sp: sp.add_argument("--outcomes", type=int, required=True),
        fmt=lambda sp: sp.add_argument("--format", choices=["json", "csv"],
                                       default="json"))

    sp = add("basis", cmd_basis, help="print a commutant projector basis")
    shared["family"](sp); shared["dim"](sp); shared["fmt"](sp)

    sp = add("check", cmd_check, help="feasibility of a POVM file")
    sp.add_argument("--povm", required=True)

    sp = add("vertices", cmd_vertices, help="enumerate feasible-polytope vertices")
    shared["family"](sp); shared["dim"](sp); shared["outcomes"](sp); shared["fmt"](sp)
    sp.add_argument("--method", choices=["dd", "brute"], default="dd")

    sp = add("extrema", cmd_extrema, help="closed-form extremal catalog")
    shared["family"](sp); shared["dim"](sp); shared["outcomes"](sp); shared["fmt"](sp)

    sp = add("decompose", cmd_decompose,
             help="convex decomposition over the extremal catalog")
    sp.add_argument("--povm", required=True)

    sp = add("protocol-synth", cmd_protocol_synth, help="synthesise a local protocol")
    shared["family"](sp); shared["dim"](sp)
    sp.add_argument("--target", help="target POVM JSON (isotropic/werner)")
    sp.add_argument("--extremum", help="oo extremum id: A|B|C|D|triple")
    sp.add_argument("--extremum-index", type=int,
                    help="bell catalog class index")

    sp = add("protocol-verify", cmd_protocol_verify,
             help="verify a protocol against a target POVM")
    sp.add_argument("--protocol", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--eps", type=float, default=1e-9)

    sp = add("state-set", cmd_state_set, help="pure-state set resolving the identity")
    sp.add_argument("--dim", type=int, required=True)

    sp = add("nogo", cmd_nogo, help="impossibility certificate for product-form protocols")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--family", choices=["oo", "isotropic"], default="oo")
    sp.add_argument("--json", action="store_true")

    sp = add("discriminate", cmd_discriminate, help="optimal state discrimination")
    sp.add_argument("--states", required=True)
    sp.add_argument("--priors", default="")
    sp.add_argument("--cost", default="bayes",
                    help="'bayes', 'info', or a cost-matrix JSON path")
    sp.add_argument("--mode", choices=["local", "global"], default="local")

    sp = add("repro", cmd_repro, help="run the full acceptance suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write the JSON report here")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed cross-check is a real mismatch
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
