"""The cli-cold workload: one fresh ``python -m sympovm.cli`` per operation.

Inputs are written as JSON files into a work directory; each op knows the
exit code the documented CLI contract requires (0 success, 1 infeasible
or mismatch, 2 usage error) and checks stdout against the references.
An op whose exit code breaks the contract, or that ends in a traceback,
counts as failed.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import reference as R


class CliOp:
    __slots__ = ("name", "argv", "expect", "check")
    shape = ""

    def __init__(self, name, argv, expect, check):
        self.name, self.argv, self.expect, self.check = name, argv, expect, check

    def failed(self, raw):
        return raw.code != self.expect or b"Traceback" in raw.err

    def key(self, raw):
        return raw.code, raw.out


class CliResult:
    __slots__ = ("code", "out", "err", "maxrss_kb")

    def __init__(self, code, out, err, maxrss_kb):
        self.code, self.out, self.err, self.maxrss_kb = code, out, err, maxrss_kb


def launch(cmd, env, cwd, err_path):
    """Run one child to completion; returns its CliResult with peak RSS."""
    with open(err_path, "wb") as err_fh:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err_fh,
                                stdin=subprocess.DEVNULL, env=env, cwd=cwd)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as fh:
        err = fh.read()
    return CliResult(proc.returncode, out, err, usage.ru_maxrss)


def _frac_rows(elems):
    return [[str(c) for c in e] for e in elems]


def _povm_blob(family, d, elems):
    return {"family": family, "dim": d, "elements": _frac_rows(elems)}


def _load(raw):
    return json.loads(raw.out)


def _elements(blob):
    return tuple(tuple(Fraction(c) for c in e) for e in blob["elements"])


def build_ops(seed, workdir):
    """The op list for one seed; its input files are written into ``workdir``.

    The seed chooses the values in the input files.  Families, dimensions,
    outcome counts and the order of the ops are the same for every seed:
    seeded ones moved the time of a round by more than the values do.
    """
    rng, shapes = random.Random(seed), random.Random(0)
    ops = []

    def path(name, blob):
        p = os.path.join(workdir, name)
        with open(p, "w") as fh:
            json.dump(blob, fh)
        return p

    # basis
    fam, d = shapes.choice(("isotropic", "werner", "oo")), shapes.choice((2, 3))

    def check_basis(raw, fam=fam, d=d):
        blob = _load(raw)
        if tuple(blob["traces"]) != R.projector_traces(fam, d):
            return "projector traces differ"
        n = d * d
        total = [[Fraction(0)] * n for _ in range(n)]
        for p, t in zip(blob["projectors"], blob["traces"]):
            grid = R.parse_grid(p)
            if R.ctrace(grid) != (Fraction(t), Fraction(0)):
                return "a projector trace differs from its rank"
            for i in range(n):
                for j in range(n):
                    if grid[i][j][1]:
                        return "a commutant projector has a complex entry"
                    total[i][j] += grid[i][j][0]
        if any(total[i][j] != (i == j) for i in range(n) for j in range(n)):
            return "the projectors do not resolve the identity"
        return None
    ops.append(CliOp("basis", ["basis", "--family", fam, "--dim", str(d)], 0, check_basis))

    # vertices: oo 2-outcome by double description (CSV), bell by brute force
    d = shapes.choice((3, 4, 5))

    def check_oo_vertices(raw, d=d):
        rows = raw.out.decode().strip().splitlines()
        got = {tuple(Fraction(c) for c in r.split(",")[1:]) for r in rows[1:]}
        want = {v[0] for v in R.ordered_vertices("oo", d, 2)}
        return None if len(rows) == 9 and got == want else "oo vertices differ"
    ops.append(CliOp("vertices", ["vertices", "--family", "oo", "--dim", str(d),
                                  "--outcomes", "2", "--format", "csv"],
                     0, check_oo_vertices))

    def check_bell_brute(raw):
        blob = _load(raw)
        got = {tuple(Fraction(c) for c in v["coords"]) for v in blob["vertices"]}
        want = {v[0] for v in R.ordered_vertices("bell", 2, 2)}
        return None if blob["count"] == 8 and got == want else "bell vertices differ"
    ops.append(CliOp("vertices-brute", ["vertices", "--family", "bell", "--outcomes", "2",
                                        "--method", "brute"], 0, check_bell_brute))

    # extrema
    fam = shapes.choice(("isotropic", "werner", "oo"))
    d = shapes.choice((3, 4)) if fam == "oo" else shapes.choice((2, 3, 4))
    n_out = shapes.choice((2, 3, 4))

    def check_extrema(raw, fam=fam, d=d, n_out=n_out):
        blob = _load(raw)
        verts = R.ordered_vertices(fam, d, n_out)
        classes = {tuple(sorted(_elements(c))) for c in blob["classes"]}
        want = {tuple(sorted(v)) for v in verts}
        if blob["count"] != len(verts) or classes != want:
            return "extremal catalog differs"
        return None
    ops.append(CliOp("extrema", ["extrema", "--family", fam, "--dim", str(d),
                                 "--outcomes", str(n_out)], 0, check_extrema))

    # check: feasible, infeasible (negative coefficient), malformed "1/0"
    fam = shapes.choice(("isotropic", "werner", "bell", "oo"))
    d = 2 if fam == "bell" else shapes.choice((3, 4))
    elems = R.random_mixture(rng, fam, d, 3)
    good = path("good.json", _povm_blob(fam, d, elems))
    ops.append(CliOp("check-feasible", ["check", "--povm", good], 0,
                     lambda raw: None if _load(raw) == {"feasible": True, "violations": []}
                     else "feasible POVM rejected"))
    shift = elems[0][0] + Fraction(1, 5)
    bad_elems = ((elems[0][0] - shift,) + elems[0][1:],
                 (elems[1][0] + shift,) + elems[1][1:]) + elems[2:]
    bad = path("bad.json", _povm_blob(fam, d, bad_elems))

    def check_infeasible(raw):
        blob = _load(raw)
        labels = [v["label"] for v in blob["violations"]]
        if blob["feasible"] or ["pos", 0, 0] not in labels:
            return "negative coefficient not reported"
        return None
    ops.append(CliOp("check-infeasible", ["check", "--povm", bad], 1, check_infeasible))
    zero_div = path("zero-div.json", {"family": "isotropic", "dim": 2,
                                      "elements": [["1", "1/0"], ["0", "1"]]})
    ops.append(CliOp("check-zero-denominator", ["check", "--povm", zero_div], 2,
                     lambda raw: None if raw.err.strip() else "no error message"))

    # decompose
    fam = shapes.choice(("isotropic", "werner", "bell", "oo"))
    d = 2 if fam == "bell" else shapes.choice((3, 4))
    n_out = shapes.choice((2, 3))
    elems = R.random_mixture(rng, fam, d, n_out)
    verts = frozenset(R.ordered_vertices(fam, d, n_out))
    mix = path("mix.json", _povm_blob(fam, d, elems))

    def check_decompose(raw, fam=fam, elems=elems, verts=verts):
        blob = _load(raw)
        weighted = [(_elements(w["povm"]), Fraction(w["weight"])) for w in blob["weights"]]
        if not blob["decomposed"] or sum(w for _, w in weighted) != 1 or \
                any(w <= 0 or p not in verts for p, w in weighted):
            return "decomposition is not convex over the vertices"
        if R.reconstruct(weighted, R.N_COEFFS[fam], len(elems)) != elems:
            return "decomposition does not reconstruct"
        return None
    ops.append(CliOp("decompose", ["decompose", "--povm", mix], 0, check_decompose))

    # protocol-synth: a feasible target, and a PPT-violating one (exit 1 documented)
    fam = shapes.choice(("isotropic", "werner"))
    d = shapes.choice((2, 3, 4))
    elems, xy = R.random_basis_target(rng, fam, d, shapes.choice((2, 3)))
    target = path("target.json", _povm_blob(fam, d, elems))

    def check_synth(raw, elems=elems):
        blob = _load(raw)
        return None if R.protocol_coeffs(blob) == list(elems) else \
            "synthesised protocol misses the target"
    ops.append(CliOp("protocol-synth", ["protocol-synth", "--family", fam, "--dim", str(d),
                                        "--target", target], 0, check_synth))
    ppt = path("ppt-violating.json", {"family": "isotropic", "dim": 2,
                                      "elements": [["1", "0"], ["0", "1"]]})
    ops.append(CliOp("protocol-synth-infeasible",
                     ["protocol-synth", "--family", "isotropic", "--dim", "2",
                      "--target", ppt], 1,
                     lambda raw: None if re.search(rb"outcome\W*0\b", raw.out)
                     else "violated outcome 0 not named on stdout"))

    # protocol-verify on a protocol file written from the closed form
    proto = path("protocol.json", R.basis_protocol_json(fam, d, xy))
    ops.append(CliOp("protocol-verify", ["protocol-verify", "--protocol", proto,
                                         "--target", target], 0,
                     lambda raw: None if _load(raw)["ok"] else "protocol rejected"))

    # state-set
    d = shapes.choice((3, 4, 5))

    def check_states(raw, d=d):
        blob = _load(raw)
        want = d if d % 2 == 0 else d - 3 + 24
        if len(blob["states"]) != want:
            return "wrong number of states"
        return R.check_state_set(blob)
    ops.append(CliOp("state-set", ["state-set", "--dim", str(d)], 0, check_states))

    # discriminate: local bayes, local info, global with a cost matrix
    fam = shapes.choice(("isotropic", "werner", "oo"))
    d = shapes.choice((3, 4)) if fam == "oo" else shapes.choice((2, 3, 4))
    n = R.N_COEFFS[fam]
    states = [R.random_distribution(rng, n) for _ in range(3)]
    priors = R.random_distribution(rng, 3, hi=4)
    cost = [[Fraction(rng.randint(0, 3)) for _ in range(3)] for _ in range(3)]
    sfile = path("states.json", {"family": fam, "dim": d, "states": _frac_rows(states)})
    cfile = path("cost.json", _frac_rows(cost))
    prior_arg = ",".join(str(p) for p in priors)

    def check_bayes(raw, fam=fam, d=d, states=states, priors=priors):
        v = Fraction(_load(raw)["value"])
        want = R.bayes_sweep(fam, d, states, priors)
        if v != want or v > R.global_value(states, priors):
            return f"local bayes {v} != {want}"
        return None

    def check_info(raw, fam=fam, d=d, states=states, priors=priors):
        v = _load(raw)["value"]
        return None if abs(v - R.info_sweep(fam, d, states, priors)) <= 1e-9 else \
            "local info differs"

    def check_global(raw, states=states, priors=priors, cost=cost):
        v = Fraction(_load(raw)["value"])
        return None if v == R.global_value(states, priors, cost) else "global cost differs"

    for name, cost_arg, mode, check in (("bayes", "bayes", "local", check_bayes),
                                        ("info", "info", "local", check_info),
                                        ("global", cfile, "global", check_global)):
        ops.append(CliOp(f"discriminate-{name}",
                         ["discriminate", "--states", sfile, "--priors", prior_arg,
                          "--cost", cost_arg, "--mode", mode], 0, check))

    # nogo sanity run on the isotropic family
    d = shapes.choice((2, 3, 4))
    known = [["1", "0"], [str(Fraction(1, d + 1)), str(Fraction(d, d + 1))]]

    def check_nogo(raw, known=known):
        blob = _load(raw)
        return None if blob["verdict"] == "feasible" and known in blob["transforms"] \
            else "known isotropic transform not recovered"
    ops.append(CliOp("nogo-isotropic", ["nogo", "--family", "isotropic", "--dim", str(d),
                                        "--json"], 0, check_nogo))
    shapes.shuffle(ops)
    return ops


class CliRunner:
    """Launches CLI children from the checkout root, traced or not."""

    def __init__(self, root, workdir, tracer=None):
        self.root, self.workdir, self.tracer = root, workdir, tracer
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.err_path = os.path.join(workdir, "stderr.txt")
        self.spans_path = os.path.join(workdir, "spans.json")
        self.runner = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "cli_runner.py")

    def __call__(self, op):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "sympovm.cli"] + op.argv
            return launch(cmd, self.env, self.root, self.err_path)
        cmd = [sys.executable, self.runner, self.spans_path] + op.argv
        res = launch(cmd, self.env, self.root, self.err_path)
        with open(self.spans_path) as fh:
            self.tracer.adopt(json.load(fh)["spans"])
        os.remove(self.spans_path)
        return res

