#!/usr/bin/env python3
"""The sympovm benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: catalog-queries, protocol-verify, certificates, cli-cold (see
README.md).  Each is a fixed, seeded list of operations driven as a
closed loop: one caller, each operation starting when the previous one
ends.  After set-up (imports, input generation, one warm-up op per input
shape) the list is repeated in whole rounds until S seconds of round time
have passed.  The first round is checked against the independent
references in ``reference.py``; every later round must reproduce it
exactly.  The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (ops_per_s,
op_p50_ms, setup_s, peak_rss_mb); with ``--trace 1`` they are the
per-layer span metrics, normalised to one process with one timed round
(set-up spans count once, timed spans are divided by the round count).
The result and the spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import time

START = time.monotonic()  # set-up is timed from here, before any other import

import argparse
import json
import os
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("catalog-queries", "protocol-verify", "certificates", "cli-cold")


def import_program():
    """Import sympovm from this checkout's src/, and only from there."""
    sys.path.insert(0, SRC)
    import sympovm

    if not os.path.abspath(sympovm.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: sympovm imported from {sympovm.__file__}, not {SRC}")


class WorkloadRun:
    """Set-up state of one benchmark process."""

    def __init__(self, workload, seed, tracer):
        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.workdir = os.path.join(OUT, f"work-{os.getpid()}")
        self.errors = []       # check failures: the run is not correct
        self.failures = []     # failed operations, for the log
        self.ref_keys = {}     # op index -> key every later run must match

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        if self.workload == "cli-cold":
            import cliwork

            self.ops = cliwork.build_ops(self.seed, self.workdir)
            self.execute = cliwork.CliRunner(ROOT, self.workdir, self.tracer)
            warm = self.ops
        else:
            import_program()
            if self.tracer is not None:
                self.tracer.install()
            import workloads

            warm, self.ops = workloads.BUILDERS[self.workload](self.seed)
            self.execute = lambda op: op.run()
        raws = [self.run_op(op) for op in warm]
        self.check(warm, raws, keep_keys=warm is self.ops, prefix="warm-up ")

    def run_op(self, op):
        try:
            return self.execute(op)
        except Exception as exc:  # a failed operation, counted, not an abort
            return exc

    def check(self, ops, raws, keep_keys=True, full=True, prefix=""):
        """Check one round; returns the number of failed operations.

        Spans recorded while checking (checks may call sympovm) are dropped.
        """
        mark = len(self.tracer.spans) if self.tracer is not None else None
        failed = 0
        for i, (op, raw) in enumerate(zip(ops, raws)):
            if op.failed(raw):
                failed += 1
                self.failures.append(f"{prefix}{op.name}: {_describe(raw)}")
                continue
            if full:
                try:
                    err = op.check(raw)
                except Exception as exc:  # a malformed output is a wrong output
                    err = f"check raised {exc!r}"
                if err:
                    self.errors.append(f"{prefix}{op.name} {op.shape}: {err}")
            if not keep_keys:
                continue
            key = op.key(raw)
            if self.ref_keys.setdefault(i, key) != key:
                self.errors.append(f"{prefix}{op.name}: output differs from an earlier run")
        if mark is not None:
            del self.tracer.spans[mark:]
        return failed

    def timed(self, seconds):
        """Whole rounds until ``seconds`` of round time; returns stats."""
        lat, wall, rounds, failed, rss = [], 0.0, 0, 0, 0
        clock = time.perf_counter
        while True:
            raws = []
            start = clock()
            for op in self.ops:
                t0 = clock()
                raws.append(self.run_op(op))
                lat.append(clock() - t0)
            wall += clock() - start
            failed += self.check(self.ops, raws, full=rounds == 0)
            rss = max([rss] + [getattr(r, "maxrss_kb", 0) for r in raws])
            rounds += 1
            if wall >= seconds:
                break
        if self.workload != "cli-cold":
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"latencies": lat, "wall": wall, "rounds": rounds,
                "attempted": len(lat), "failed": failed, "rss_kb": rss}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _describe(raw):
    if isinstance(raw, Exception):
        return repr(raw)
    err = raw.err.decode(errors="replace").strip().splitlines()
    return f"exit {raw.code}: {err[-1] if err else ''}"


def per_layer_metrics(tracer, split, rounds):
    from tracer import TARGETS, span_name

    setup = tracer.summary(0, split)
    timed = tracer.summary(split)

    def value(name, field):
        s, t = setup.get(name, (0, 0.0)), timed.get(name, (0, 0.0))
        i = 0 if field == "calls" else 1
        v = s[i] + t[i] / rounds
        return v if i or v != int(v) else int(v)

    layers = [(span_name(m, a), fields) for m, a, fields in TARGETS]
    layers.append(("cli.main", ("self_s",)))  # wrapped by cli_runner.py
    metrics = {}
    for name, fields in layers:
        for field in fields:
            metrics[f"{name}.{field}"] = {"value": value(name, field),
                                          "unit": "count" if field == "calls" else "s"}
    metrics["cli.import_s"] = {"value": value("cli.import", "self_s"), "unit": "s"}
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sympovm", "__init__.py")):
        sys.exit(f"error: no sympovm sources under {SRC}")
    sys.path.insert(0, HERE)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    bench = WorkloadRun(args.workload, args.seed, tracer)
    try:
        bench.setup()
        setup_s = time.monotonic() - START
        split = len(tracer.spans) if tracer else 0
        stats = bench.timed(args.seconds)
    finally:
        bench.close()
    for line in bench.failures[:20]:
        print("failed:", line, file=sys.stderr)
    for line in bench.errors[:20]:
        print("WRONG:", line, file=sys.stderr)

    if tracer is None:
        metrics = {
            "ops_per_s": {"value": stats["attempted"] / stats["wall"], "unit": "op/s"},
            "op_p50_ms": {"value": statistics.median(stats["latencies"]) * 1e3,
                          "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": stats["rss_kb"] / 1024, "unit": "MB"},
        }
    else:
        metrics = per_layer_metrics(tracer, split, stats["rounds"])
    result = {"correct": not bench.errors, "attempted": stats["attempted"],
              "failed": stats["failed"], "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(result, rounds=stats["rounds"], wall_s=stats["wall"]), fh, indent=1)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"trace-{tag}.json"),
                    {"setup_spans": split, "rounds": stats["rounds"]})
    print(f"{args.workload} seed={args.seed}: {stats['rounds']} round(s), "
          f"{stats['attempted']} ops, {stats['failed']} failed, "
          f"{stats['wall']:.2f} s timed", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
