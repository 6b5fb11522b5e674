#!/usr/bin/env python3
"""Run each workload repeatedly and compare its spread with the bounds.

Usage (from the repository root):

    python3 benchmark/steadiness.py [--baseline .bench_out/steadiness-OLD.json]

Every workload of BENCHMARK.json runs ten times, with seeds 1 to 10.  For
every end-to-end metric the script prints the median, the inter-quartile
spread as a share of the median (``statistics.quantiles(values, n=4)``)
and the metric's bound from BENCHMARK.json; a spread above its bound is
marked.  With ``--baseline`` it also compares every median with that
earlier report: a median worse by more than the bound, or a different
share of failed operations, is marked.  It also prints the seconds a run
takes and what a full evaluation of 4 + 22 runs per workload would take.
The report is written to ``.bench_out/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), wall_s=wall)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--baseline", help="an earlier report to compare medians with")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)

    report, ok, run_walls = {}, True, []
    for workload in [w["name"] for w in bench["workloads"]]:
        results = [run_once(workload, seed, bench["run_seconds"]) for seed in SEEDS]
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        rows = {}
        walls = [r["wall_s"] for r in results]
        run_walls.append(statistics.median(walls))
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed/attempted={[f'{f}/{a}' for f, a in shares]}, "
              f"seconds a run: median {statistics.median(walls):.1f}, max {max(walls):.1f}")
        ok &= all(r["correct"] for r in results)
        ok &= len({f / a for f, a in shares}) == 1
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, iqr = spread(values)
            flag = ""
            if iqr > m["bound"]:
                flag, ok = "  SPREAD ABOVE BOUND", False
            if baseline and workload in baseline:
                old = baseline[workload]["metrics"][m["name"]]["median"]
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                flag += f"  vs baseline {old:.6g} ({worse:+.1%} worse)"
                if worse > m["bound"]:
                    flag, ok = flag + " REGRESSED", False
            rows[m["name"]] = {"median": med, "iqr_share": iqr, "bound": m["bound"],
                               "values": values}
            print(f"  {m['name']:12s} median {med:12.6g} {m['unit']:5s} "
                  f"spread {iqr:6.1%} bound {m['bound']:.0%} "
                  f"(a third: {m['bound'] / 3:.1%}){flag}")
        fail_share = shares[0][0] / shares[0][1]
        if baseline and workload in baseline and \
                baseline[workload]["failed_share"] != fail_share:
            print(f"  failed share {fail_share} != baseline "
                  f"{baseline[workload]['failed_share']}")
            ok = False
        report[workload] = {"metrics": rows, "failed_share": fail_share,
                            "seeds": list(SEEDS), "run_walls_s": walls}
    # a full evaluation makes 4 + 22 runs per workload
    print(f"a full evaluation at these median run times: "
          f"{(4 / len(run_walls) + 22) * sum(run_walls):.0f} s")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    out = os.path.join(ROOT, ".bench_out",
                       f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"report: {out}; {'all within bounds' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
