#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10]

Each set runs every workload of BENCHMARK.json `--runs` times for its
`run_seconds`, each run with another seed (set 1 uses seeds 1..runs, set 2
the next ones) and the order of the workloads rotated from run to run and
reversed in set 2. For every
end-to-end metric of BENCHMARK.json it prints, per set, the median, the
quartiles (statistics.quantiles, n=4) and their spread (Q3 - Q1) / median,
then the change of the second median against the first in the metric's
worse direction, each next to the metric's bound. It also checks that the
share of failed operations is the same in both sets. Exits 1 when a run
fails or prints no result, or when a spread or a median shift exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace="0"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (code %d):\n%s%s" % (
            workload, seed, proc.returncode, proc.stdout, proc.stderr[-2000:]))
    return json.loads(lines[-1]), proc.stdout


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {}  # (set, workload) -> list of result objects
    for s in (1, 2):
        for i in range(args.runs):
            seed = 1 + (s - 1) * args.runs + i
            k = i % len(workloads)
            order = workloads[k:] + workloads[:k]
            if s == 2:
                order = order[::-1]
            for w in order:
                start = time.time()
                try:
                    res = run_once(w, seed, bench["run_seconds"])[0]
                except RuntimeError as e:
                    print(e, file=sys.stderr)
                    return 1
                results.setdefault((s, w), []).append(res)
                print("set %d %-9s seed %3d %5.1f s correct=%s" % (
                    s, w, seed, time.time() - start, res["correct"]),
                    file=sys.stderr, flush=True)

    bad = False
    print("spread = (Q3-Q1)/median over %d runs per set; shift = change of "
          "the set-2 median in the worse direction" % args.runs)
    print("%-10s %-13s %5s | %12s %12s %12s %7s | %12s %7s | %7s" % (
        "workload", "metric", "bound", "set1 Q1", "set1 median", "set1 Q3",
        "spread", "set2 median", "spread", "shift"))
    for w in workloads:
        for s in (1, 2):
            rs = results[(s, w)]
            if not all(r["correct"] for r in rs):
                print("%s: a run of set %d reported correct=false" % (w, s))
                bad = True
        shares = [sum(r["failed"] for r in results[(s, w)]) /
                  sum(r["attempted"] for r in results[(s, w)]) for s in (1, 2)]
        if shares[0] != shares[1]:
            print("%s: failed share differs: %r vs %r" % (w, shares[0],
                                                          shares[1]))
            bad = True
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in results[(1, w)]]
            b = [r["metrics"][name]["value"] for r in results[(2, w)]]
            q1a, meda, q3a, spa = spread(a)
            _, medb, _, spb = spread(b)
            shift = (medb - meda) / meda
            if m["better"] == "higher":
                shift = -shift
            flag = ""
            if max(spa, spb) > bound:
                flag += " SPREAD>BOUND"
                bad = True
            elif max(spa, spb) > bound / 3:
                flag += " spread>bound/3"
            if shift > bound:
                flag += " SHIFT>BOUND"
                bad = True
            print("%-10s %-13s %5.2f | %12.6g %12.6g %12.6g %6.2f%% | %12.6g "
                  "%6.2f%% | %+6.2f%%%s" % (w, name, bound, q1a, meda, q3a,
                                            100 * spa, medb, 100 * spb,
                                            100 * shift, flag))
        print("%-10s failed share: set1 %r, set2 %r" % (w, shares[0],
                                                        shares[1]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
