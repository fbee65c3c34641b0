#!/usr/bin/env python3
"""Per-layer breakdown: a traced and an untraced run of each workload.

Usage (from the repository root):

    python3 perfbench/layers.py

For each workload of BENCHMARK.json it runs the benchmark for its
`run_seconds` once with --trace 0 and once with --trace 1, both on seed 1, then prints each span's count, self time and
share of the workload's op time (the base is named in the output), the
share of that time the layer spans cover, and the tracing overhead: the
traced run's median round time against the untraced run's run_s.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from steady import ROOT, run_once  # noqa: E402

SEED = 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        plain, _ = run_once(w, SEED, bench["run_seconds"], "0")
        traced, out = run_once(w, SEED, bench["run_seconds"], "1")
        print("== %s (seed %d)" % (w, SEED))
        for line in out.splitlines():
            if line.startswith("layer"):
                print("  " + line)
        run_s = plain["metrics"]["run_s"]["value"]
        traced_s = traced["metrics"]["trace.run_s"]["value"]
        coverage = traced["metrics"]["trace.coverage"]["value"]
        print("  spans cover %.2f%% of the op time" % (100 * coverage))
        print("  tracing overhead: traced round %.4g s vs untraced run_s %.4g s"
              " (%+.2f%%)" % (traced_s, run_s, 100 * (traced_s / run_s - 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
