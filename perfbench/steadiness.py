#!/usr/bin/env python3
"""Steadiness proof for the benchmark in BENCHMARK.json.

Runs two sets of runs of the same code, alternating the sets run by run
(A1 B1 A2 B2 ... for each workload in turn), so that host drift lands on
both sets alike instead of showing up as a difference between them. Every
run gets its own --seed. For each workload and end-to-end metric it prints
each set's median and quartile spread (Python's statistics.quantiles,
n=4, as a share of the median), the full per-run range, the shift of set
B's median against set A's in the metric's worse direction, and the
metric's bound. It then checks:

  * every run is correct, with verified_frac 1, and the exact metrics
    (program_nodes) repeat on every run of a workload;
  * each spread is within the bound (a spread above a third of the bound
    is flagged in lower case);
  * set B's median is no worse than set A's by more than the bound.

With --traced it also makes one traced run per workload and reports its
tracing overhead, its largest per-thread self time against the batch
span, and the effort counters.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--traced]

Raw results go to perfbench/out/steadiness.jsonl, one run per line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SPEC = "BENCHMARK.json"
OUT = os.path.join("perfbench", "out", "steadiness.jsonl")
EXACT = {"verified_frac", "program_nodes"}


def run(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = bench["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in declared}:
        raise SystemExit(f"{workload}: metrics differ from {SPEC}: {sorted(got)}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, "result": result,
            "summary": proc.stderr.strip().splitlines()[-1:]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_shift(a, b, better):
    """How much worse median b is than median a, as a share of a."""
    ma, mb = statistics.median(a), statistics.median(b)
    shift = (mb - ma) / ma
    return shift if better == "lower" else -shift


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--traced", action="store_true",
                    help="also make one traced run per workload")
    args = ap.parse_args()

    with open(SPEC) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]
    os.makedirs(os.path.dirname(OUT), exist_ok=True)

    runs = {w: {"A": [], "B": []} for w in workloads}
    seed = 0
    with open(OUT, "a") as log:
        for i in range(args.runs):
            for w in workloads:
                for side in "AB":
                    seed += 1
                    r = run(bench, w, seed, 0)
                    r["set"] = side
                    log.write(json.dumps(r) + "\n")
                    log.flush()
                    runs[w][side].append(r["result"])
                    got = r["result"]["metrics"]
                    print(f"  run {i + 1}/{args.runs} {w} set {side} seed {seed}:"
                          f" wall_s {got['wall_s']['value']:.3f}"
                          f" setup_s {got['setup_s']['value']:.5f}"
                          f" ({r['elapsed_s']:.1f}s)",
                          file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}: {args.runs} runs per set, sets alternated run by run")
        print(f"  {'metric':<16}{'median A':>12}{'median B':>12}{'IQR A':>8}"
              f"{'IQR B':>8}{'range':>8}{'B worse':>9}{'bound':>7}  verdict")
        results = runs[w]["A"] + runs[w]["B"]
        for r in results:
            if not r["correct"] or r["failed"] != 0:
                print(f"  a run was not correct: {r}")
                ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in runs[w]["A"]]
            b = [r["metrics"][name]["value"] for r in runs[w]["B"]]
            both = a + b
            sa, sb = spread(a), spread(b)
            full = (max(both) - min(both)) / statistics.median(both)
            shift = worse_shift(a, b, m["better"])
            verdict = []
            if max(sa, sb) > bound:
                verdict.append("SPREAD>BOUND")
            elif max(sa, sb) > bound / 3:
                verdict.append("spread>bound/3")
            if shift > bound:
                verdict.append("SHIFT>BOUND")
            if name in EXACT and len(set(both)) != 1:
                verdict.append("NOT-EXACT")
            if name == "verified_frac" and set(both) != {1}:
                verdict.append("UNVERIFIED")
            if any(v.isupper() for v in verdict):
                ok = False
            print(f"  {name:<16}{statistics.median(a):>12.6g}"
                  f"{statistics.median(b):>12.6g}{sa:>8.2%}{sb:>8.2%}"
                  f"{full:>8.2%}{shift:>9.2%}{bound:>7.2f}  "
                  f"{' '.join(verdict) or 'ok'}")

    if args.traced:
        print("\ntraced runs (one per workload)")
        with open(OUT, "a") as log:
            for w in workloads:
                seed += 1
                r = run(bench, w, seed, 1)
                log.write(json.dumps(r) + "\n")
                m = {k: v["value"] for k, v in r["result"]["metrics"].items()}
                fits = m["trace.self_s"] <= m["trace.batch_s"]
                ok = ok and fits and r["result"]["correct"]
                print(f"  {w}: correct {r['result']['correct']},"
                      f" traced pass wall {m['batch.wall_s']:.3f}s,"
                      f" overhead {m['trace.overhead_s']:+.3f}s"
                      f" ({m['trace.overhead_s'] / m['batch.wall_s']:+.2%}),"
                      f" self {m['trace.self_s']:.3f}s <= batch"
                      f" {m['trace.batch_s']:.3f}s: {fits},"
                      f" tested {m['generate.tested']:.0f},"
                      f" spans {m['trace.spans']:.0f}")

    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
