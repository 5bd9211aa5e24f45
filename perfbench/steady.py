#!/usr/bin/env python3
"""Steadiness report and determinism self-test for the repository benchmark.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 seeds x every workload
    python3 perfbench/steady.py --runs 5 --workloads trigger_fanout
    python3 perfbench/steady.py --self-test          # determinism checks

The report repeats each workload with seeds `--seed0`, `--seed0 + 1`, ...
and prints, for every end-to-end metric, the median, the first and third
quartiles (as `statistics.quantiles(values, n=4)` gives them) and the
spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.
A spread at or under a third of the bound is marked `ok`, one under the
bound `near`, and one over it `WIDE`.

The self-test runs each workload traced twice with one seed and once with
the next: the exact work counters must repeat, and the generated inputs
(the host line's `inputs_digest`) must repeat for the same seed and differ
for the other.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

EXACT = [
    "wal.bytes_per_txn",
    "logop.bytes_per_record",
    "detect.symbols_per_event",
    "hist.segments_scanned_per_query",
    "hist.segments_skipped_per_query",
    "wal.segments_replayed",
]


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    t = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')), {})
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result: {p.stderr[-2000:]}")
    return result, host, time.time() - t


def report(bench, workloads, runs, seed0, raw):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = {}
    for w in workloads:
        values = {}
        took = []
        for i in range(runs):
            result, _, secs = run(bench, w, seed0 + i, 0)
            took.append(secs)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"\n== {w}: {runs} runs, {statistics.median(took):.1f} s each (median)", flush=True)
        print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for k in sorted(values):
            v = values[k]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds.get(k, 0.25)
            mark = "ok" if spread <= b / 3 else ("near" if spread <= b else "WIDE")
            if k != "setup_s":
                worst[(w, k)] = spread / b
            print(f"{k:20s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} {b:6.2f} {mark}"
                  + (f"  {' '.join(f'{x:.4g}' for x in v)}" if raw else ""))
    if worst:
        (w, k), r = max(worst.items(), key=lambda x: x[1])
        print(f"\nwidest spread against its bound: {w} {k} at {r:.2f} x bound")


def self_test(bench, workloads, seed):
    ok = True
    for w in workloads:
        a, ha, _ = run(bench, w, seed, 1)
        b, hb, _ = run(bench, w, seed, 1)
        _, hc, _ = run(bench, w, seed + 1, 1)
        for k in EXACT:
            va, vb = a["metrics"][k]["value"], b["metrics"][k]["value"]
            same = va == vb
            ok &= same
            print(f"{w:15s} {k:34s} {va!r:>22} {vb!r:>22} {'same' if same else 'DIFFERENT'}")
        d = (ha.get("inputs_digest"), hb.get("inputs_digest"), hc.get("inputs_digest"))
        good = d[0] is not None and d[0] == d[1] and d[0] != d[2]
        ok &= good
        print(f"{w:15s} inputs digest seed {seed}: {d[0]} {d[1]}; seed {seed + 1}: {d[2]} "
              f"{'ok' if good else 'FAIL'}")
    print("self-test", "passed" if ok else "FAILED")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--raw", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    if args.self_test:
        sys.exit(0 if self_test(bench, workloads, args.seed0) else 1)
    report(bench, workloads, args.runs, args.seed0, args.raw)


if __name__ == "__main__":
    main()
