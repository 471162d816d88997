#!/usr/bin/env python3
"""Same-code steadiness check for the servebench benchmark.

Runs two sets of runs of the current checkout on each workload (set A on
seeds A0.., set B on seeds B0..), alternating which set runs first from one
pair to the next. For every end-to-end metric it prints each set's median
and quartiles, the spread (quartile distance over the median), and whether
the sets agree within the bounds in BENCHMARK.json:

  * the spread of set A, of set B and of both together is within the
    metric's bound;
  * neither set's median is worse than the other's by more than the bound;
  * the share of failed operations is the same in both sets;
  * every run reported correct.

Run from the repository root:

    python3 servebench/steady.py --runs 5 [--workloads batched_beam,data_bound]

Exit status 0 when every kept workload agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    context = json.loads(lines[-2]).get("context", {}) if len(lines) > 1 else {}
    return result, context, wall


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def disagreement(metric, a, b):
    """How far apart two medians are: the larger of B worse than A and A
    worse than B, each as a share of the other's median."""
    return max(worse_by(metric, a, b), worse_by(metric, b, a))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-a", type=int, default=1, help="first seed of set A")
    ap.add_argument("--seed-b", type=int, default=1001, help="first seed of set B")
    ap.add_argument("--out", help="write every run's result and context here (JSON)")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    all_ok = True
    record = {}
    for workload in args.workloads.split(","):
        runs = {"A": [], "B": []}
        for i in range(args.runs):
            pair = [("A", args.seed_a + i), ("B", args.seed_b + i)]
            if i % 2:
                pair.reverse()
            for label, seed in pair:
                result, context, wall = run_once(bench["command"], workload, seed, args.seconds)
                runs[label].append({"seed": seed, "wall_s": wall, "result": result,
                                    "context": context})
                m = result["metrics"]
                print(f"{workload} {label} seed {seed}: wall {wall:.1f}s correct {result['correct']} "
                      f"attempted {result['attempted']} failed {result['failed']} steal "
                      f"{context.get('steal_share', float('nan')):.2f} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
        record[workload] = runs

        ok = True
        print(f"\n== {workload}: {args.runs} runs per set")
        print(f"{'metric':<16} {'set':<4} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sets = {label: [r["result"]["metrics"][name]["value"] for r in runs[label]]
                    for label in ("A", "B")}
            sets["A+B"] = sets["A"] + sets["B"]
            for label, values in sets.items():
                q1, q2, q3 = quartiles(values)
                s = spread(values)
                flag = ""
                if s > bound:
                    flag = "  SPREAD > bound"
                    ok = False
                print(f"{name:<16} {label:<4} {q1:>10.4g} {q2:>10.4g} {q3:>10.4g} {s:>7.3f} {bound:>6}{flag}")
            med_a, med_b = statistics.median(sets["A"]), statistics.median(sets["B"])
            change = worse_by(metric, med_a, med_b)
            apart = disagreement(metric, med_a, med_b)
            verdict = "ok" if apart <= bound else "sets DISAGREE beyond bound"
            if apart > bound:
                ok = False
            print(f"{'':<16} B vs A: {change:+.3f} of A's median, apart {apart:.3f} ({verdict})")
        shares = {label: sum(r["result"]["failed"] for r in runs[label]) /
                  max(1, sum(r["result"]["attempted"] for r in runs[label]))
                  for label in ("A", "B")}
        fail_ok = shares["A"] == shares["B"]
        correct = all(r["result"]["correct"] for label in runs for r in runs[label])
        steal = [r["context"].get("steal_share", 0.0) for label in runs for r in runs[label]]
        print(f"failed share A {shares['A']:.6f} B {shares['B']:.6f} ({'same' if fail_ok else 'DIFFERENT'}); "
              f"all correct: {correct}; steal share median {statistics.median(steal):.3f} "
              f"(min {min(steal):.3f}, max {max(steal):.3f})")
        ok = ok and fail_ok and correct
        print(f"{workload}: {'AGREE' if ok else 'DISAGREE'}\n", flush=True)
        all_ok = all_ok and ok

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
