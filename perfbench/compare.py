#!/usr/bin/env python3
"""Runs two sets of perfbench runs and says whether they agree.

    python3 perfbench/compare.py --workload integrate --runs 10
    python3 perfbench/compare.py --workload serve_read --a ../parent --b .

Set A runs in checkout --a, set B in checkout --b (both default to the
checkout holding this file, which compares the code with itself). Run i of
each set uses seed --seed + i; the two runs of a pair alternate which set
goes first. For every metric the table gives each set's median and its
spread (the distance between the first and third quartile as
statistics.quantiles(values, n=4) gives them, as a share of the median),
and whether the sets agree within the metric's bound in BENCHMARK.json:
neither spread exceeds the bound, and B's median is not worse than A's by
more than the bound. When A and B are the same checkout, B's median must not
differ from A's by more than the bound in either direction.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d in %s" % (workload, seed, checkout))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("incorrect result: %s seed %d: %s" %
                         (workload, seed, lines[-2] if len(lines) > 1 else ""))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--a", default=ROOT)
    parser.add_argument("--b", default=ROOT)
    args = parser.parse_args()

    with open(os.path.join(args.a, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[kind]}

    names = ["A", "B"]
    checkouts = {"A": args.a, "B": args.b}
    same_code = os.path.realpath(args.a) == os.path.realpath(args.b)
    values = {name: {} for name in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for name in order:
            result = run_once(checkouts[name], args.workload, args.seed + i,
                              seconds, args.trace)
            print("%s seed %d: attempted %d failed %d" %
                  (name, args.seed + i, result["attempted"], result["failed"]),
                  file=sys.stderr, flush=True)
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])

    print("%-32s %12s %8s %12s %8s %8s %6s  %s" % (
        "metric", "A median", "A iqr", "B median", "B iqr", "B vs A", "bound",
        "verdict"))
    all_agree = True
    for metric in metrics:
        a, b = values["A"].get(metric), values["B"].get(metric)
        if not a or not b:
            print("%-32s missing" % metric)
            all_agree = False
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        shift = (mb - ma) / abs(ma) if ma else 0.0
        bound = metrics[metric].get("bound")
        verdict = ""
        if bound is not None:
            worse = shift if metrics[metric]["better"] == "lower" else -shift
            moved = abs(shift) if same_code else worse
            if max(spread(a), spread(b)) > bound:
                verdict = "noisy"
            elif moved > bound:
                verdict = "differ" if same_code else "worse"
            else:
                verdict = "agree"
            all_agree = all_agree and verdict == "agree"
        print("%-32s %12.6g %7.1f%% %12.6g %7.1f%% %+7.1f%% %6s  %s" % (
            metric, ma, 100 * spread(a), mb, 100 * spread(b), 100 * shift,
            "" if bound is None else "%.2f" % bound, verdict))
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
