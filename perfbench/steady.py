#!/usr/bin/env python3
"""Runs one workload on several seeds and prints, per end-to-end metric, the
median, the quartiles and the quartile spread as a share of the median (the
figure each bound in BENCHMARK.json is set against).

    python3 perfbench/steady.py --workload churn --seeds 1-10 [--seconds 20]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()
    values, shares = {}, set()
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: outputs failed their checks" % seed)
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
              flush=True)
    print("failed share per run: %s" % sorted(shares))
    for name, v in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(v, n=4)
        print("%-28s median %14.6g  q1 %14.6g  q3 %14.6g  spread %.4f" %
              (name, med, q1, q3, (q3 - q1) / med if med else float("nan")))


if __name__ == "__main__":
    main()
