"""Are two sets of runs of one workload, on the same code, in agreement?

    python3 perfbench/steady.py --workload pencil-sweep --runs 10

Runs the benchmark command from BENCHMARK.json --runs times per set, each
run with its own seed (set 1 uses seeds 1..N, set 2 the next N) and
run_seconds from BENCHMARK.json, and prints each end-to-end metric's
median, quartiles and spread (the distance between the quartiles as a
share of the median) for each set.  The sets agree when every metric's
spread is within its bound and every metric's second median differs
from the first, up or down, by at most its bound.  A run that fails
stops the whole check.  Exits 0 when the sets agree.  --sets 1 runs and
judges one set only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_set(bench, workload, seeds):
    results = []
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
        result = json.loads(lines[-1])
        print("  seed %-4d %s" % (seed, "  ".join(
            "%s=%.4f" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        results.append(result)
    return results


def summarize(results, metric):
    values = [r["metrics"][metric]["value"] for r in results]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def judge(bench, sets):
    """Problems that stop the sets from agreeing, and the summaries."""
    problems, table = [], {}
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        table[name] = [summarize(s, name) for s in sets]
        for k, row in enumerate(table[name], 1):
            if row["spread"] > bound:
                problems.append("%s: set %d spread %.3f > bound %.3f" % (name, k, row["spread"], bound))
        if len(sets) == 2:
            first, second = table[name][0]["median"], table[name][1]["median"]
            shift = (second - first) / first
            if abs(shift) > bound:
                problems.append("%s: second median differs by %+.3f, beyond %.3f"
                                % (name, shift, bound))
    return problems, table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    sets = []
    for k in range(args.sets):
        seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
        print("set %d: %s, seeds %d..%d" % (k + 1, args.workload, seeds[0], seeds[-1]), flush=True)
        sets.append(run_set(bench, args.workload, seeds))

    problems, table = judge(bench, sets)
    print("%-14s %4s %12s %12s %12s %8s %6s" % ("metric", "set", "median", "q1", "q3", "spread", "bound"))
    for m in bench["end_to_end"]:
        for k, row in enumerate(table[m["name"]], 1):
            print("%-14s %4d %12.5f %12.5f %12.5f %8.4f %6.3f" % (
                m["name"], k, row["median"], row["q1"], row["q3"], row["spread"], m["bound"]))
    for k, s in enumerate(sets, 1):
        print("set %d: %d operations attempted" % (k, sum(r["attempted"] for r in s)))
    for p in problems:
        print("DISAGREE %s" % p)
    print("agree" if not problems else "do not agree")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
