"""Run one foldeg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload legendrian-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds src/foldeg.  Every round of
the workload runs in a fresh interpreter (perfbench/worker.py), so every
basis is built cold, as in a user's run.  A run makes
workloads.round_count(workload, --seconds) rounds: a fixed number, sized
so that the rounds take about --seconds on the reference box.

Every time is calibrated (perfbench/calibrate.py): the worker divides it
by the slowdown that a small fixed probe, run every 25 ms while the
program runs, measured around it.  On a shared 2-core box other tenants
slowed the same code by up to a factor of two for minutes at a time;
over ten runs calibrated times spread by a few percent where raw ones
spread by 15 to 30.  wall_s, cpu_s and
top_degree_s are medians over the rounds of the round's sums, and
peak_rss_mb is the median over the rounds.  setup_s is the median over
the rounds' own set-ups and SETUP_SAMPLES set-up-only starts spread
among the rounds.

With --trace 1 the rounds are split into untraced and traced ones, which
alternate, untraced first, at least one of each.  The per-layer metrics
(medians over the traced rounds) are printed instead of the end-to-end
ones, the spans of the last traced round are written to perfbench/out/,
and the tracing overhead is the traced wall_s minus the untraced wall_s.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only if no operation failed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 12
ROUND_TIMEOUT_S = 150
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("top_degree_s", "s"),
    ("peak_rss_mb", "MB"),
)


class RoundFailed(RuntimeError):
    """A worker process crashed or printed no result."""


def worker(*args):
    """Run worker.py once and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, WORKER] + [str(a) for a in args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed("worker %s exited %d: %s" % (args, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def commit():
    """The checked-out commit, or a digest of src/ where there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return "no git; sha256 of src/*.py %s" % digest.hexdigest()[:16]


def run(workload, seed, seconds, traced):
    """The rounds of one run: (measured rounds, untraced rounds, set-up
    samples).  A traced run alternates untraced and traced rounds,
    untraced first; its measured rounds are the traced ones, and it takes
    no set-up samples."""
    base = ["--workload", workload, "--seed", seed]
    count = workloads.round_count(workload, seconds)
    rounds, untraced, setups = [], [], []
    if not traced:
        for _ in range(count):
            for _ in range(-(-SETUP_SAMPLES // count)):
                setups.append(worker(*base, "--setup-only")["setup_s"])
            rounds.append(worker(*base))
            setups.append(rounds[-1]["setup_s"])
        return rounds, untraced, setups
    for _ in range(max(1, count // 2)):
        untraced.append(worker(*base))
        rounds.append(worker(*base, "--trace", 1))
    return rounds, untraced, setups


def median_sum(rounds, key, ops=None):
    """Median over the rounds of the sum of the operations' times."""
    ops = range(len(rounds[0][key])) if ops is None else ops
    return statistics.median(sum(r[key][i] for i in ops) for r in rounds)


def end_to_end(rounds, setups):
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": median_sum(rounds, "op_wall_s"),
        "cpu_s": median_sum(rounds, "op_cpu_s"),
        "top_degree_s": median_sum(rounds, "op_wall_s", rounds[0]["top_ops"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "foldeg", "__init__.py")):
        print("error: no foldeg package under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    try:
        rounds, untraced, setups = run(args.workload, args.seed, args.seconds, args.trace == 1)
    except (RoundFailed, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    everything = untraced + rounds
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    wrong = sum(r["wrong"] for r in everything)

    print("workload: %s  seed: %d  rounds: %d%s" % (
        args.workload, args.seed, len(rounds),
        " traced, %d untraced" % len(untraced) if args.trace else ""))
    print("python: %s  nproc: %d  commit: %s"
          % (sys.version.split()[0], os.cpu_count(), commit()))
    print("uncalibrated wall_s of the rounds, probes included: %s"
          % ", ".join("%.3f" % r["raw_wall_s"] for r in everything))
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit, _ in tracing.PER_LAYER
        }
        print("hooks not found: %s" % (", ".join(rounds[-1]["missing_hooks"]) or "none"))
        traced_wall = median_sum(rounds, "op_wall_s")
        plain_wall = median_sum(untraced, "op_wall_s")
        print("tracing overhead: %+.3f s on wall_s %.3f s (%+.1f%%)"
              % (traced_wall - plain_wall, plain_wall, 100 * (traced_wall / plain_wall - 1)))
        print("spans of the last traced round: %s"
              % os.path.relpath(tracing.spans_path(args.workload, args.seed), ROOT))
        print("%-40s %9s %9s %11s %13s %10s"
              % ("operation", "total_s", "basis_s", "contract_s", "limits_rest_s", "limit_rows_s"))
        for label, total, *layers in rounds[-1]["op_layers"]:
            if any(layers):
                print("%-40s %9.3f %9.3f %11.3f %13.3f %10.3f" % ((label, total) + tuple(layers)))
    else:
        metrics = end_to_end(rounds, setups)
    for name, m in metrics.items():
        print("%-36s %14.6f %s" % (name, m["value"], m["unit"]))
    print("attempted: %d  failed: %d  wrong answers: %d" % (attempted, failed, wrong))
    for r in everything:
        for problem in r["problems"]:
            print("problem: %s" % problem)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
