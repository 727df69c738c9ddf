"""One round of one workload, in a fresh interpreter.

Imports foldeg cold, makes the round's inputs, runs every operation
serially while calibrate.Sampler probes the machine's speed, then checks
the answers outside the timed interval.  Prints one JSON object as its
last line, with calibrated times.  run.py starts this script once per
round and once per set-up-only start; it is not meant to be run by
hand, but

    PYTHONPATH=src python3 perfbench/worker.py --workload pencil-sweep --seed 1

works from the root of the repository.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 10


def check_round(ops, outputs):
    """Check every answer; returns (indices of wrong operations, problems)."""
    wrong, problems = set(), []
    degrees, index = {}, {}
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        try:
            if op.kind == "degree":
                found = checks.check_report(op.family, op.d, op.weights, out.to_json_dict())
                degrees[(op.family, op.d, op.weights)] = out.degree
                index[(op.family, op.d, op.weights)] = i
            elif op.kind == "interpolate":
                found = checks.check_interpolant(op.family, out.coefficients, op.d)
            else:
                found = checks.check_verify(*out)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            found = ["output cannot be checked: %r" % (exc,)]
        if found:
            wrong.add(i)
            problems += ["%s: %s" % (workloads.op_label(op), p) for p in found]
    found, keys = checks.check_weight_independence(degrees)
    wrong.update(index[k] for k in keys)
    return wrong, problems + found


def set_up(workload, seed):
    """Import foldeg cold and make the inputs.  Returns them and the
    calibrated set-up time; the probes run right after it."""
    t0 = time.perf_counter()
    foldeg = importlib.import_module("foldeg")
    importlib.import_module("foldeg.cli")
    ops = workloads.make_ops(workload, seed)
    setup_s = time.perf_counter() - t0
    return foldeg, ops, setup_s / calibrate.slowdown(calibrate.measure(setup_s))[0]


def run_round(workload, seed, traced):
    foldeg, ops, setup_s = set_up(workload, seed)
    result = {"setup_s": setup_s}

    tracer = tracing.Tracer() if traced else None
    if tracer:
        result["missing_hooks"] = tracer.install()
    outputs, times, op_wall, errors = [], [], [], []
    results = {}
    sampler = calibrate.Sampler()
    origin = time.perf_counter()
    sampler.start()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            out = workloads.run_op(foldeg, op, results)
        except Exception:  # a failed operation is counted, not fatal
            out = None
            errors.append("%s: %s" % (workloads.op_label(op), traceback.format_exc(limit=-3)))
        end = time.perf_counter()
        times.append((start, end, time.process_time() - start_cpu))
        op_wall.append(end - start)
        outputs.append(out)
        results[op] = out
    sampler.stop()
    calibrated = [sampler.calibrated(*t) for t in times]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    wrong, problems = check_round(ops, outputs)
    top = max(op.d for op in ops if op.kind == "degree")
    result.update(
        raw_wall_s=sum(op_wall),
        op_wall_s=[wall for wall, _ in calibrated],
        op_cpu_s=[cpu for _, cpu in calibrated],
        top_ops=[i for i, op in enumerate(ops) if op.kind == "degree" and op.d == top],
        peak_rss_mb=rss_kb / 1024.0,
        attempted=len(ops),
        failed=len(wrong) + sum(out is None for out in outputs),
        wrong=len(wrong),
        problems=(errors + problems)[:MAX_PROBLEMS],
    )
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        labels = [workloads.op_label(op) for op in ops]
        result["op_layers"] = [
            [label, t] + row
            for label, t, row in zip(labels, op_wall, tracing.op_layers(tracer.spans, len(ops)))
        ]
        write_spans(workload, seed, labels, tracer.spans, origin)
    return result


def write_spans(workload, seed, labels, spans, origin):
    """Spans as [name, start, end, parent, op], times in seconds from the
    first operation, to tracing.spans_path(workload, seed)."""
    rows = [[n, round(s - origin, 7), round(e - origin, 7), p, o] for n, s, e, p, o in spans]
    os.makedirs(tracing.OUT_DIR, exist_ok=True)
    with open(tracing.spans_path(workload, seed), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": labels, "spans": rows}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import foldeg and make the inputs, nothing else")
    args = parser.parse_args(argv)
    if args.setup_only:
        result = {"setup_s": set_up(args.workload, args.seed)[2]}
    else:
        result = run_round(args.workload, args.seed, args.trace == 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
