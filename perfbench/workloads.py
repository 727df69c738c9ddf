"""Workload inputs drawn from a seed, and the calls that run them.

Each workload is a list of operations.  An operation is one degree
computation, one interpolation of degrees computed earlier in the same
round, or one in-process `foldeg verify --example`.  Degrees run weight
system by weight system, d ascending, as a user's sweep would; the
interpolation or verify operation comes last.  The seed picks the
coordinate order of the two extra weight systems; legendrian-sweep has
none, so its inputs are the same for every seed.
"""

import contextlib
import io
import random
from collections import namedtuple
from itertools import combinations

DEFAULT_SEED = 1
DEFAULT_WEIGHTS = (0, 2, 7, 10)
# The seed draws one order of the coordinates of each base system.  The
# order changes the torus action, so the program sees other inputs, but
# not the weights at which it computes, so the cost stays the same from
# seed to seed.  Both bases cost about as much as the default; some other
# admissible systems, such as (0, 1, 5, 16), cost 40% more.
BASE_SYSTEMS = ((0, 3, 10, 16), (0, 6, 13, 16))
D_MIN = 2

# kind is "degree", "interpolate" (over D_MIN..d at the default weights)
# or "verify"; method None means the program's default route.
Op = namedtuple("Op", "kind family d weights method")

WORKLOADS = ("legendrian-sweep", "legendrian-crosscheck", "pencil-sweep")

# Seconds one whole round of each workload (set-up starts, start,
# operations, calibration probes and checks) takes on the 2-vCPU
# reference box under the usual load of its other tenants.
# A run of --seconds S makes S // ROUND_S rounds (at least one), so the
# number of rounds, and with it the number of samples behind each
# median, depends on S and the workload, not on the program's speed.
ROUND_S = {"legendrian-sweep": 15.0, "legendrian-crosscheck": 9.0, "pencil-sweep": 4.0}


def round_count(workload, seconds):
    return max(1, int(seconds // ROUND_S[workload]))


def is_admissible(weights):
    """Distinct weights and distinct pair sums, checked here rather than
    by the program, so a drawn system is known good before it is used."""
    sums = [a + b for a, b in combinations(weights, 2)]
    return len(set(weights)) == 4 and len(set(sums)) == 6


def draw_weight_systems(seed):
    """One coordinate order of each base system, the same for the same
    seed.  Admissibility does not depend on the order."""
    rng = random.Random(seed)
    return [tuple(rng.sample(base, len(base))) for base in BASE_SYSTEMS]


def make_ops(workload, seed):
    """The operations of one round of a workload."""
    systems = [DEFAULT_WEIGHTS] + draw_weight_systems(seed)
    if workload == "legendrian-sweep":
        ops = [Op("degree", "legendrian", d, DEFAULT_WEIGHTS, None)
               for d in range(D_MIN, 18)]
        last = Op("interpolate", "legendrian", 17, DEFAULT_WEIGHTS, None)
    elif workload == "legendrian-crosscheck":
        ops = [Op("degree", "legendrian", d, w, "both")
               for w in systems for d in range(D_MIN, 9)]
        last = Op("verify", None, None, None, None)
    elif workload == "pencil-sweep":
        ops = [Op("degree", "pencil", d, w, None)
               for w in systems for d in range(D_MIN, 31)]
        last = Op("interpolate", "pencil", 30, DEFAULT_WEIGHTS, None)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return ops + [last]


def op_label(op):
    if op.kind == "verify":
        return "verify --example"
    w = ",".join(str(v) for v in op.weights)
    if op.kind == "interpolate":
        return "interpolate %s d=%d..%d w=%s" % (op.family, D_MIN, op.d, w)
    return "%s d=%d w=%s" % (op.family, op.d, w)


def run_op(foldeg, op, results):
    """Call the program's public API for one operation.  results maps
    earlier operations to what they returned; interpolation reads its
    points from there.  Names are looked up on the modules at call time,
    so a tracer that wraps them sees these calls."""
    if op.kind == "degree":
        if op.family == "legendrian":
            return foldeg.legendrian_degree(op.d, op.weights, method=op.method)
        return foldeg.pencil_degree(op.d, op.weights)
    if op.kind == "interpolate":
        points = sorted(
            (key.d, report.degree)
            for key, report in results.items()
            if key.kind == "degree" and key.family == op.family
            and key.weights == op.weights and key.d <= op.d
        )
        if len(points) != op.d - D_MIN + 1:
            raise LookupError(
                "only %d degrees computed for the window %d..%d"
                % (len(points), D_MIN, op.d)
            )
        return foldeg.interpolate_family(op.family, D_MIN, op.d, points=points)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = foldeg.cli.main(["verify", "--example", "--format", "json"])
    return code, out.getvalue()
