"""Spans around the calls from one layer of foldeg into the next.

The tracer wraps module attributes from the outside: for each hook it
replaces the function in every foldeg module that holds it (or in the
named caller modules only), so calls made through any of those names
are timed.  The program's files are not touched.  A span is
[name, start, end, parent span index, operation index]; spans stay in
memory until the round ends.
"""

import importlib
import os
import sys
import time
from collections import Counter, defaultdict, namedtuple

# name: span name; module, attr: where the function is defined; callers:
# the modules whose attribute is replaced (None: every foldeg module that
# holds the same function); namer: picks the span name from the call;
# counter: records counts after the call.
Hook = namedtuple("Hook", "name module attr callers namer counter")

ROUTES = {
    "image-fiber": "limits.image_route",
    "kernel-limit": "limits.kernel_route",
    "both": "limits.both_routes",
}


OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def spans_path(workload, seed):
    """Where a traced round of this workload and seed writes its spans."""
    return os.path.join(OUT_DIR, "spans-%s-%d.json" % (workload, seed))


def _route_name(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "image-fiber")
    return ROUTES.get(method, "limits.other_route")


def _count_basis(tracer, args, kwargs, basis):
    # a cache hit hands back an object returned before
    if id(basis) in tracer.bases:
        tracer.counts["fields.basis_cache_hits"] += 1
    else:
        tracer.bases[id(basis)] = basis
        tracer.counts["fields.basis_builds"] += 1
        tracer.counts["fields.basis_fields"] += len(basis)


def _count_contraction(tracer, args, kwargs, matrix):
    tracer.counts["limits.contraction_nnz"] += len(matrix.entries)


def _count_block(tracer, args, kwargs, result):
    rows, ncols = args[0], args[1]
    counts = tracer.counts
    counts["linalg.block_cols_sum"] += ncols
    counts["linalg.block_cols_max"] = max(counts["linalg.block_cols_max"], ncols)
    bits = max(
        (abs(c).bit_length() for row in rows for e in row for c in e), default=0
    )
    counts["linalg.block_bits_max"] = max(counts["linalg.block_bits_max"], bits)


def _count_fiber(tracer, args, kwargs, fiber):
    tracer.counts["pencil.fiber_weights"] += len(fiber)


HOOKS = (
    Hook("bott.legendrian_degree", "foldeg.bott", "legendrian_degree", None, None, None),
    Hook("limits.fiber", "foldeg.limits", "limit_fiber_weights", None, _route_name, None),
    Hook("fields.build_phi_basis", "foldeg.fields", "build_phi_basis", None, None, _count_basis),
    Hook("linalg.kernel_basis_in_fields", "foldeg.linalg", "kernel_basis",
         ("foldeg.fields",), None, None),
    Hook("limits.build_contraction_matrix", "foldeg.limits", "build_contraction_matrix",
         None, None, _count_contraction),
    Hook("linalg.limit_rows", "foldeg.linalg", "limit_rows", None, None, _count_block),
    Hook("linalg.rank_in_limits", "foldeg.linalg", "rank", ("foldeg.limits",), None, None),
    Hook("linalg.kernel_basis_in_limits", "foldeg.linalg", "kernel_basis",
         ("foldeg.limits",), None, None),
    Hook("pencil.pencil_degree", "foldeg.pencil", "pencil_degree", None, None, None),
    Hook("pencil.pd_twisted_weights", "foldeg.pencil", "pd_twisted_weights",
         None, None, _count_fiber),
    Hook("exact.elementary_symmetric", "foldeg.exact", "elementary_symmetric",
         None, None, None),
    Hook("polyfit.interpolate_family", "foldeg.polyfit", "interpolate_family",
         None, None, None),
    Hook("polyfit.lagrange_interpolate", "foldeg.exact", "lagrange_interpolate",
         None, None, None),
    Hook("cli.main", "foldeg.cli", "main", None, None, None),
)

# The per-layer metrics, in the order they are reported.
PER_LAYER = (
    ("fields.build_phi_basis_s", "s", "lower"),
    ("fields.basis_builds", "count", "lower"),
    ("fields.basis_cache_hits", "count", "higher"),
    ("fields.basis_fields", "count", "lower"),
    ("linalg.kernel_basis_in_fields_s", "s", "lower"),
    ("limits.build_contraction_matrix_s", "s", "lower"),
    ("limits.contraction_nnz", "count", "lower"),
    ("limits.image_route_s", "s", "lower"),
    ("limits.kernel_route_s", "s", "lower"),
    ("limits.self_s", "s", "lower"),
    ("limits.fiber_calls", "count", "lower"),
    ("linalg.rank_in_limits_s", "s", "lower"),
    ("linalg.kernel_basis_in_limits_s", "s", "lower"),
    ("linalg.limit_rows_s", "s", "lower"),
    ("linalg.blocks", "count", "lower"),
    ("linalg.block_cols_max", "count", "lower"),
    ("linalg.block_cols_mean", "count", "lower"),
    ("linalg.block_bits_max", "bits", "lower"),
    ("bott.legendrian_degree_s", "s", "lower"),
    ("bott.self_s", "s", "lower"),
    ("bott.degrees", "count", "lower"),
    ("pencil.pencil_degree_s", "s", "lower"),
    ("pencil.pd_twisted_weights_s", "s", "lower"),
    ("pencil.self_s", "s", "lower"),
    ("pencil.fiber_weights", "count", "lower"),
    ("exact.elementary_symmetric_s", "s", "lower"),
    ("exact.elementary_symmetric_calls", "count", "lower"),
    ("polyfit.interpolate_family_s", "s", "lower"),
    ("polyfit.lagrange_interpolate_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
)

COUNT_SPAN = "trace.count"


class Tracer:
    """Installs the hooks, records spans and counts, and restores the
    original functions on uninstall."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []
        self.op = -1
        self.counts = Counter()
        self.bases = {}
        self.missing = []
        self._stack = []
        self._patched = []

    def install(self):
        """Wrap every hook point that exists; return the ones that do not."""
        plan = []
        for hook in self.hooks:
            try:
                original = getattr(importlib.import_module(hook.module), hook.attr)
            except (ImportError, AttributeError):
                self.missing.append("%s.%s" % (hook.module, hook.attr))
                continue
            callers = hook.callers or sorted(
                n for n in sys.modules if n == "foldeg" or n.startswith("foldeg.")
            )
            holders = []
            for name in callers:
                module = sys.modules.get(name)
                if getattr(module, hook.attr, None) is original:
                    holders.append(module)
                elif hook.callers:
                    self.missing.append("%s as called from %s" % (hook.attr, name))
            plan.append((hook, original, holders))
        for hook, original, holders in plan:
            wrapper = self._wrap(hook, original)
            for module in holders:
                self._patched.append((module, hook.attr, original))
                setattr(module, hook.attr, wrapper)
        return self.missing

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, hook, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            name = hook.namer(args, kwargs) if hook.namer else hook.name
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook.counter:
                self._count(hook, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _count(self, hook, args, kwargs, result):
        # counting is a span of its own, so it is not charged to the layer
        # that made the call
        span = [COUNT_SPAN, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        try:
            hook.counter(self, args, kwargs, result)
        except (AttributeError, TypeError) as exc:
            note = "counter for %s: %s" % (hook.name, exc)
            if note not in self.missing:
                self.missing.append(note)
        span[2] = time.perf_counter()


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    covered, end = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            covered += e - s
            end = e
    return covered


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (name, start, end, parent, op) in enumerate(spans)
    ]


def _outermost(spans):
    """Indices of spans with no ancestor of the same name, so that nested
    calls of one function are timed once."""
    out = []
    for i, span in enumerate(spans):
        p = span[3]
        while p >= 0 and spans[p][0] != span[0]:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def span_totals(spans):
    """Inclusive time per span name, nested same-name calls counted once."""
    total = defaultdict(float)
    for i in _outermost(spans):
        total[spans[i][0]] += spans[i][2] - spans[i][1]
    return total


def layer_metrics(spans, counts):
    """The PER_LAYER metrics of one round, as {name: value}."""
    total = span_totals(spans)
    own = defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        own[span[0]] += t
    calls = Counter(span[0] for span in spans)
    routes = ROUTES.values()
    blocks = calls["linalg.limit_rows"]
    values = {
        "fields.basis_builds": counts["fields.basis_builds"],
        "fields.basis_cache_hits": counts["fields.basis_cache_hits"],
        "fields.basis_fields": counts["fields.basis_fields"],
        "limits.contraction_nnz": counts["limits.contraction_nnz"],
        "limits.self_s": sum(own[r] for r in routes),
        "limits.fiber_calls": sum(calls[r] for r in routes),
        "linalg.blocks": blocks,
        "linalg.block_cols_max": counts["linalg.block_cols_max"],
        "linalg.block_cols_mean": counts["linalg.block_cols_sum"] / blocks if blocks else 0,
        "linalg.block_bits_max": counts["linalg.block_bits_max"],
        "bott.self_s": own["bott.legendrian_degree"],
        "bott.degrees": calls["bott.legendrian_degree"],
        "pencil.self_s": own["pencil.pencil_degree"],
        "pencil.fiber_weights": counts["pencil.fiber_weights"],
        "exact.elementary_symmetric_calls": calls["exact.elementary_symmetric"],
    }
    for metric, unit, _ in PER_LAYER:
        if metric not in values:
            values[metric] = total[metric[: -len("_s")]]
    return {metric: values[metric] for metric, _, _ in PER_LAYER}


def op_layers(spans, nops):
    """Per operation: basis, contraction, the rest of limits (its self
    time) and limit_rows, in seconds -- the columns of a layer table."""
    column = {
        "fields.build_phi_basis": 0,
        "limits.build_contraction_matrix": 1,
        "linalg.limit_rows": 3,
    }
    routes = set(ROUTES.values())
    outer = set(_outermost(spans))
    rows = [[0.0] * 4 for _ in range(nops)]
    for i, own in enumerate(self_times(spans)):
        name, start, end, parent, op = spans[i]
        if not 0 <= op < nops:
            continue
        if name in routes:
            rows[op][2] += own
        elif name in column and i in outer:
            rows[op][column[name]] += end - start
    return rows
