"""Self time, layer metrics and hook installation of the tracer."""

import json
import os

import pytest

import foldeg
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_of_a_hand_built_tree():
    spans = [
        span("bott.legendrian_degree", 0.0, 10.0, -1),  # 0
        span("limits.image_route", 1.0, 4.0, 0),  # 1
        span("fields.build_phi_basis", 1.5, 2.5, 1),  # 2
        span("linalg.limit_rows", 3.0, 3.5, 1),  # 3
        span("limits.image_route", 5.0, 9.0, 0),  # 4
        span("linalg.limit_rows", 6.0, 6.25, 4),  # 5
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 1.5, 1.0, 0.5, 3.75, 0.25])
    # grandchildren do not count against the root: its self time is its
    # duration minus its direct children only
    assert sum(own) == pytest.approx(10.0)


def test_self_time_counts_overlap_once_and_clips_to_the_parent():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 3.0, 0),
        span("b", 2.0, 4.0, 0),
        span("c", 8.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 3.0 - 2.0)


def test_layer_metrics_of_a_hand_built_tree():
    spans = [
        span("bott.legendrian_degree", 0.0, 10.0, -1),
        span("limits.both_routes", 0.5, 9.5, 0),
        span("limits.image_route", 1.0, 4.0, 1),
        span("linalg.limit_rows", 2.0, 3.0, 2),
        span("limits.kernel_route", 4.0, 9.0, 1),
        span("linalg.rank_in_limits", 5.0, 6.0, 4),
    ]
    counts = {"linalg.block_cols_sum": 6, "linalg.block_cols_max": 6}
    m = tracing.layer_metrics(spans, __import__("collections").Counter(counts))
    assert list(m) == [name for name, _, _ in tracing.PER_LAYER]
    assert m["limits.image_route_s"] == pytest.approx(3.0)
    assert m["limits.kernel_route_s"] == pytest.approx(5.0)
    # both_routes 9 - 8, image 3 - 1, kernel 5 - 1
    assert m["limits.self_s"] == pytest.approx(1.0 + 2.0 + 4.0)
    assert m["limits.fiber_calls"] == 3
    assert m["bott.self_s"] == pytest.approx(1.0)
    assert m["linalg.blocks"] == 1
    assert m["linalg.block_cols_mean"] == 6
    assert m["linalg.rank_in_limits_s"] == pytest.approx(1.0)


def test_nested_calls_of_one_function_are_timed_once():
    spans = [span("cli.main", 0.0, 4.0, -1), span("cli.main", 1.0, 2.0, 0)]
    assert tracing.span_totals(spans)["cli.main"] == pytest.approx(4.0)


def test_tracer_wraps_and_restores_the_program():
    before = foldeg.pencil.pd_twisted_weights
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        tracer.op = 0
        foldeg.pencil_degree(2, (0, 2, 7, 10))
        foldeg.legendrian_degree(2)
    finally:
        tracer.uninstall()
    assert foldeg.pencil.pd_twisted_weights is before
    names = {s[0] for s in tracer.spans}
    assert {"pencil.pencil_degree", "pencil.pd_twisted_weights",
            "exact.elementary_symmetric", "bott.legendrian_degree",
            "limits.image_route", "limits.kernel_route", "limits.both_routes",
            "fields.build_phi_basis", "linalg.limit_rows"} <= names
    m = tracing.layer_metrics(tracer.spans, tracer.counts)
    # six fixed points each ask for the basis twice (one per route)
    assert m["fields.basis_builds"] + m["fields.basis_cache_hits"] == 12
    assert m["pencil.fiber_weights"] == 6 * (20 - 4)
    assert m["bott.degrees"] == 1


def test_missing_hook_points_are_listed():
    hooks = tracing.HOOKS + (
        tracing.Hook("x.gone", "foldeg.limits", "no_such_function", None, None, None),
        tracing.Hook("x.elsewhere", "foldeg.linalg", "rank", ("foldeg.pencil",), None, None),
    )
    tracer = tracing.Tracer(hooks)
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert missing == ["foldeg.limits.no_such_function", "rank as called from foldeg.pencil"]


def test_benchmark_json_lists_the_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
