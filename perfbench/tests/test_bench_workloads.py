"""Inputs drawn from a seed are admissible and reproducible."""

import foldeg
import workloads


def test_drawn_weight_systems_are_admissible_and_distinct():
    orders = set()
    for seed in range(1000):
        drawn = workloads.draw_weight_systems(seed)
        assert len(drawn) == len(set(drawn)) == 2
        for w, base in zip(drawn, workloads.BASE_SYSTEMS):
            assert workloads.is_admissible(w)
            assert foldeg.WeightSystem(w).is_admissible()
            assert w != workloads.DEFAULT_WEIGHTS
            assert sorted(w) == sorted(base)
        orders.add(tuple(drawn))
    assert len(orders) > 100


def test_the_same_seed_gives_the_same_inputs():
    for workload in workloads.WORKLOADS:
        for seed in (0, 1, 7, 12345):
            assert workloads.make_ops(workload, seed) == workloads.make_ops(workload, seed)


def test_admissibility_agrees_with_the_program():
    for w in [(0, 1, 2, 3), (0, 2, 7, 10), (1, 1, 5, 9), (0, 1, 5, 13), (0, 3, 4, 7)]:
        assert workloads.is_admissible(w) == foldeg.WeightSystem(w).is_admissible()


def test_workload_shapes():
    sweep = workloads.make_ops("legendrian-sweep", 1)
    assert [op.d for op in sweep[:-1]] == list(range(2, 18))
    assert sweep == workloads.make_ops("legendrian-sweep", 2)
    assert sweep[-1].kind == "interpolate"
    cross = workloads.make_ops("legendrian-crosscheck", 1)
    assert len(cross) == 3 * 7 + 1 and cross[-1].kind == "verify"
    assert {op.method for op in cross[:-1]} == {"both"}
    pencil = workloads.make_ops("pencil-sweep", 1)
    assert len(pencil) == 3 * 29 + 1 and pencil[-1].kind == "interpolate"
    assert len({op.weights for op in pencil[:-1]}) == 3
