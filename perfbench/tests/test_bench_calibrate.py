"""Calibrated times: probes inside an operation are taken out, and the
rest is divided by the slowdown the probes around it measured."""

import signal
import time

import pytest

import calibrate


def sampler_with(samples):
    s = calibrate.Sampler()
    s.samples = list(samples)
    return s


def test_probes_inside_are_subtracted_and_the_rest_scaled():
    ref = calibrate.REF_S
    # 20 probes at twice the reference time, inside the operation
    inside = [(1.0 + 0.1 * k, 2 * ref, 2 * ref) for k in range(calibrate.NEAREST)]
    s = sampler_with(inside)
    probes = calibrate.NEAREST * 2 * ref
    wall, cpu = s.calibrated(1.0, 4.0, 2.5)
    assert wall == pytest.approx((3.0 - probes) / 2)
    assert cpu == pytest.approx((2.5 - probes) / 2)


def test_a_short_operation_borrows_the_nearest_probes():
    ref = calibrate.REF_S
    near = [(0.9 - 0.01 * k, 3 * ref, 3 * ref) for k in range(calibrate.NEAREST)]
    far = [(50.0 + k, ref, ref) for k in range(calibrate.NEAREST)]
    s = sampler_with(far + near)
    wall, cpu = s.calibrated(1.0, 1.3, 0.3)
    assert wall == pytest.approx(0.1)
    assert cpu == pytest.approx(0.1)


def test_the_sampler_probes_while_code_runs_and_stops():
    s = calibrate.Sampler()
    s.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    s.stop()
    count = len(s.samples)
    assert count >= calibrate.NEAREST
    assert all(t0 - 1 < start < t0 + 5 for start, _, _ in s.samples)
    time.sleep(2 * calibrate.INTERVAL_S)
    assert len(s.samples) == count


def test_a_tick_that_runs_after_stop_does_not_re_arm_the_timer():
    s = calibrate.Sampler()
    s.start()
    s.stop()
    count = len(s.samples)
    s._tick(signal.SIGALRM, None)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(s.samples) == count
