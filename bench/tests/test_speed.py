"""The speed correction leaves figures alone at nominal kernel speed and scales them otherwise."""

import time

import pytest

from bench import speed


def test_factor_is_one_at_nominal_kernel_time():
    assert speed.factor([speed.NOMINAL_KERNEL_S] * 4) == 1.0


def test_factor_uses_the_mean_kernel_time():
    nominal = speed.NOMINAL_KERNEL_S
    assert speed.factor([2 * nominal]) == pytest.approx(0.5)
    assert speed.factor([nominal, 3 * nominal]) == pytest.approx(0.5)


def sleeping_kernel(seconds):
    def run():
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
    return run


def test_meter_gives_the_nominal_figure_when_the_kernel_runs_at_nominal_time():
    meter = speed.Meter(kernel_fn=sleeping_kernel(speed.NOMINAL_KERNEL_S))
    with meter:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        f = meter.close()
    assert len(meter.kernel_times) > speed.START_RUNS + 3  # the timer sampled the work
    assert f == pytest.approx(1.0, rel=0.05)
    assert 0.2 * f == pytest.approx(0.2, rel=0.05)


def test_meter_corrects_each_block_by_the_kernel_runs_inside_it_and_before_it():
    times = iter([0.001] * speed.START_RUNS + [0.003, 0.004, 0.006])
    meter = speed.Meter(kernel_fn=lambda: None)
    meter.sample = lambda *args: (meter._block.append(next(times)))
    for _ in range(speed.START_RUNS):
        meter.sample()
    meter.sample()                 # a timer run inside the block: 0.003
    first = meter.close()          # closing run: 0.004
    assert first == pytest.approx(speed.NOMINAL_KERNEL_S / ((10 * 0.001 + 0.003 + 0.004) / 12))
    assert meter.close() == pytest.approx(speed.NOMINAL_KERNEL_S / 0.005)  # 0.004 and 0.006


def test_clock_excludes_kernel_runs():
    meter = speed.Meter(kernel_fn=sleeping_kernel(0.05))
    start_wall, start = time.perf_counter_ns(), meter.clock()
    meter.sample()
    assert time.perf_counter_ns() - start_wall >= 50_000_000
    assert meter.clock() - start < 5_000_000


def test_kernel_is_fixed_work():
    assert speed.kernel() == speed.kernel()
