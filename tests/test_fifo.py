"""Tests for the bounded FIFO with backpressure."""

import pytest

from repro.sim.fifo import Fifo, FifoFullError


def test_fifo_order():
    f = Fifo("t", capacity=4)
    for i in range(3):
        f.push(i, now=i)
    assert [f.pop(now=10) for _ in range(3)] == [0, 1, 2]


def test_capacity_and_overflow():
    f = Fifo("t", capacity=2)
    f.push("a", 0)
    f.push("b", 0)
    assert f.full
    with pytest.raises(FifoFullError):
        f.push("c", 0)


def test_high_water_default():
    f = Fifo("t", capacity=10)
    assert f.high_water == 8
    for i in range(7):
        f.push(i, 0)
    assert not f.pressured
    f.push(7, 0)
    assert f.pressured


def test_wait_time_accounting():
    f = Fifo("t")
    f.push("x", now=100)
    f.pop(now=160)
    snap = f.stats_snapshot(now=160)
    assert snap["wait_count"] == 1
    assert snap["wait_mean_ticks"] == 60


def test_max_depth_tracked():
    f = Fifo("t")
    for i in range(5):
        f.push(i, 0)
    f.pop(0)
    f.push(9, 0)
    assert f.max_depth == 5


def test_unbounded_fifo_never_full():
    f = Fifo("t", capacity=None)
    for i in range(1000):
        assert f.push(i, 0) is False
    assert not f.full
    assert not f.pressured


def test_mean_depth_time_weighted():
    f = Fifo("t")
    # depth 0 over [0,10), depth 1 over [10,30), depth 2 over [30,40),
    # depth 1 over [40,100): area = 0 + 20 + 20 + 60 = 100
    f.push("a", now=10)
    f.push("b", now=30)
    f.pop(now=40)
    assert f.mean_depth(100) == pytest.approx(1.0)
    # a deeper interval moves the mean even after it ends
    assert f.mean_depth(40) == pytest.approx(40 / 40)


def test_mean_depth_at_time_zero():
    f = Fifo("t")
    assert f.mean_depth(0) == 0.0
    f.push("a", 0)
    assert f.mean_depth(0) == 1.0


def test_stats_snapshot_contents():
    f = Fifo("t", capacity=8)
    f.push("a", now=0)
    f.push("b", now=10)
    f.pop(now=20)
    snap = f.stats_snapshot(now=20)
    assert snap["depth"] == 1
    assert snap["capacity"] == 8
    assert snap["max_depth"] == 2
    assert snap["pushes"] == 2
    assert snap["wait_count"] == 1
    assert snap["wait_mean_ticks"] == 20
    # area: 1*[0,10) + 2*[10,20) = 30 -> mean 1.5
    assert snap["mean_depth"] == pytest.approx(1.5)


# ----------------------------------------------------------------------
# push reports pressure: the ring interfaces halt their upstream link on it
# ----------------------------------------------------------------------
def test_push_reports_pressure_from_high_water_up():
    f = Fifo("t", capacity=6, high_water=3)
    flags = []
    for i in range(6):
        flags.append(f.push(i, 0))
        assert flags[-1] == f.pressured
    assert flags == [False, False, True, True, True, True]
    for _ in range(5):
        f.pop(0)
    assert f.push("x", 0) is False   # depth 2
    assert f.push("y", 0) is True    # depth 3: the mark itself counts


def test_push_follows_limits_lowered_after_construction():
    f = Fifo("t", capacity=10)
    assert f.high_water == 8
    assert f.push("a", 0) is False
    f.high_water = 2                 # as FaultInjector.attach lowers it
    assert f.push("b", 0) is True
    f.capacity = 3
    assert f.push("c", 0) is True
    with pytest.raises(FifoFullError):
        f.push("d", 0)


def test_push_at_capacity_raises_and_keeps_contents():
    f = Fifo("t", capacity=3, high_water=1)
    assert [f.push(i, 0) for i in range(3)] == [True, True, True]
    with pytest.raises(FifoFullError):
        f.push("x", 0)
    assert len(f) == 3 and f.pushes == 3 and f.max_depth == 3
