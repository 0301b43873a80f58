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
        f.push(i, 0)
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
