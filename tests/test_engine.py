"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    TICKS_PER_NS,
    DeadlockError,
    Engine,
    SimulationError,
    ns_to_ticks,
    ticks_to_ns,
)


def test_tick_conversion_is_exact_for_machine_clocks():
    # 150 MHz CPU and 50 MHz bus/ring must be integer tick periods
    assert ns_to_ticks(20 / 3) == 20
    assert ns_to_ticks(20.0) == 60
    assert ticks_to_ns(ns_to_ticks(20.0)) == 20.0
    assert TICKS_PER_NS == 3


def test_events_run_in_time_order():
    engine = Engine()
    log = []
    engine.schedule(30, lambda: log.append("c"))
    engine.schedule(10, lambda: log.append("a"))
    engine.schedule(20, lambda: log.append("b"))
    engine.run()
    assert log == ["a", "b", "c"]
    assert engine.now == 30


def test_same_time_events_run_in_schedule_order():
    engine = Engine()
    log = []
    for i in range(10):
        engine.schedule(5, lambda i=i: log.append(i))
    engine.run()
    assert log == list(range(10))


def test_priority_breaks_ties():
    engine = Engine()
    log = []
    engine.schedule(5, lambda: log.append("inject"), priority=Engine.PRIO_INJECT)
    engine.schedule(5, lambda: log.append("arrival"), priority=Engine.PRIO_ARRIVAL)
    engine.run()
    assert log == ["arrival", "inject"]


def test_schedule_with_argument():
    engine = Engine()
    got = []
    engine.schedule(1, got.append, "payload")
    engine.run()
    assert got == ["payload"]


def test_nested_scheduling_advances_time():
    engine = Engine()
    times = []

    def first():
        times.append(engine.now)
        engine.schedule(7, second)

    def second():
        times.append(engine.now)

    engine.schedule(3, first)
    engine.run()
    assert times == [3, 10]


def test_run_until_stops_before_later_events():
    engine = Engine()
    log = []
    engine.schedule(10, lambda: log.append("early"))
    engine.schedule(100, lambda: log.append("late"))
    engine.run(until=50)
    assert log == ["early"]
    assert engine.now == 50
    assert engine.pending == 1


def test_run_max_events():
    engine = Engine()
    log = []
    for i in range(5):
        engine.schedule(i + 1, lambda i=i: log.append(i))
    processed = engine.run(max_events=2)
    assert processed == 2
    assert log == [0, 1]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_check_quiescent_raises_when_watcher_reports():
    engine = Engine()
    engine.blocked_watchers.append(lambda: "cpu 3 stuck")
    with pytest.raises(DeadlockError, match="cpu 3 stuck"):
        engine.check_quiescent()


def test_check_quiescent_silent_when_events_pending():
    engine = Engine()
    engine.blocked_watchers.append(lambda: "stuck")
    engine.schedule(1, lambda: None)
    engine.check_quiescent()  # no raise: queue is not drained


def test_events_run_counter():
    engine = Engine()
    for _ in range(7):
        engine.schedule(1, lambda: None)
    engine.run()
    assert engine.events_run == 7
