"""Determinism and limit semantics of the fast-path event core.

The engine's optimization contract: event *ordering* is exactly the
``(time, priority, seq)`` heap key, ``run`` limits behave as documented,
and two identical machine runs replay the same event stream down to every
statistic.  These tests pin that contract so future engine work cannot
drift it.
"""

from __future__ import annotations

from repro.sim.engine import Engine
from repro.system.config import MachineConfig
from repro.system.machine import Machine
from repro.workloads.synthetic import HotSpot


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------
def test_same_tick_priority_orders_events():
    eng = Engine()
    order = []
    eng.schedule(5, lambda: order.append("inject"), priority=Engine.PRIO_INJECT)
    eng.schedule(5, lambda: order.append("normal"), priority=Engine.PRIO_NORMAL)
    eng.schedule(5, lambda: order.append("arrival"), priority=Engine.PRIO_ARRIVAL)
    eng.run()
    assert order == ["arrival", "normal", "inject"]


def test_same_tick_same_priority_runs_in_schedule_order():
    eng = Engine()
    order = []
    for i in range(20):
        eng.schedule(7, order.append, i)
    eng.run()
    assert order == list(range(20))


def test_priority_beats_seq_only_at_equal_time():
    eng = Engine()
    order = []
    eng.schedule(3, lambda: order.append("late-arrival"), priority=Engine.PRIO_ARRIVAL)
    eng.schedule(1, lambda: order.append("early-inject"), priority=Engine.PRIO_INJECT)
    eng.run()
    assert order == ["early-inject", "late-arrival"]


# ----------------------------------------------------------------------
# run() limits
# ----------------------------------------------------------------------
def test_run_until_advances_clock_to_until():
    eng = Engine()
    fired = []
    eng.schedule(10, fired.append, "a")
    eng.schedule(100, fired.append, "b")
    processed = eng.run(until=50)
    assert processed == 1
    assert fired == ["a"]
    # clock parks exactly at the horizon, not at the next event's time
    assert eng.now == 50
    assert eng.pending == 1
    # resuming picks the remaining event up unchanged
    eng.run()
    assert fired == ["a", "b"]
    assert eng.now == 100


def test_run_until_at_event_time_is_inclusive():
    eng = Engine()
    fired = []
    eng.schedule(50, fired.append, "edge")
    eng.run(until=50)
    assert fired == ["edge"]
    assert eng.now == 50


def test_max_events_stops_early_and_preserves_queue():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(i, order.append, i)
    processed = eng.run(max_events=4)
    assert processed == 4
    assert order == [0, 1, 2, 3]
    assert eng.pending == 6
    # a second limited call continues exactly where the first stopped
    assert eng.run(max_events=2) == 2
    assert order == [0, 1, 2, 3, 4, 5]
    eng.run()
    assert order == list(range(10))


def test_events_run_accumulates_across_calls():
    eng = Engine()
    for i in range(6):
        eng.schedule(i, lambda: None)
    eng.run(max_events=2)
    eng.run()
    assert eng.events_run == 6


def test_throughput_meter_counts_events_and_wall_time():
    eng = Engine()
    for i in range(100):
        eng.schedule(i, lambda: None)
    eng.run()
    meter = eng.throughput()
    assert meter["events_run"] == 100
    assert meter["wall_time_s"] > 0.0
    assert meter["events_per_sec"] == eng.events_per_sec > 0.0


# ----------------------------------------------------------------------
# whole-machine determinism
# ----------------------------------------------------------------------
def _run_hotspot():
    machine = Machine(MachineConfig.small(stations_per_ring=2, rings=2, cpus=2))
    HotSpot(words=16, ops=60).run(machine, nprocs=8)
    return machine


def test_identical_runs_produce_identical_machine_state():
    a = _run_hotspot()
    b = _run_hotspot()
    assert a.engine.events_run == b.engine.events_run
    assert a.engine.now == b.engine.now
    assert a.nc_stats() == b.nc_stats()
    assert a.memory_stats() == b.memory_stats()
    assert a.utilizations() == b.utilizations()
    assert a.ring_interface_delays() == b.ring_interface_delays()
