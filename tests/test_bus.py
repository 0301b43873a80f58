"""Tests for the station bus and the ordered module output port."""

from repro.sim.engine import Engine
from repro.system.bus import Bus, OrderedPort


def test_bus_serializes_transactions():
    engine = Engine()
    bus = Bus(engine, "b", arb_ticks=10)
    done = []
    bus.request(100, lambda: done.append(("a", engine.now)))
    bus.request(50, lambda: done.append(("b", engine.now)))
    engine.run()
    # first: arb 10 + 100 = completes at 110; second: grant at 110 + arb + 50
    assert done == [("a", 110), ("b", 170)]


def test_bus_busy_accounting_excludes_arbitration():
    engine = Engine()
    bus = Bus(engine, "b", arb_ticks=10)
    bus.request(100, lambda: None)
    engine.run()
    assert bus.busy_ticks == 100
    assert bus.transactions == 1


def test_bus_utilization():
    engine = Engine()
    bus = Bus(engine, "b", arb_ticks=0)
    bus.request(30, lambda: None)
    engine.run()
    engine.schedule(70, lambda: None)
    engine.run()
    assert abs(bus.utilization(engine.now) - 0.3) < 1e-9


def test_bus_utilization_covers_the_whole_run():
    engine = Engine()
    bus = Bus(engine, "b", arb_ticks=0)
    assert bus.utilization(0) == 0.0
    bus.request(30, lambda: None)
    engine.run()
    assert bus.utilization(now=100) == 0.30
    bus.request(50, lambda: None)
    engine.run()
    assert bus.utilization(now=200) == 0.40


def test_bus_utilization_clamps_to_one():
    # busy ticks are credited at grant time, so a window that ends inside
    # a transfer would read above 1 without the clamp
    engine = Engine()
    bus = Bus(engine, "b", arb_ticks=0)
    bus.request(500, lambda: None)
    assert bus.utilization(now=100) == 1.0


def test_ordered_port_preserves_issue_order_despite_delays():
    """The coherence-critical property: an action issued earlier but with a
    longer ready delay still reaches the bus first."""
    engine = Engine()
    bus = Bus(engine, "b", arb_ticks=0)
    port = OrderedPort(engine, bus)
    order = []
    port.send(500, 10, lambda: order.append("slow-first"))
    port.send(0, 10, lambda: order.append("fast-second"))
    engine.run()
    assert order == ["slow-first", "fast-second"]


def test_ordered_port_respects_ready_time():
    engine = Engine()
    bus = Bus(engine, "b", arb_ticks=0)
    port = OrderedPort(engine, bus)
    times = []
    port.send(300, 10, lambda: times.append(engine.now))
    engine.run()
    assert times[0] == 310  # waits for readiness, then 10 ticks of transfer


def test_ordered_port_interleaves_with_direct_requests():
    """Direct bus users and the port share the same FIFO arbiter; the port
    adds one scheduling step, so a simultaneous direct request wins the
    arbiter, but both complete."""
    engine = Engine()
    bus = Bus(engine, "b", arb_ticks=0)
    port = OrderedPort(engine, bus)
    order = []
    port.send(0, 10, lambda: order.append("port"))
    bus.request(10, lambda: order.append("direct"))
    engine.run()
    assert sorted(order) == ["direct", "port"]
