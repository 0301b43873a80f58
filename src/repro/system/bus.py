"""The station bus (paper §2, Fig. 2).

All modules on a station — processors, the memory module, the network
cache, and the ring interface — share one bus using the FutureBus
mechanical/electrical spec with custom control.  The model is an arbitrated
serial resource: a transaction asks for the bus for a duration (command
beat, optionally followed by line-data beats); grants are FIFO.

The network cache obviates snooping (§3.1.4), so the bus is purely
point-to-point-with-broadcast-data: a responding module's single data
transfer can be picked up by both the requesting processor and the
memory/NC ("the processor forwards a copy to the requesting processor and
to the memory module" rides one transaction).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..sim.engine import Engine
from ..sim.stats import BusyTracker, Counter

_PRIO_NORMAL = Engine.PRIO_NORMAL


# The event callbacks below are module-level functions that carry their
# component in the event argument, so pushing an event allocates one tuple
# and never a bound method.  Each one grants the next transfer inline
# (Engine.schedule inlined: the arbitration and transfer ticks are
# non-negative), which makes them the busiest scheduling sites of a run.
def _bus_complete(arg) -> None:
    """A transfer finished: run its completion, then grant the next one.

    A completion is a callable ``on_complete(start_tick)`` or, for the two
    hottest transfers, a data tuple: ``(target, pkt)`` delivers
    ``target.handle(pkt)`` (a processor's request), and ``(cpu, addr,
    None)`` calls ``cpu.nack_from_module(addr)`` (a NACK to a processor).
    """
    bus, start, on_complete = arg
    if type(on_complete) is tuple:
        if len(on_complete) == 2:
            target, pkt = on_complete
            target.handle(pkt)
        else:
            on_complete[0].nack_from_module(on_complete[1])
    else:
        on_complete(start)
    queue = bus._queue
    if not queue:
        bus._busy = False
        return
    duration, on_complete = queue.popleft()
    bus.busy.busy += duration
    bus.transactions.value += 1
    engine = bus.engine
    start = engine.now + bus.arb_ticks
    seq = engine._seq + 1
    engine._seq = seq
    engine._push((start + duration, _PRIO_NORMAL, seq, _bus_complete,
                  (bus, start, on_complete)))


def _port_issue(arg) -> None:
    """An ordered port's head transaction is ready: hand it to the bus,
    then release the port's next transaction.  The bus queue is itself
    FIFO, so the next one may follow as soon as this one has entered it."""
    port, duration, on_complete = arg
    bus = port.bus
    engine = port.engine
    if bus._busy:
        bus._queue.append((duration, on_complete))
    else:
        bus._busy = True
        bus.busy.busy += duration
        bus.transactions.value += 1
        start = engine.now + bus.arb_ticks
        seq = engine._seq + 1
        engine._seq = seq
        engine._push((start + duration, _PRIO_NORMAL, seq, _bus_complete,
                      (bus, start, on_complete)))
    queue = port._queue
    if not queue:
        port._busy = False
        return
    ready, duration, on_complete = queue.popleft()
    now = engine.now
    if ready < now:
        ready = now
    seq = engine._seq + 1
    engine._seq = seq
    engine._push((ready, _PRIO_NORMAL, seq, _port_issue, (port, duration, on_complete)))


class Bus:
    """A single arbitrated station bus.

    :meth:`request` queues a transaction of ``duration`` ticks; when the
    transfer *completes*, ``on_complete(start_tick)`` is invoked (or the
    data tuple is delivered, see :func:`_bus_complete`).  A fixed
    arbitration cost is charged per transaction (it does not occupy the
    data path and so is not counted as busy time when overlapped).  An
    idle bus has an empty queue: a request to it is granted at once.
    """

    __slots__ = ("engine", "name", "arb_ticks", "_queue", "_busy", "busy", "transactions")

    def __init__(self, engine: Engine, name: str, arb_ticks: int) -> None:
        self.engine = engine
        self.name = name
        self.arb_ticks = arb_ticks
        self._queue: Deque[Tuple[int, object]] = deque()
        self._busy = False
        self.busy = BusyTracker(f"{name}.busy")
        self.transactions = Counter(f"{name}.transactions")

    def request(self, duration: int, on_complete) -> None:
        """Queue a transaction occupying the bus for ``duration`` ticks."""
        if self._busy:
            self._queue.append((duration, on_complete))
            return
        self._busy = True
        self.busy.busy += duration
        self.transactions.value += 1
        engine = self.engine
        start = engine.now + self.arb_ticks
        seq = engine._seq + 1
        engine._seq = seq
        engine._push((start + duration, _PRIO_NORMAL, seq, _bus_complete,
                      (self, start, on_complete)))

    def utilization(self, now: int) -> float:
        return self.busy.utilization(now)

    def start_window(self, now: int) -> None:
        self.busy.start_window(now)


class OrderedPort:
    """A module's output FIFO onto the bus (the memory module's "Out FIFO"
    of Fig. 10).

    Coherence correctness requires that a module's bus actions reach the
    bus *in issue order* even when some are delayed by DRAM access time —
    e.g. a data grant being prepared must not be overtaken by a later
    intervention for the same line.  Actions enter this FIFO when issued
    and are handed to the bus arbiter in order, each no earlier than its
    ready time.  An idle port has an empty queue: a send to it pushes its
    issue event at once.
    """

    __slots__ = ("engine", "bus", "_queue", "_busy")

    def __init__(self, engine: Engine, bus: Bus) -> None:
        self.engine = engine
        self.bus = bus
        self._queue: Deque[Tuple[int, int, object]] = deque()
        self._busy = False

    def send(self, delay: int, duration: int, on_complete) -> None:
        """Issue a bus transaction of ``duration`` ticks that becomes ready
        ``delay`` ticks from now; ``on_complete(start)`` fires (or the data
        tuple is delivered) when the bus transfer finishes."""
        engine = self.engine
        now = engine.now
        if self._busy:
            self._queue.append((now + delay, duration, on_complete))
            return
        self._busy = True
        ready = now + delay if delay > 0 else now
        seq = engine._seq + 1
        engine._seq = seq
        engine._push((ready, _PRIO_NORMAL, seq, _port_issue, (self, duration, on_complete)))
