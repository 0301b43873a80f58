"""Discrete-event simulation engine.

The engine is the substrate every NUMAchine component is built on.  Time is
kept in integer *ticks*; the machine configuration maps nanoseconds to ticks
(``TICKS_PER_NS = 3``) so that the 150 MHz CPU clock (6.67 ns) and the 50 MHz
bus/ring clocks (20 ns) are both exact integer periods and no floating-point
drift can reorder events.

Only *misses* and interconnect activity are event-driven; cache hits are
resolved synchronously inside the processor model (see
:mod:`repro.cpu.processor`), so the cost of a simulation run is proportional
to the number of messages exchanged, not to the number of cycles simulated.

The event loop is the hottest code in the whole simulator: every message,
bus grant and FIFO pump passes through :meth:`Engine.run`.  The queue is a
plain :mod:`heapq` list popped in the total order of ``(time, priority,
seq)`` keys; the heap lives in C, so neither a push nor a pop costs a
Python frame.

Components on the very hottest paths (bus grants, ring hops, the
ring-interface and memory/NC pumps) inline ``Engine.schedule`` by bumping
``engine._seq`` themselves and handing the finished event tuple to
``engine._push`` — the single insertion point, a ``heappush`` bound to the
queue.

Content-derived sequence keys
-----------------------------

The ``seq`` slot of an event tuple is normally allocated from the global
counter, which makes every event's scheduling *position* part of the
simulation's tie-break order.  Ring arrivals, their tail-lag bounces and
the port/service release events of the ring interfaces, network caches
and memory modules carry *content-derived* keys instead — values computed
from stable identity (:meth:`Engine.alloc_uid`, position, flit count)
that are identical no matter when the event was pushed.  These keys
define the same-tick tie-break order that the pinned protocol
fingerprints and the benchmark's surface hashes record, so they must not
be switched back to counter keys (nor uid allocation reordered):

* ``PRIO_ARRIVAL`` events (ring arrivals and their tail-lag bounces) use
  **positive** content keys; the counter is never used at that priority.
* ``PRIO_NORMAL`` content keys are **negative** (bitwise-not of a
  uid-based code), so they can never collide with counter values and sort
  as a deterministic block ahead of counter-keyed events at the same tick.

Uniqueness per ``(time, priority)`` is the scheduling site's obligation —
link occupancy spaces ring arrivals, module ``busy`` flags serialize
service loops — and is what keeps event tuples totally ordered without
ever comparing callbacks.
"""

from __future__ import annotations

import heapq
import time as _time
from functools import partial as _partial
from typing import Any, Callable, Optional

#: Integer ticks per nanosecond.  3 makes both a 6.67ns CPU cycle (20 ticks)
#: and a 20ns bus/ring cycle (60 ticks) exact.
TICKS_PER_NS = 3

_heappush = heapq.heappush
_heappop = heapq.heappop
_perf_counter = _time.perf_counter


def ns_to_ticks(ns: float) -> int:
    """Convert a duration in nanoseconds to integer engine ticks."""
    return round(ns * TICKS_PER_NS)


def ticks_to_ns(ticks: int) -> float:
    """Convert engine ticks back to nanoseconds."""
    return ticks / TICKS_PER_NS


class SimulationError(RuntimeError):
    """Raised for fatal simulation-model errors (protocol violations etc.)."""


class DeadlockError(SimulationError):
    """Raised when the event queue drains while work remains outstanding."""


class Engine:
    """A priority-queue discrete event scheduler.

    Events are ``(time, priority, seq, callback, arg)`` tuples.  ``seq`` is a
    monotonically increasing tie-breaker so same-time events run in schedule
    order, which makes runs exactly reproducible.  ``priority`` lets packet
    *arrival* events run before *injection* events at the same instant, which
    is how the slotted rings give through-traffic priority over new packets.
    """

    __slots__ = (
        "now",
        "_queue",
        "_push",
        "_seq",
        "_uid",
        "_events_run",
        "_running",
        "blocked_watchers",
        "wall_time_s",
        "watchdog",
        "sampler",
    )

    #: Priorities (lower runs first at equal time).
    PRIO_ARRIVAL = 0
    PRIO_NORMAL = 1
    PRIO_INJECT = 2

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list = []
        # zero Python frames per insertion: the C heappush bound to the queue
        self._push: Callable[[tuple], None] = _partial(_heappush, self._queue)
        self._seq: int = 0
        self._uid: int = 0
        self._events_run: int = 0
        self._running = False
        #: Set by components that are blocked waiting for something; checked
        #: on drain to distinguish completion from deadlock.
        self.blocked_watchers: list[Callable[[], Optional[str]]] = []
        #: cumulative wall-clock seconds spent inside :meth:`run`
        self.wall_time_s: float = 0.0
        #: liveness watchdog (repro.fault.Watchdog), or None when disabled
        self.watchdog = None
        #: periodic sampler (repro.obs.ProbeSet), or None when disabled
        self.sampler = None

    def alloc_uid(self) -> int:
        """Allocate a small identity integer for a component that schedules
        content-keyed events (see the module docstring).  Deterministic by
        construction order, which is itself fixed by the machine topology —
        so the same component gets the same uid in every run."""
        uid = self._uid
        self._uid = uid + 1
        return uid

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        arg: Any = None,
        priority: int = PRIO_NORMAL,
    ) -> None:
        """Run ``callback(arg)`` (or ``callback()`` if arg is None) after
        ``delay`` ticks."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq + 1
        self._seq = seq
        self._push((self.now + delay, priority, seq, callback, arg))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains or limits are reached.

        Returns the number of events processed in this call.

        Without a watchdog or a sampler this is a single uninterrupted
        :meth:`_run_core` call (the hot path pays only these two attribute
        loads).  With either, the same events run in chunks.  A chunk ends
        at the watchdog's next check (every ``watchdog.interval`` events of
        this call), at the sampler's next tick, or at the caller's
        ``until``/``max_events``.  Neither hook is an event: the watchdog
        checks at the same event counts as it would alone, and the sampler
        is called at each period boundary the model reaches and once more
        when the queue drains, at the time of the last event.  So ``now``,
        ``pending`` and ``events_run`` are those of an unhooked run.
        """
        wd = self.watchdog
        sampler = self.sampler
        if wd is None and sampler is None:
            return self._run_core(until, max_events)
        queue = self._queue
        limit = None if max_events is None else max(1, max_events)
        next_check = None if wd is None else wd.interval
        processed = 0
        tick = None
        while True:
            step = None if limit is None else limit - processed
            if next_check is not None:
                to_check = next_check - processed
                if step is None or to_check < step:
                    step = to_check
            stop = until
            if sampler is not None:
                tick = sampler.next_tick
                if stop is None or tick < stop:
                    stop = tick
            processed += self._run_core(stop, step)
            # a boundary is reached once every event at or before it has run
            if self.now == tick and (not queue or queue[0][0] > tick):
                sampler.sample(tick)
            if processed == next_check:
                wd.check(self, processed)
                next_check += wd.interval
            if not queue:
                if sampler is not None:
                    sampler.sample(self.now)
                break
            if processed == limit:
                break
            if self.now == until and queue[0][0] > until:
                break
        if wd is not None:
            wd.check(self, processed)
        return processed

    def _run_core(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        processed = 0
        # limit semantics match the original post-increment check: any
        # max_events <= 0 still lets exactly one event run.
        limit = -1 if max_events is None else max(1, max_events)
        queue = self._queue
        self._running = True
        wall_start = _perf_counter()
        try:
            pop = _heappop
            if until is None and limit < 0:
                # common case: drain with no limits — no per-event checks
                while queue:
                    when, _prio, _seq, callback, arg = pop(queue)
                    self.now = when
                    if arg is None:
                        callback()
                    else:
                        callback(arg)
                    processed += 1
            else:
                while queue:
                    if until is not None and queue[0][0] > until:
                        self.now = until
                        break
                    when, _prio, _seq, callback, arg = pop(queue)
                    self.now = when
                    if arg is None:
                        callback()
                    else:
                        callback(arg)
                    processed += 1
                    if processed == limit:
                        break
        finally:
            self._running = False
            self._events_run += processed
            self.wall_time_s += _perf_counter() - wall_start
        return processed

    def check_quiescent(self) -> None:
        """After a drain, raise :class:`DeadlockError` if any registered
        watcher reports outstanding blocked work."""
        if self._queue:
            return
        reasons = []
        for watcher in self.blocked_watchers:
            reason = watcher()
            if reason:
                reasons.append(reason)
        if reasons:
            raise DeadlockError(
                "event queue drained with blocked work:\n  " + "\n  ".join(reasons)
            )

    @property
    def pending(self) -> int:
        """Number of events currently queued."""
        return len(self._queue)

    @property
    def events_run(self) -> int:
        """Total events processed over the engine's lifetime."""
        return self._events_run

    @property
    def events_per_sec(self) -> float:
        """Lifetime event throughput (simulated events per wall-clock second
        spent inside :meth:`run`)."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self._events_run / self.wall_time_s

    def throughput(self) -> dict:
        """Wall-time / throughput meter snapshot for perf tracking."""
        return {
            "events_run": self._events_run,
            "wall_time_s": self.wall_time_s,
            "events_per_sec": self.events_per_sec,
        }
