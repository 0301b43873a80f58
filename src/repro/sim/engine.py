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
bus grant and FIFO pump passes through :meth:`Engine.run`.  Scheduling is
*pluggable* (see :mod:`repro.sim.sched`): the default is a calendar queue
whose per-event cost does not grow with the number of pending events — the
property that keeps the full 64-processor machine affordable — with the
binary heap retained as the reference implementation, selectable via the
``NUMACHINE_SCHED`` environment variable (or the ``scheduler=`` argument).
Event *ordering* is identical under every scheduler — the total order of
``(time, priority, seq)`` keys — so runs are bit-identical whichever is
active; the engine dispatches to a loop specialised for the scheduler in
use so neither pays an indirection per event.

Components on the very hottest paths (bus grants, memory/NC pumps) inline
``Engine.schedule`` by bumping ``engine._seq`` themselves and handing the
finished event tuple to ``engine._push`` — the single scheduler-agnostic
insertion point.

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
import os as _os
import time as _time
from functools import partial as _partial
from typing import Any, Callable, Optional

from .sched import HeapScheduler, make_scheduler

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
        "_sched",
        "_queue",
        "_push",
        "_auto_sched",
        "_seq",
        "_uid",
        "_events_run",
        "_running",
        "blocked_watchers",
        "wall_time_s",
        "watchdog",
    )

    #: Priorities (lower runs first at equal time).
    PRIO_ARRIVAL = 0
    PRIO_NORMAL = 1
    PRIO_INJECT = 2

    def __init__(
        self, scheduler: Optional[str] = None, num_cpus: Optional[int] = None
    ) -> None:
        self.now: int = 0
        # num_cpus is a sizing hint for scheduler auto-selection only; it
        # never changes simulation results (schedulers are bit-identical)
        self._auto_sched = not (scheduler or _os.environ.get("NUMACHINE_SCHED"))
        self._sched = make_scheduler(scheduler, num_cpus)
        self._bind_scheduler()
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

    def _bind_scheduler(self) -> None:
        if isinstance(self._sched, HeapScheduler):
            # heap fast path: pushes go straight to the C heappush bound to
            # the underlying list — zero Python frames per insertion
            self._queue: Optional[list] = self._sched._queue
            self._push: Callable[[tuple], None] = _partial(_heappush, self._queue)
        else:
            self._queue = None
            self._push = self._sched.push

    @property
    def scheduler_name(self) -> str:
        """Name of the active scheduler (``calendar`` or ``heap``)."""
        return self._sched.name

    def size_hint(self, num_cpus: int) -> None:
        """Refine the scheduler auto-selection with a better estimate of the
        active-processor count (e.g. the number of programs actually handed
        to :meth:`Machine.run`, which may be far below the machine size).

        Only acts when the choice was automatic (no ``scheduler=`` argument
        and no ``NUMACHINE_SCHED``) and the engine is still fresh — nothing
        scheduled, nothing run — so the swap can never reorder anything.
        Scheduler choice is invisible in results either way (bit-identical);
        this only picks the faster implementation for the event population
        the run will actually generate.
        """
        if not self._auto_sched or self._seq or self._events_run or self._sched:
            return
        sched = make_scheduler(None, num_cpus)
        if sched.name != self._sched.name:
            self._sched = sched
            self._bind_scheduler()

    def alloc_uid(self) -> int:
        """Allocate a small identity integer for a component that schedules
        content-keyed events (see the module docstring).  Deterministic by
        construction order, which is itself fixed by the machine topology —
        so the same component gets the same uid in every run and backend."""
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

    def schedule_at(
        self,
        when: int,
        callback: Callable[..., None],
        arg: Any = None,
        priority: int = PRIO_NORMAL,
    ) -> None:
        """Run ``callback`` at absolute tick ``when`` (>= now)."""
        if when < self.now:
            raise SimulationError(f"schedule_at in the past: {when} < {self.now}")
        seq = self._seq + 1
        self._seq = seq
        self._push((when, priority, seq, callback, arg))

    def schedule_keyed_at(
        self,
        when: int,
        key: int,
        callback: Callable[..., None],
        arg: Any = None,
        priority: int = PRIO_ARRIVAL,
    ) -> None:
        """Schedule with a *content-derived* seq key instead of the global
        counter (see the module docstring).  The caller guarantees ``key``
        is unique among events pending at ``(when, priority)``."""
        if when < self.now:
            raise SimulationError(f"schedule_at in the past: {when} < {self.now}")
        self._push((when, priority, key, callback, arg))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains or limits are reached.

        Returns the number of events processed in this call.

        With a watchdog attached the loop runs in chunks of
        ``watchdog.interval`` events, giving the watchdog a chance to bound
        runaway time/event growth between chunks; without one this is a
        single uninterrupted :meth:`_run_core` call (the hot path pays only
        this attribute load).
        """
        wd = self.watchdog
        if wd is None:
            return self._run_core(until, max_events)
        if max_events is not None:
            max_events = max(1, max_events)
        processed = 0
        interval = wd.interval
        while True:
            step = interval
            if max_events is not None:
                remaining = max_events - processed
                if remaining <= 0:
                    break
                if remaining < step:
                    step = remaining
            n = self._run_core(until, step)
            processed += n
            wd.check(self, processed)
            if n < step:
                break
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
            if queue is not None:
                # ---------------- binary heap (reference) ----------------
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
                elif until is None:
                    while queue:
                        when, _prio, _seq, callback, arg = pop(queue)
                        self.now = when
                        if arg is None:
                            callback()
                        else:
                            callback(arg)
                        processed += 1
                        if processed == limit:
                            break
                else:
                    while queue:
                        when = queue[0][0]
                        if when > until:
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
            else:
                # ---------------- calendar queue (default) ----------------
                # The bucket drain is inlined: the active bucket is consumed
                # left-to-right by index, so the per-event cost is a list
                # index plus bookkeeping — independent of how many events
                # are pending.  Callbacks may push while we drain; pushes
                # into the active bucket keep its tail sorted (sched.push),
                # so re-reading _cur/_cur_i each iteration is sufficient.
                sched = self._sched
                if until is None and limit < 0:
                    while True:
                        i = sched._cur_i
                        cur = sched._cur
                        if i >= len(cur):
                            if not sched._advance():
                                break
                            cur = sched._cur
                            i = 0
                        sched._cur_i = i + 1
                        when, _prio, _seq, callback, arg = cur[i]
                        self.now = when
                        if arg is None:
                            callback()
                        else:
                            callback(arg)
                        processed += 1
                else:
                    while True:
                        i = sched._cur_i
                        cur = sched._cur
                        if i >= len(cur):
                            if not sched._advance():
                                break
                            cur = sched._cur
                            i = 0
                        when = cur[i][0]
                        if until is not None and when > until:
                            self.now = until
                            break
                        sched._cur_i = i + 1
                        when, _prio, _seq, callback, arg = cur[i]
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
        if self._sched:
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
        return len(self._sched)

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
            "scheduler": self._sched.name,
        }
