"""Pluggable event schedulers: binary heap and calendar queue.

The engine's event order is the total order of ``(time, priority, seq)``
keys; any scheduler that pops events in exactly that order produces
bit-identical simulations.  Two implementations are provided:

* :class:`HeapScheduler` — the reference implementation, a thin wrapper
  around :mod:`heapq`.  O(log n) per operation with a very small constant
  (the heap itself lives in C).

* :class:`CalendarQueue` — a bucketed timing wheel.  Events hash into
  buckets of ``width`` ticks by absolute time (``time // width``); a bucket
  is sorted lazily, once, when the clock reaches it, and then drained by a
  moving index — O(1) per event regardless of how many events are pending,
  which is what keeps per-event cost flat as the machine grows to the full
  64-processor configuration.  The default width is the bus/ring cycle
  (60 ticks): almost all of the simulator's delays are small multiples of
  it, so a bucket holds a handful of near-simultaneous events.

The active scheduler is chosen by the ``NUMACHINE_SCHED`` environment
variable (``calendar`` or ``heap``), or — when the variable is unset —
automatically from the machine size: ``heapq``'s C implementation wins on
small machines where the pending-event population is modest, while the
calendar's flat per-event cost wins once a 32-processor-or-larger machine
keeps thousands of events in flight (the crossover is empirical, measured
on the hot-spot microbench; :data:`AUTO_CALENDAR_MIN_CPUS`).  Either way
the choice is *invisible in the results*: the cross-scheduler determinism
test in ``tests/test_engine_determinism.py`` pins the bit-identical
contract.  See :func:`scheduler_name` / :func:`make_scheduler`.

Implementation notes on the calendar queue
------------------------------------------

Future buckets are plain unsorted lists in a dict keyed by bucket index; a
small auxiliary heap of bucket indices finds the next non-empty bucket
(its size is the number of *distinct pending buckets* — a dozen or so —
not the number of events).  When the drain reaches a bucket, the bucket is
sorted once (Timsort, in C) and consumed left to right via ``_cur_i``.

An insert can land in the *active* bucket mid-drain (``delay == 0``
events, bus grants within the current cycle...).  ``bisect.insort`` with
``lo=_cur_i`` keeps the not-yet-consumed tail sorted; the clamp to
``_cur_i`` is exactly heap semantics: a new event whose key precedes
everything still pending runs next, and time never moves backwards because
keys are never scheduled in the past.

Drained bucket lists are recycled through a small free list (`_list_pool`)
— the calendar's "event record" pool: steady-state operation allocates no
per-event containers beyond the event tuples themselves.
"""

from __future__ import annotations

import os
from bisect import insort
from heapq import heappop as _heappop, heappush as _heappush
from typing import Optional

__all__ = [
    "CalendarQueue",
    "HeapScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "scheduler_name",
]

#: default calendar bucket width in ticks — the 50 MHz bus/ring cycle
DEFAULT_BUCKET_TICKS = 60

#: retained empty bucket lists (recycled event-record containers)
_LIST_POOL_MAX = 64


class HeapScheduler:
    """Reference scheduler: a binary heap of event tuples."""

    name = "heap"

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: list = []

    # ``push`` is the attribute the engine binds at its hot sites; for the
    # heap it is the C heappush partially applied to the queue, installed
    # by Engine (see Engine.__init__) — this method exists for direct use.
    def push(self, ev: tuple) -> None:
        _heappush(self._queue, ev)

    def pop(self) -> tuple:
        return _heappop(self._queue)

    def peek_time(self) -> Optional[int]:
        q = self._queue
        return q[0][0] if q else None

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)


class CalendarQueue:
    """O(1) calendar-queue scheduler (see module docstring)."""

    name = "calendar"

    __slots__ = (
        "_width",
        "_buckets",
        "_bheap",
        "_cur",
        "_cur_i",
        "_cur_bi",
        "_list_pool",
    )

    def __init__(self, width: int = DEFAULT_BUCKET_TICKS) -> None:
        if width <= 0:
            raise ValueError(f"bucket width must be positive, got {width}")
        self._width = width
        self._buckets: dict = {}      # bucket index -> unsorted event list
        self._bheap: list = []        # pending bucket indices (min-heap)
        self._cur: list = []          # active bucket, sorted, draining
        self._cur_i = 0               # next unconsumed slot in _cur
        self._cur_bi = -1             # bucket index of _cur
        self._list_pool: list = []    # recycled bucket lists

    # ------------------------------------------------------------------
    # The event count is *not* maintained per operation — ``__len__`` sums
    # bucket sizes on demand (buckets are few and it is only called from
    # probes / ``Engine.pending``), which keeps push/pop free of counter
    # bookkeeping on the hot path.
    def push(self, ev: tuple) -> None:
        bi = ev[0] // self._width
        b = self._buckets.get(bi)
        if b is not None:
            b.append(ev)
            return
        if bi == self._cur_bi and self._cur_i < len(self._cur):
            # lands in the bucket being drained: keep the pending tail
            # sorted; never insert before the drain point (heap semantics
            # — see module docstring)
            insort(self._cur, ev, self._cur_i)
            return
        pool = self._list_pool
        if pool:
            b = pool.pop()
            b.append(ev)
        else:
            b = [ev]
        self._buckets[bi] = b
        _heappush(self._bheap, bi)

    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Retire the drained active bucket and promote the next one.

        Returns False when no events remain.
        """
        cur = self._cur
        if cur:
            cur.clear()
            if len(self._list_pool) < _LIST_POOL_MAX:
                self._list_pool.append(cur)
        if not self._bheap:
            self._cur = []
            self._cur_i = 0
            self._cur_bi = -1
            return False
        bi = _heappop(self._bheap)
        b = self._buckets.pop(bi)
        b.sort()
        self._cur = b
        self._cur_i = 0
        self._cur_bi = bi
        return True

    def pop(self) -> tuple:
        i = self._cur_i
        cur = self._cur
        if i >= len(cur):
            if not self._advance():
                raise IndexError("pop from empty scheduler")
            cur = self._cur
            i = 0
        self._cur_i = i + 1
        return cur[i]

    def peek_time(self) -> Optional[int]:
        if self._cur_i >= len(self._cur) and not self._advance():
            return None
        return self._cur[self._cur_i][0]

    def __len__(self) -> int:
        n = len(self._cur) - self._cur_i
        for b in self._buckets.values():
            n += len(b)
        return n

    def __bool__(self) -> bool:
        # future buckets are never empty, so _bheap is the whole story
        return self._cur_i < len(self._cur) or bool(self._bheap)


SCHEDULERS = {
    "heap": HeapScheduler,
    "calendar": CalendarQueue,
}

#: machine size at which the calendar queue starts beating the C heap
#: (empirical crossover on the hot-spot microbench; see module docstring)
AUTO_CALENDAR_MIN_CPUS = 32


def scheduler_name(
    override: Optional[str] = None, num_cpus: Optional[int] = None
) -> str:
    """Resolve the scheduler choice: explicit override, else the
    ``NUMACHINE_SCHED`` environment variable, else auto-select from the
    machine size (``calendar`` at :data:`AUTO_CALENDAR_MIN_CPUS` processors
    and above, or when the size is unknown; ``heap`` below)."""
    name = override or os.environ.get("NUMACHINE_SCHED")
    if not name:
        if num_cpus is not None and num_cpus < AUTO_CALENDAR_MIN_CPUS:
            name = "heap"
        else:
            name = "calendar"
    name = name.strip().lower()
    if name not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {name!r} (choose from {sorted(SCHEDULERS)})"
        )
    return name


def make_scheduler(
    override: Optional[str] = None, num_cpus: Optional[int] = None
):
    """Build the scheduler selected by ``override`` / ``NUMACHINE_SCHED`` /
    machine-size auto-selection."""
    return SCHEDULERS[scheduler_name(override, num_cpus)]()
