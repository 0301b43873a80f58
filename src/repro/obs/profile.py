"""Simulator self-profiler — where does the wall clock go?

The paper instruments the *machine*; this module instruments the
*simulator*.  A :class:`Profiler` re-classes the machine's
:class:`~repro.sim.engine.Engine` into a profiled subclass (an
``obj.__class__`` swap — no state is copied, so install/uninstall are
exact) whose event loop attributes wall time to *pump sites*: the handler
each event dispatches to, keyed by qualified name
(``MemoryModule._service``, or ``_bus_complete`` / ``_ring_arrive`` for a
module-level callback that carries its component in the event argument).

Two measurements per site:

* an exact **event count** (every event, a dict bump);
* **wall-clock buckets** from ``perf_counter`` pairs around the callback,
  taken on a deterministic every-``sample_every``-th-event schedule so the
  profiler's overhead is tunable and its sampling pattern reproducible.
  Per-site wall time is scaled by ``events / timed`` in the summary.

The profiler never schedules events and never touches simulated state, so
a profiled run is bit-identical to an unprofiled one in ``(events_run,
now)``.  Export is a JSON summary plus a
Perfetto-loadable Chrome trace-event file: one track of handler slices and
one of component slices, widths proportional to estimated wall time — a
one-level flamegraph of the event loop.
"""

from __future__ import annotations

import heapq
import json
import time
from typing import Dict, Optional

from ..sim.engine import Engine

_heappop = heapq.heappop
_perf_counter = time.perf_counter

#: id(engine) -> Profiler.  Engine is ``__slots__``-only, so profiler
#: state cannot ride on the instance itself.
_STATE: Dict[int, "Profiler"] = {}


class _Site:
    __slots__ = ("events", "timed", "wall_s")

    def __init__(self) -> None:
        self.events = 0
        self.timed = 0
        self.wall_s = 0.0


class _ProfiledEngine(Engine):
    """Engine with the event loop replaced by a per-event-timed replica.

    Mirrors :meth:`Engine._run_core`; the limit-free fast path is
    deliberately dropped — a profiler run pays per-event checks anyway.
    """

    __slots__ = ()

    def _run_core(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        prof = _STATE[id(self)]
        every = prof.sample_every
        sites = prof._sites
        n = prof._n
        processed = 0
        limit = -1 if max_events is None else max(1, max_events)
        queue = self._queue
        self._running = True
        wall_start = _perf_counter()
        try:
            pop = _heappop
            while queue:
                if until is not None and queue[0][0] > until:
                    self.now = until
                    break
                when, _prio, _seq, callback, arg = pop(queue)
                self.now = when
                fn = getattr(callback, "__func__", callback)
                key = getattr(fn, "__qualname__", None) or repr(fn)
                site = sites.get(key)
                if site is None:
                    site = sites[key] = _Site()
                site.events += 1
                n += 1
                if n % every == 0:
                    t0 = _perf_counter()
                    if arg is None:
                        callback()
                    else:
                        callback(arg)
                    site.wall_s += _perf_counter() - t0
                    site.timed += 1
                elif arg is None:
                    callback()
                else:
                    callback(arg)
                processed += 1
                if processed == limit:
                    break
        finally:
            prof._n = n
            self._running = False
            self._events_run += processed
            self.wall_time_s += _perf_counter() - wall_start
        return processed


class Profiler:
    """Attachable event-loop profiler for one engine.

    Usage::

        prof = Profiler(sample_every=4).install(machine.engine)
        machine.run(programs)
        prof.uninstall()
        prof.write_chrome("profile.json")      # open in ui.perfetto.dev
        prof.write_summary("profile_summary.json")
    """

    def __init__(self, sample_every: int = 1) -> None:
        self.sample_every = max(1, int(sample_every))
        self._sites: Dict[str, _Site] = {}
        self._n = 0
        self._engine = None

    # ------------------------------------------------------------------
    def install(self, engine) -> "Profiler":
        if self._engine is not None:
            raise RuntimeError("profiler already installed on an engine")
        if isinstance(engine, _ProfiledEngine):
            raise RuntimeError("engine already has a profiler installed")
        _STATE[id(engine)] = self
        engine.__class__ = _ProfiledEngine
        self._engine = engine
        return self

    def uninstall(self) -> "Profiler":
        engine = self._engine
        if engine is not None:
            engine.__class__ = Engine
            _STATE.pop(id(engine), None)
            self._engine = None
        return self

    def __enter__(self) -> "Profiler":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-site attribution, hottest first.

        ``est_wall_s`` scales each site's sampled wall time by its
        ``events / timed`` ratio; ``share`` is the fraction of the summed
        estimate, so it is comparable across ``sample_every`` settings.
        """
        total_events = 0
        est_total = 0.0
        rows = []
        for key, s in self._sites.items():
            est = s.wall_s * (s.events / s.timed) if s.timed else 0.0
            total_events += s.events
            est_total += est
            rows.append((est, key, s))
        rows.sort(key=lambda r: (-r[0], r[1]))
        sites = []
        for est, key, s in rows:
            comp, _, handler = key.rpartition(".")
            sites.append(
                {
                    "site": key,
                    "component": comp or key,
                    "handler": handler,
                    "events": s.events,
                    "timed": s.timed,
                    "wall_s": s.wall_s,
                    "est_wall_s": est,
                    "share": (est / est_total) if est_total else 0.0,
                }
            )
        return {
            "sample_every": self.sample_every,
            "events": total_events,
            "est_wall_s": est_total,
            "sites": sites,
        }

    def chrome_trace(self) -> dict:
        """The profile as a Chrome trace-event document (Perfetto loads
        it): handler and component tracks of ``X`` slices laid end to end,
        widths proportional to estimated wall time."""
        summ = self.summary()
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 3,
                "tid": 0,
                "args": {"name": "simulator self-profile"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 3,
                "tid": 1,
                "args": {"name": "wall time by handler"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 3,
                "tid": 2,
                "args": {"name": "wall time by component"},
            },
        ]
        ts = 0.0
        comps: Dict[str, float] = {}
        comp_events: Dict[str, int] = {}
        for site in summ["sites"]:
            comps[site["component"]] = (
                comps.get(site["component"], 0.0) + site["est_wall_s"]
            )
            comp_events[site["component"]] = (
                comp_events.get(site["component"], 0) + site["events"]
            )
            dur_us = site["est_wall_s"] * 1e6
            if dur_us <= 0.0:
                continue
            events.append(
                {
                    "name": site["site"],
                    "cat": "profile",
                    "ph": "X",
                    "ts": ts,
                    "dur": dur_us,
                    "pid": 3,
                    "tid": 1,
                    "args": {
                        "events": site["events"],
                        "share": round(site["share"], 4),
                    },
                }
            )
            ts += dur_us
        ts = 0.0
        for name, wall in sorted(comps.items(), key=lambda kv: (-kv[1], kv[0])):
            dur_us = wall * 1e6
            if dur_us <= 0.0:
                continue
            events.append(
                {
                    "name": name,
                    "cat": "profile",
                    "ph": "X",
                    "ts": ts,
                    "dur": dur_us,
                    "pid": 3,
                    "tid": 2,
                    "args": {"events": comp_events[name]},
                }
            )
            ts += dur_us
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    # ------------------------------------------------------------------
    def write_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
            fh.write("\n")

    def write_summary(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=1)
            fh.write("\n")


__all__ = ["Profiler"]
