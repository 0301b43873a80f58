"""Liveness watchdog + diagnostic machine-state dump.

Two silent failure modes exist for an event-driven simulator under faults:

* the event queue **drains** while programs are still blocked (classic
  deadlock — the engine already raises :class:`DeadlockError` for this, and
  :meth:`Watchdog.deadlock_error` enriches it with a dump), and
* the machine **livelocks**: events keep firing (retry storms, spin loops)
  or simulated time runs away past any plausible completion, so the queue
  never drains and CI would hang.

The :class:`Watchdog` bounds the second mode.  :meth:`Engine.run` calls
:meth:`Watchdog.check` every ``interval`` events; exceeding ``max_ticks``
(simulated time) or ``max_events`` raises :class:`WatchdogError` carrying
:func:`diagnostic_dump` — FIFO depths, locked lines, blocked components
and a sample of in-flight events — instead of hanging.

Simulated-time bounds are the right liveness measure here: a *permanent*
link stall does not stop the clock (the ring's ``_link_free`` horizon just
moves into the far future, so the next send jumps simulation time), which
``max_ticks`` catches immediately while an event-count bound might grind
through a retry storm first.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.engine import DeadlockError, Engine, ticks_to_ns


class WatchdogError(DeadlockError):
    """A run exceeded its liveness bounds (or deadlocked); carries the
    diagnostic dump as ``.dump`` and renders it into the message."""

    def __init__(self, message: str, dump: Optional[dict] = None) -> None:
        self.dump = dump
        if dump is not None:
            message = f"{message}\n{render_dump(dump)}"
        super().__init__(message)


def _pending_events(engine: Engine, limit: int) -> List[dict]:
    """A (time-sorted) sample of events still in the queue."""
    events = sorted(engine._queue)[:limit]
    out = []
    for when, prio, _seq, callback, arg in events:
        name = getattr(callback, "__qualname__", None) or repr(callback)
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            name = f"{name}<{getattr(owner, 'station_id', '')}>"
        out.append({
            "at_ns": ticks_to_ns(when),
            "prio": prio,
            "callback": name,
            "arg": repr(arg)[:100] if arg is not None else None,
        })
    return out


def diagnostic_dump(machine, max_inflight: int = 32) -> dict:
    """Snapshot everything needed to diagnose a stuck machine."""
    engine = machine.engine
    now = engine.now
    blocked = []
    for watcher in engine.blocked_watchers:
        reason = watcher()
        if reason:
            blocked.append(reason)
    fifos: Dict[str, dict] = {}

    def note_fifo(fifo) -> None:
        if len(fifo) or fifo.max_depth:
            fifos[fifo.name] = fifo.stats_snapshot(now)

    locked_mem = []
    locked_nc = []
    ring_ifaces = []
    for st in machine.stations:
        note_fifo(st.memory.in_fifo)
        note_fifo(st.nc.in_fifo)
        ri = st.ring_interface
        for f in (ri.out_fifo, ri.in_fifo, ri.sink_q, ri.nonsink_q):
            note_fifo(f)
        ring_ifaces.append({
            "station": st.station_id,
            "nonsink_credits": ri._nonsink_credits,
            "nonsink_limit": ri.nonsink_limit,
            "awaiting_credit": len(ri._pending_out),
        })
        for la, entry in st.memory.directory.lines():
            if entry.locked:
                locked_mem.append({
                    "station": st.station_id,
                    "line": f"{la:#x}",
                    "state": entry.state.value,
                    "pending": entry.pending.kind if entry.pending else None,
                })
        for line in st.nc.array.lines():
            if line.locked:
                locked_nc.append({
                    "station": st.station_id,
                    "line": f"{line.addr:#x}",
                    "state": line.state.value,
                    "pending": line.pending.kind if line.pending else None,
                })
    for iri in machine.net.iris:
        note_fifo(iri.up_fifo)
        note_fifo(iri.down_fifo)
    return {
        "now_ticks": now,
        "now_ns": ticks_to_ns(now),
        "events_run": engine.events_run,
        "pending_events": engine.pending,
        "blocked": blocked,
        "fifos": fifos,
        "locked_memory_lines": locked_mem,
        "locked_nc_lines": locked_nc,
        "ring_interfaces": ring_ifaces,
        "in_flight": _pending_events(engine, max_inflight),
    }


def render_dump(dump: dict) -> str:
    """Human-readable rendering of a :func:`diagnostic_dump`."""
    lines = [
        "--- watchdog diagnostic dump ---",
        f"sim time: {dump['now_ns']:.1f} ns ({dump['now_ticks']} ticks), "
        f"events run: {dump['events_run']}, pending: {dump['pending_events']}",
    ]
    if dump["blocked"]:
        lines.append("blocked components:")
        lines.extend(f"  {r}" for r in dump["blocked"])
    occupied = {k: v for k, v in dump["fifos"].items() if v["depth"]}
    if occupied:
        lines.append("non-empty FIFOs:")
        for name, snap in sorted(occupied.items()):
            lines.append(
                f"  {name}: depth={snap['depth']}/{snap['capacity']} "
                f"max={snap['max_depth']}"
            )
    for key, label in (
        ("locked_memory_lines", "locked memory lines"),
        ("locked_nc_lines", "locked NC lines"),
    ):
        if dump[key]:
            lines.append(f"{label}:")
            for rec in dump[key][:16]:
                lines.append(
                    f"  S{rec['station']} {rec['line']} state={rec['state']} "
                    f"pending={rec['pending']}"
                )
    starved = [
        r for r in dump["ring_interfaces"]
        if r["awaiting_credit"] or r["nonsink_credits"] < r["nonsink_limit"]
    ]
    if starved:
        lines.append("ring interfaces with nonsinkable traffic in flight:")
        for r in starved:
            lines.append(
                f"  S{r['station']}: credits {r['nonsink_credits']}/"
                f"{r['nonsink_limit']}, {r['awaiting_credit']} awaiting"
            )
    if dump["in_flight"]:
        lines.append(f"next {len(dump['in_flight'])} in-flight events:")
        for ev in dump["in_flight"]:
            arg = f" {ev['arg']}" if ev["arg"] else ""
            lines.append(f"  t={ev['at_ns']:.1f}ns {ev['callback']}{arg}")
    lines.append("--- end dump ---")
    return "\n".join(lines)


class Watchdog:
    """Liveness bounds for one machine run.

    Parameters
    ----------
    machine:
        The machine to dump when the bounds trip.
    max_ticks:
        Simulated-time ceiling (engine ticks).  The primary bound: time
        always advances, even under permanent stalls.
    max_events:
        Lifetime event-count ceiling (catches zero-delay livelock where
        time stops advancing entirely).
    interval:
        How many events run between checks.  Smaller catches overruns
        sooner; larger costs less (one Python call per interval).
    """

    def __init__(
        self,
        machine,
        max_ticks: Optional[int] = None,
        max_events: Optional[int] = None,
        interval: int = 50_000,
    ) -> None:
        if max_ticks is None and max_events is None:
            raise ValueError("watchdog needs max_ticks and/or max_events")
        self.machine = machine
        self.max_ticks = max_ticks
        self.max_events = max_events
        self.interval = max(1, interval)

    def attach(self) -> "Watchdog":
        self.machine.engine.watchdog = self
        self.machine.watchdog = self
        return self

    def detach(self) -> None:
        if self.machine.engine.watchdog is self:
            self.machine.engine.watchdog = None
        if getattr(self.machine, "watchdog", None) is self:
            self.machine.watchdog = None

    # called by Engine.run between event chunks
    def check(self, engine: Engine, processed: int) -> None:
        if self.max_ticks is not None and engine.now > self.max_ticks:
            raise WatchdogError(
                f"watchdog: simulated time {engine.now} ticks "
                f"({ticks_to_ns(engine.now):.0f} ns) exceeded the bound of "
                f"{self.max_ticks} ticks — the machine is not making progress",
                diagnostic_dump(self.machine),
            )
        if self.max_events is not None and engine.events_run > self.max_events:
            raise WatchdogError(
                f"watchdog: {engine.events_run} events exceeded the bound of "
                f"{self.max_events} — likely livelock (retry storm or spin)",
                diagnostic_dump(self.machine),
            )

    def deadlock_error(self, exc: DeadlockError) -> WatchdogError:
        """Wrap a drained-queue deadlock with the diagnostic dump."""
        return WatchdogError(str(exc), diagnostic_dump(self.machine))
