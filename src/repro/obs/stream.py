"""Live run telemetry — the metrics snapshot as a JSONL stream.

A :class:`TelemetryStream` rides the event engine exactly like the probe
sampler (:mod:`repro.obs.probes`): a periodic event that re-arms itself
only while other events remain queued, so a streamed run still terminates
when the machine goes quiescent.  Each firing appends one *slim* snapshot
line — the full :func:`repro.obs.registry.snapshot` minus the bulky probe
series and monitor histograms, plus a ``stream`` section with the line
sequence number, host wall-clock timestamp, pending-event count, and
per-CPU completion progress — to a JSONL file, flushed per line so
``python -m repro.obs.watch`` can tail a run while it executes.

The emitter only *reads* simulator state; like the probes it adds its own
sampling events to the event count (one per line, bar the final line) and
its last tick can extend quiescence time by up to one period, but it never
delays or reorders the machine's own events.  A streamed run executes on the
generated specialized core (see :mod:`repro.elab.backend`): the stream is
engine-level and survives the class swap untouched, and its lines read the
same as an interpreted run's.
"""

from __future__ import annotations

import json
import time

from ..sim.engine import ns_to_ticks
from .registry import snapshot

#: bump when the per-line layout changes incompatibly
STREAM_SCHEMA = 1


class TelemetryStream:
    """Periodic JSONL snapshot emitter for one machine's runs.

    Parameters
    ----------
    path:
        Output file; opened lazily on first arm, truncating any previous
        stream, and appended to across multiple :meth:`Machine.run` calls.
    period_ns:
        Simulated time between lines (coarser than the probe period — a
        line carries a whole snapshot).
    """

    def __init__(self, path, period_ns: float = 20000.0) -> None:
        self.path = path
        self.period_ticks = max(1, ns_to_ticks(period_ns))
        self._fh = None
        self._machine = None
        self._armed = False
        self.seq = 0
        #: other periodic samplers on the same engine (the probe set);
        #: their armed in-flight events do not count as pending work
        self.peers: tuple = ()

    # ------------------------------------------------------------------
    def arm(self, machine) -> None:
        """Start (or restart) periodic emission; called by
        :meth:`Machine.run`, idempotent while a chain is in flight."""
        self._machine = machine
        if self._fh is None:
            self._fh = open(self.path, "w")
        if self._armed:
            return
        self._armed = True
        machine.engine.schedule(self.period_ticks, self._tick)

    def _tick(self) -> None:
        self.emit(final=False)
        engine = self._machine.engine
        # re-arm only while the machine still has work: the emitter must
        # not keep an otherwise-drained event queue alive forever (and
        # armed peer samplers' events are not work)
        if engine.pending > sum(1 for p in self.peers if p._armed):
            engine.schedule(self.period_ticks, self._tick)
        else:
            self._armed = False

    # ------------------------------------------------------------------
    def emit(self, final: bool = False) -> None:
        """Append one slim snapshot line right now."""
        machine = self._machine
        if machine is None or self._fh is None:
            return
        snap = snapshot(machine, include_wall=True)
        # the bulky sections belong in the end-of-run snapshot file, not
        # on every line of a live stream
        snap.pop("probes", None)
        snap.pop("histograms", None)
        engine = machine.engine
        done = sum(1 for c in machine.cpus if c.finished_at is not None)
        total = sum(1 for c in machine.cpus if c.program is not None)
        snap["stream"] = {
            "schema": STREAM_SCHEMA,
            "seq": self.seq,
            "wall_ts": time.time(),
            "pending": engine.pending,
            "cpus_done": done,
            "cpus_total": total,
            "final": bool(final),
        }
        self.seq += 1
        # dumps, not dump: only the one-shot encode runs in C
        self._fh.write(json.dumps(snap, separators=(",", ":")) + "\n")
        self._fh.flush()

    def finish(self) -> None:
        """Emit the end-of-run line (``stream.final: true``); called by
        :meth:`Machine.run` after the event loop drains."""
        self.emit(final=True)
        self._armed = False

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
def read_stream(path) -> list:
    """Parse a telemetry JSONL file into a list of snapshot dicts.

    Tolerates a truncated last line (the writer may be mid-write when a
    live file is read)."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail of a live file
    return out


def stream_is_final(lines) -> bool:
    return bool(lines) and bool(lines[-1].get("stream", {}).get("final"))


__all__ = ["TelemetryStream", "read_stream", "stream_is_final", "STREAM_SCHEMA"]
