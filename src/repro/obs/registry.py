"""Machine-wide metrics registry: one snapshot, two export formats.

The simulator's statistics live in many places — every component's
:class:`~repro.sim.stats.StatGroup`, the :class:`~repro.monitor.Monitor`
histogram tables, FIFO occupancy records, ring/bus busy trackers, and (when
observability is attached) the probe time series and transaction-trace
summary.  :func:`snapshot` walks a :class:`~repro.system.machine.Machine`
and flattens all of it into one JSON-serializable dict;
:func:`to_prometheus` renders any such snapshot as Prometheus text
exposition format, so a run's metrics drop straight into standard tooling.

The snapshot is deterministic for a deterministic run when taken with
``include_wall=False`` (the wall-clock throughput meter is the only
host-dependent field).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List

from ..sim.engine import ticks_to_ns

#: bump when the snapshot layout changes incompatibly
SNAPSHOT_SCHEMA = 3


# ----------------------------------------------------------------------
# collection
# ----------------------------------------------------------------------
def _stat_groups(machine) -> Iterator:
    for cpu in machine.cpus:
        yield cpu.stats
    for st in machine.stations:
        yield st.memory.stats
        yield st.nc.stats
        yield st.ring_interface.stats
    for iri in machine.net.iris:
        yield iri.stats


def _fifos(machine) -> Iterator:
    for st in machine.stations:
        yield st.memory.in_fifo
        yield st.nc.in_fifo
        ri = st.ring_interface
        yield ri.out_fifo
        yield ri.in_fifo
        yield ri.sink_q
        yield ri.nonsink_q
    for iri in machine.net.iris:
        yield iri.up_fifo
        yield iri.down_fifo


def _histogram_json(hist) -> dict:
    cells = hist.cells()
    return {
        "name": hist.name,
        "rows": [str(r) for r in hist.rows()],
        "cols": [str(c) for c in hist.columns()],
        "cells": [[str(r), str(c), n] for (r, c), n in sorted(cells.items(), key=repr)],
        "overflows": hist.overflows,
    }


def snapshot(machine, include_wall: bool = True) -> dict:
    """Collect the unified metrics snapshot of ``machine`` right now.

    Works on any machine; the ``histograms`` / ``probes`` / ``trace``
    sections appear only when a monitor / observability layer is attached.
    """
    engine = machine.engine
    now = engine.now

    counters: Dict[str, int] = {}
    accumulators: Dict[str, dict] = {}
    for grp in _stat_groups(machine):
        for c in grp.counters.values():
            counters[c.name] = c.value
        for a in grp.accumulators.values():
            accumulators[a.name] = {
                "count": a.count,
                "total": a.total,
                "min": a.min,
                "max": a.max,
                "mean": a.mean,
            }
    for st in machine.stations:
        counters[st.bus.transactions.name] = st.bus.transactions.value
    for _key, ring in sorted(machine.net.rings.items()):
        counters[ring.packets_carried.name] = ring.packets_carried.value
        counters[ring.halts.name] = ring.halts.value
    fifos = {f.name: f.stats_snapshot(now) for f in _fifos(machine)}

    meta = {
        "time_ticks": now,
        "time_ns": ticks_to_ns(now),
        "events_run": engine.events_run,
        "num_stations": machine.config.num_stations,
        "num_cpus": len(machine.cpus),
        "protocol": getattr(machine, "protocol_name", "numachine"),
    }
    snap = {
        "schema": SNAPSHOT_SCHEMA,
        "meta": meta,
        "counters": counters,
        "accumulators": accumulators,
        "fifos": fifos,
        "utilizations": machine.utilizations(),
    }
    if include_wall:
        snap["meta"]["wall_s"] = engine.wall_time_s
        snap["meta"]["events_per_sec"] = engine.events_per_sec

    monitor = machine.monitor
    if monitor is not None:
        snap["histograms"] = {
            "coherence": _histogram_json(monitor.coherence_histogram),
            "nc": _histogram_json(monitor.nc_histogram),
            "originator": _histogram_json(monitor.originator_table),
            "phase": _histogram_json(monitor.phase_table),
        }

    obs = getattr(machine, "obs", None)
    if obs is not None:
        if obs.probes is not None:
            snap["probes"] = obs.probes.series()
        if obs.tracer is not None:
            snap["trace"] = obs.tracer.summary()
    return snap


def write_snapshot(path, snap: dict) -> None:
    with open(path, "w") as fh:
        json.dump(snap, fh, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _esc(label: str) -> str:
    # text-exposition label values escape backslash, double-quote and
    # newline (in that order — backslash first, or the others double up)
    return (
        str(label)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class PromWriter:
    """Text-exposition emitter: HELP/TYPE pairs + sample lines.

    One writer per document; :func:`to_prometheus` renders every metric
    of a snapshot through it, so each family obeys the same format rules
    (and the golden-file validator in the test suite).
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.out: List[str] = []

    def metric(self, name, help_, mtype, samples) -> None:
        prefix, out = self.prefix, self.out
        out.append(f"# HELP {prefix}_{name} {help_}")
        out.append(f"# TYPE {prefix}_{name} {mtype}")
        for labels, value in samples:
            lbl = ",".join(f'{k}="{_esc(v)}"' for k, v in labels)
            out.append(f"{prefix}_{name}{{{lbl}}} {value}" if lbl
                       else f"{prefix}_{name} {value}")

    def render(self) -> str:
        return "\n".join(self.out) + "\n"


def to_prometheus(snap: dict, prefix: str = "numachine") -> str:
    """Render a :func:`snapshot` dict in Prometheus text format."""
    writer = PromWriter(prefix)
    metric = writer.metric

    meta = snap.get("meta", {})
    metric("sim_time_ns", "simulated time", "gauge",
           [((), meta.get("time_ns", 0))])
    metric("events_total", "engine events processed", "counter",
           [((), meta.get("events_run", 0))])
    if "protocol" in meta:
        # info-style gauge: the coherence protocol rides as a label so
        # scrapes can group/filter ablation runs without re-keying metrics
        metric("protocol_info", "coherence protocol plug-in", "gauge",
               [((("protocol", meta["protocol"]),), 1)])

    metric("counter_total", "component event counters", "counter",
           [((("name", k),), v) for k, v in sorted(snap.get("counters", {}).items())])

    acc_ticks, acc_samples = [], []
    for name, a in sorted(snap.get("accumulators", {}).items()):
        acc_ticks.append(((("name", name),), a["total"]))
        acc_samples.append(((("name", name),), a["count"]))
    metric("latency_ticks_total", "accumulated delay samples (ticks)",
           "counter", acc_ticks)
    metric("latency_samples_total", "delay sample counts", "counter", acc_samples)

    metric("utilization", "busy fraction over the run", "gauge",
           [((("resource", k),), v)
            for k, v in sorted(snap.get("utilizations", {}).items())])

    depth, max_depth, mean_depth = [], [], []
    for name, f in sorted(snap.get("fifos", {}).items()):
        lbl = (("fifo", name),)
        depth.append((lbl, f["depth"]))
        max_depth.append((lbl, f["max_depth"]))
        mean_depth.append((lbl, f["mean_depth"]))
    metric("fifo_depth", "current FIFO occupancy", "gauge", depth)
    metric("fifo_max_depth", "peak FIFO occupancy", "gauge", max_depth)
    metric("fifo_mean_depth", "time-weighted mean FIFO occupancy", "gauge",
           mean_depth)

    hist_samples = []
    for table, h in sorted(snap.get("histograms", {}).items()):
        for row, col, n in h["cells"]:
            hist_samples.append(
                ((("table", table), ("row", row), ("col", col)), n)
            )
    if hist_samples:
        metric("histogram_total", "monitor histogram cells", "counter",
               hist_samples)

    probe_samples = []
    for name, series in sorted(snap.get("probes", {}).items()):
        if series["v"]:
            probe_samples.append(((("name", name),), series["v"][-1]))
    if probe_samples:
        metric("probe_last", "latest probe sample", "gauge", probe_samples)

    trace = snap.get("trace")
    if trace is not None:
        metric("traced_transactions_total", "finished traced transactions",
               "counter", [((), trace["finished"])])
        seg_samples = []
        for kind, agg in sorted(trace.get("breakdown", {}).items()):
            for label, seg in sorted(agg["segments"].items()):
                seg_samples.append(
                    ((("kind", kind), ("segment", label)), seg["ticks"])
                )
        if seg_samples:
            metric("trace_segment_ticks_total",
                   "traced latency by pipeline segment", "counter", seg_samples)

    return writer.render()

