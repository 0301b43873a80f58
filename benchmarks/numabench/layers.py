"""The numabench layer map: which ``repro`` layer owns each event handler.

:class:`repro.obs.Profiler` keys every event it times by the handler's
``__qualname__``.  The first dotted part names a class (``Bus._complete``,
``NumachineNC._on_nack.<locals>.<lambda>``) or, in the generated elab core,
a module-level function (``_bus_complete``).  Numbered generated classes
(``ElabSRI3``, ``ElabRingL0``) map through their name without the digits.
Layers are named after ``repro`` packages; ``sim`` (the engine loop and its
schedulers) owns no handler, so its self time is the loop's own.
"""

from __future__ import annotations

#: handler owner (qualname head, trailing digits stripped) -> layer
SITE_LAYER = {
    # system: station bus and the ordered output ports
    "Bus": "system",
    "OrderedPort": "system",
    "_bus_complete": "system",
    "_port_issue": "system",
    # cache: network cache plus the protocol plug-in's NC handlers
    "NetworkCache": "cache",
    "NumachineNC": "cache",
    "ElabNC": "cache",
    "_nc_service_done": "cache",
    # memory: memory module plus the protocol plug-in's memory handlers
    "MemoryModule": "memory",
    "NumachineMemory": "memory",
    "ElabMem": "memory",
    "_mem_service_done": "memory",
    # interconnect: rings and the station / inter-ring interfaces
    "Ring": "interconnect",
    "StationRingInterface": "interconnect",
    "InterRingInterface": "interconnect",
    "_ring_arrive": "interconnect",
    "ElabRingL": "interconnect",
    "_ElabSRI": "interconnect",
    "ElabSRI": "interconnect",
    "_ElabIRI": "interconnect",
    "ElabIRI": "interconnect",
    # cpu: processors, including the workload generator steps they drive
    "Processor": "cpu",
    "ElabCPU": "cpu",
    "_cpu_send_request": "cpu",
}

#: layers that own handlers, in report order
HANDLER_LAYERS = ("system", "cache", "memory", "interconnect", "cpu")


def layer_of(site: str) -> str:
    """The layer owning profiler site ``site``, or ``"unmapped"``."""
    head = site.split(".", 1)[0].rstrip("0123456789")
    return SITE_LAYER.get(head, "unmapped")


def attribute(summary: dict) -> dict:
    """Per-layer ``events`` and ``self_s`` from a Profiler summary.

    Every site lands in exactly one layer (``unmapped`` included), so the
    layer event counts sum to the profiler's total.
    """
    out = {layer: {"events": 0, "self_s": 0.0} for layer in (*HANDLER_LAYERS, "unmapped")}
    for site in summary["sites"]:
        row = out[layer_of(site["site"])]
        row["events"] += site["events"]
        row["self_s"] += site["est_wall_s"]
    return out


def machine_counters(machine, parallel_time_ns: float) -> dict:
    """Raw, summable layer counters of one finished machine."""
    now = machine.engine.now
    util = machine.utilizations()
    nc = machine.nc_stats()
    send = [st.ring_interface.stats.accumulator("send_delay") for st in machine.stations]
    return {
        "ticks": now,
        "bus_busy": util["bus"] * now,
        "local_ring_busy": util["local_ring"] * now,
        "central_ring_busy": util.get("central_ring", 0.0) * now,
        "send_delay_ticks": sum(a.total for a in send),
        "sends": sum(a.count for a in send),
        "slot_ticks": machine.config.ring_slot_ticks,
        "nc_hits": nc.get("hits", 0),
        "nc_misses": nc.get("misses", 0),
        "nc_requests": nc.get("requests", 0),
        "nc_nacks": nc.get("nacks", 0),
        "memory_nacks": machine.memory_stats().get("nacks", 0),
        "parallel_time_ns": parallel_time_ns,
    }


def combine(counters: list) -> dict:
    """Layer metrics over one or more machines: utilizations weighted by
    simulated time, rates and means over the summed counts."""

    def total(key):
        return sum(c[key] for c in counters)

    ticks = total("ticks") or 1
    sends = total("sends")
    lookups = total("nc_hits") + total("nc_misses")
    return {
        "system.bus_util": total("bus_busy") / ticks,
        "cache.nc_hit_rate": total("nc_hits") / lookups if lookups else 0.0,
        "cache.nacks_per_request": (
            total("nc_nacks") / total("nc_requests") if total("nc_requests") else 0.0
        ),
        "memory.nacks": total("memory_nacks"),
        "interconnect.local_ring_util": total("local_ring_busy") / ticks,
        "interconnect.central_ring_util": total("central_ring_busy") / ticks,
        "interconnect.send_delay_cyc": (
            total("send_delay_ticks") / sends / counters[0]["slot_ticks"] if sends else 0.0
        ),
        "cpu.parallel_time_ns": total("parallel_time_ns"),
    }
