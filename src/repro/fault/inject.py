"""Apply a :class:`~repro.fault.plan.FaultPlan` to a built machine.

The injector is attached after :class:`~repro.system.machine.Machine`
construction and before :meth:`Machine.run`.  It perturbs the machine only
through mechanisms the hardware itself models:

* **link_stall** — :meth:`Ring.halt_link`, the same mechanism FIFO
  back-pressure uses, so a stalled link interacts correctly with slot
  reservation and through-traffic priority;
* **service_spike** — scales the cached DRAM / NC SRAM service ticks for a
  window, modelling a slow bank or a refresh storm;
* **packet_delay / packet_dup** — a ``fault_filter`` hook on the station
  ring interface's ``send`` path (same null-object pattern as the tracer
  and verifier), deferring or branching packets before they enter the
  network;
* **FIFO squeeze / nonsink squeeze** — shrinks ring-interface input FIFOs
  and the nonsinkable-credit pool to force the back-pressure and flow
  control machinery to carry real load.

All randomness (per-packet delay/dup coin flips) comes from a private
``random.Random`` seeded from the plan, so a (plan, workload) pair is
exactly reproducible.
"""

from __future__ import annotations

import random
from typing import List

from ..sim.engine import ns_to_ticks
from .plan import PERMANENT_TICKS, FaultPlan


class FaultInjector:
    """Applies one :class:`FaultPlan` to one machine, once."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._attached = False
        #: count of faults actually triggered (windows entered, packets hit)
        self.triggered = {
            "link_stall": 0,
            "packet_delay": 0,
            "packet_dup": 0,
            "service_spike": 0,
        }

    # ------------------------------------------------------------------
    def attach(self, machine) -> "FaultInjector":
        if self._attached:
            raise RuntimeError("fault injector already attached")
        self._attached = True
        self.machine = machine
        plan = self.plan
        engine = machine.engine

        if plan.in_fifo_capacity is not None:
            # squeeze the back-pressure threshold, not the physical
            # capacity: the ring halts reactively (packets already in
            # flight still land after the halt), so capacity below the
            # in-flight slack would overflow in a way no real FIFO sizing
            # could — lowering high_water alone forces the flow-control
            # machinery to engage constantly, which is the point
            hw = max(1, plan.in_fifo_capacity - 2)
            for st in machine.stations:
                st.ring_interface.in_fifo.high_water = hw
            for iri in machine.net.iris:
                iri.up_fifo.high_water = hw
                iri.down_fifo.high_water = hw

        if plan.nonsink_limit is not None:
            lim = max(1, plan.nonsink_limit)
            for st in machine.stations:
                ri = st.ring_interface
                ri.nonsink_limit = lim
                ri._nonsink_credits = lim  # pre-run: pool is full

        # group packet-fault windows per station so each ring interface
        # gets at most one filter closure
        windows: dict = {}
        for ev in plan.events:
            at = ns_to_ticks(ev.at_ns)
            if ev.kind == "link_stall":
                self._schedule_stall(engine, at, ev.params)
            elif ev.kind == "service_spike":
                self._schedule_spike(engine, at, ev.params)
            else:  # packet_delay / packet_dup
                sid = ev.params["station"] % len(machine.stations)
                end = at + ns_to_ticks(ev.params["duration_ns"])
                windows.setdefault(sid, []).append((ev.kind, at, end, ev.params))
        for sid, wins in windows.items():
            self._install_filter(machine.stations[sid].ring_interface, wins)
        return self

    def detach(self) -> None:
        for st in self.machine.stations:
            st.ring_interface.fault_filter = None

    # ------------------------------------------------------------------
    def _schedule_stall(self, engine, at: int, params: dict) -> None:
        ring_name = params["ring"]
        net = self.machine.net
        if ring_name == "central":
            ring = net.central_ring
        else:
            idx = int(ring_name.split(":", 1)[1])
            ring = net.local_rings[idx % len(net.local_rings)]
        pos = params["pos"] % ring.size
        if params.get("permanent"):
            duration = PERMANENT_TICKS
        else:
            duration = max(1, ns_to_ticks(params["duration_ns"]))

        def fire() -> None:
            self.triggered["link_stall"] += 1
            ring.halt_link(pos, duration)

        engine.schedule(max(0, at - engine.now), fire)

    def _schedule_spike(self, engine, at: int, params: dict) -> None:
        st = self.machine.stations[params["station"] % len(self.machine.stations)]
        factor = max(2, int(params["factor"]))
        duration = max(1, ns_to_ticks(params["duration_ns"]))
        if params["target"] == "mem":
            target, attrs = st.memory, ("_dram_read", "_dram_write")
        else:
            target, attrs = st.nc, ("_nc_read", "_nc_write")

        def begin() -> None:
            self.triggered["service_spike"] += 1
            saved = [(a, getattr(target, a)) for a in attrs]
            for a, v in saved:
                setattr(target, a, v * factor)

            def end() -> None:
                for a, v in saved:
                    setattr(target, a, v)

            engine.schedule(duration, end)

        engine.schedule(max(0, at - engine.now), begin)

    def _install_filter(self, ri, wins: List[tuple]) -> None:
        rng = random.Random(self.plan.seed ^ 0xFA17_F117 ^ ri.station_id)
        engine = self.machine.engine
        triggered = self.triggered
        # packet_delay must preserve per-source packet order: the ack-free
        # ordered-multicast invalidation scheme is only correct if nothing
        # a station sends can overtake what it sent earlier.  A held packet
        # therefore holds everything behind it (a transient outbound-FIFO
        # stall), tracked by this release horizon.
        state = {"hold": 0}

        def fault_filter(iface, packet) -> bool:
            # returns True when the filter consumed the packet
            if packet.meta.get("_fault_done"):
                return False
            now = engine.now
            hold = state["hold"]
            if hold > now:
                packet.meta["_fault_done"] = True
                engine.schedule(hold - now, iface.send, packet)
                return True
            for kind, start, end, params in wins:
                if not (start <= now < end):
                    continue
                if rng.random() >= params["prob"]:
                    continue
                if kind == "packet_delay":
                    triggered["packet_delay"] += 1
                    delay = max(1, ns_to_ticks(params["delay_ns"]))
                    state["hold"] = now + delay
                    packet.meta["_fault_done"] = True
                    engine.schedule(delay, iface.send, packet)
                    return True
                # packet_dup: inject a branched duplicate alongside the
                # original (loss-class: duplicated NACKs double-retry)
                triggered["packet_dup"] += 1
                dup = packet.copy_for_branch()
                dup.meta["_fault_done"] = True
                packet.meta["_fault_done"] = True
                engine.schedule(1, iface.send, dup)
                return False
            return False

        ri.fault_filter = fault_filter
