"""Backend selection and application.

Two backends execute a machine:

``interp``
    the ordinary class hierarchy — every hook point (tracer, verifier,
    monitor, fault filter) is checked on the hot paths;
``elab``
    a generated specialized core (:mod:`repro.elab.codegen`) — constants
    baked in, pump loops fused.  Bit-identical to ``interp`` on the
    canonical reporting surface (events / time / ``nc_stats`` /
    ``memory_stats`` / ``utilizations`` / ``ring_interface_delays``).
    Two compiled variants exist, selected here per run:

    * **plain** — every hook check deleted; observability-only telemetry
      (FIFO depth/wait histograms, bus ``transactions``, ring
      ``packets_carried``, CPU ``retries``) is not maintained;
    * **instrumented** — tracer stamps and that telemetry compiled back
      in inline, so tracer/probe runs execute on the elab core at full
      speed (the obs hooks never schedule events: identical
      ``(events_run, now)``).

Selection follows the attached hooks: none gives the plain variant,
observability hooks give the instrumented one, and a monitor, verifier or
fault injector gives ``interp``.  ``Machine(backend="interp")`` pins the
reference core; ``Machine(backend="elab")`` selects exactly like the
default but warns if elaboration fails.

The elaborated core is applied by *re-classing* the already-wired component
instances (``obj.__class__ = Generated``) — no state is copied, moved, or
rebuilt, which is what keeps the switch exact.  Two safety rules:

* **non-observability hooks force interp**: a monitor, verifier or fault
  injector rewires behaviour the generated code cannot honour, so any of
  them keeps the machine interpreted (a watchdog is engine-level and
  stays allowed).  Observability hooks — tracers attached by
  :class:`repro.obs.Observability`, probes, the telemetry stream — select
  the *instrumented* elab variant instead of forcing interp;
* **no switching under in-flight events**: pending events hold bound
  methods captured under the old classes; the backend only flips when the
  event queue is empty (:meth:`sync` is a no-op otherwise).

If elaboration fails (unsupported topology, unwritable cache dir with a
broken generator, ...) the machine stays interpreted — the default
selection never breaks a run; an explicit ``backend="elab"`` warns.
"""

from __future__ import annotations

import warnings


def interp_only_hooks(machine) -> bool:
    """Any hook attached that rewires behaviour the generated code cannot
    honour (monitor / verifier / fault injection)?

    Scans component hook slots directly (not just the Machine-level
    attributes) so hooks installed by hand in tests are honoured too.
    """
    if (
        machine.monitor is not None
        or machine.verifier is not None
        or machine.fault is not None
    ):
        return True
    for st in machine.stations:
        sri = st.ring_interface
        if sri.verifier is not None or sri.fault_filter is not None:
            return True
        for mod in (st.memory, st.nc):
            if mod.monitor is not None or mod.verifier is not None:
                return True
        for cpu in st.cpus:
            if cpu.verifier is not None:
                return True
    return False


def obs_hooks_active(machine) -> bool:
    """Any observability hook (tracer / probes / telemetry stream)
    attached?  These never perturb the event stream, so they run on the
    *instrumented* elab variant instead of forcing interp."""
    if machine.obs is not None:
        return True
    for st in machine.stations:
        if st.ring_interface.tracer is not None:
            return True
        for mod in (st.memory, st.nc):
            if mod.tracer is not None:
                return True
        for cpu in st.cpus:
            if cpu.tracer is not None:
                return True
    for iri in machine.net.iris:
        if iri.tracer is not None:
            return True
    return False


# ----------------------------------------------------------------------
def sync(machine) -> None:
    """Bring the machine's active backend in line with the selection and
    the hook state.  Called on entry to :meth:`Machine.run`; a no-op when
    nothing changed or events are in flight.

    The target is three-way: interpreted (``None``), the plain elab
    variant, or the instrumented elab variant when only observability
    hooks are attached."""
    pref = machine._backend_pref
    if (
        pref == "interp"
        or getattr(machine, "_elab_failed", False)
        or interp_only_hooks(machine)
    ):
        target = None
    elif obs_hooks_active(machine):
        target = "instr"
    else:
        target = "plain"
    current = machine._elab_variant if machine._elab_applied else None
    if target == current:
        return
    if machine.engine.pending:
        return  # pending events hold old bound methods; never swap now
    if machine._elab_applied:
        _revert(machine)
        machine._elab_applied = False
        machine._elab_variant = None
    if target is None:
        return
    try:
        from .ir import MachineIR
        from .store import load_module

        mod = load_module(
            MachineIR.from_machine(machine, instrumented=(target == "instr"))
        )
        _specialize(machine, mod)
    except Exception as exc:
        machine._elab_failed = True
        if pref == "elab":
            warnings.warn(
                f'backend="elab" unavailable ({exc}); '
                "running interpreted",
                RuntimeWarning,
                stacklevel=2,
            )
        return
    machine._elab_applied = True
    machine._elab_variant = target


def ensure_interp(machine) -> None:
    """Force the interpreted classes back in place (hook attachment)."""
    if not machine._elab_applied:
        return
    if machine.engine.pending:
        raise RuntimeError(
            "cannot attach hooks while elaborated events are in flight; "
            "drain the engine (run to completion) first"
        )
    _revert(machine)
    machine._elab_applied = False
    machine._elab_variant = None


# ----------------------------------------------------------------------
def _recapture(machine) -> None:
    """Re-capture the bound methods the ring interfaces hold: a bound
    method pins the function of the class *at capture time*, so it must be
    refreshed after every class swap (in either direction)."""
    for st in machine.stations:
        sri = st.ring_interface
        sri.bus_granter = st.bus.request
        sri.deliver_cb = st.deliver_from_ring


def _specialize(machine, mod) -> None:
    for st in machine.stations:
        st.__class__ = mod.ElabStation
        st.bus.__class__ = mod.ElabBus
        st.memory.__class__ = mod.ElabMem
        st.memory.out_port.__class__ = mod.ElabPort
        st.nc.__class__ = mod.ElabNC
        st.nc.out_port.__class__ = mod.ElabPort
        for cpu in st.cpus:
            cpu.__class__ = mod.ElabCPU
        st.ring_interface.__class__ = mod.SRI_CLASSES[st.station_id]
    for (level, _), ring in machine.net.rings.items():
        ring.__class__ = mod.RING_CLASSES[level]
    for iri in machine.net.iris:
        iri.__class__ = mod.IRI_CLASSES[iri.name]
    _recapture(machine)


def _revert(machine) -> None:
    from ..cpu.processor import Processor
    from ..interconnect.interfaces import (
        InterRingInterface,
        StationRingInterface,
    )
    from ..interconnect.ring import Ring
    from ..system.bus import Bus, OrderedPort
    from ..system.station import Station

    # the interpreted classes are the active protocol's engine classes,
    # not the protocol-agnostic bases
    proto = machine.protocol
    for st in machine.stations:
        st.__class__ = Station
        st.bus.__class__ = Bus
        st.memory.__class__ = proto.memory_class
        st.memory.out_port.__class__ = OrderedPort
        st.nc.__class__ = proto.nc_class
        st.nc.out_port.__class__ = OrderedPort
        for cpu in st.cpus:
            cpu.__class__ = Processor
        st.ring_interface.__class__ = StationRingInterface
    for ring in machine.net.rings.values():
        ring.__class__ = Ring
    for iri in machine.net.iris:
        iri.__class__ = InterRingInterface
    _recapture(machine)
    _resync_telemetry(
        machine,
        integrate=(getattr(machine, "_elab_variant", None) == "instr"),
    )


def _resync_telemetry(machine, integrate: bool = False) -> None:
    """The *plain* specialized core does not maintain the FIFO depth
    integral, so every fifo's ``_last_change`` clock is stale after a
    plain-elab run.  Reset it to *now* before interpreted code resumes its
    ``depth_area`` updates, otherwise the first interp push/pop would
    integrate the whole elab era at the current depth.

    The *instrumented* core keeps the integral live; there the un-flushed
    tail span ``[_last_change, now]`` is real area, so it is integrated
    (not discarded) before the clock reset."""
    now = machine.engine.now
    if integrate:
        for f in _all_fifos(machine):
            f._depth_area += len(f._items) * (now - f._last_change)
            f._last_change = now
    else:
        for f in _all_fifos(machine):
            f._last_change = now


def _all_fifos(machine):
    for st in machine.stations:
        sri = st.ring_interface
        yield from (st.memory.in_fifo, st.nc.in_fifo)
        yield from (sri.out_fifo, sri.in_fifo, sri.sink_q, sri.nonsink_q)
    for iri in machine.net.iris:
        yield from (iri.up_fifo, iri.down_fifo)
