"""Backend selection and application.

Two backends execute a machine:

``interp``
    the ordinary class hierarchy — every hook point (tracer, verifier,
    monitor, fault filter) is checked on the hot paths;
``elab``
    a generated specialized core (:mod:`repro.elab.codegen`) for the
    station bus, the ordered ports, the memory and NC pumps and the CPU
    request path — constants baked in, pump loops fused, the coherence
    checker and monitor called where the interpreted classes call them,
    no tracer stamps.  Bit-identical to ``interp`` on the whole metrics
    snapshot (``Machine.obs_snapshot(include_wall=False)``), the canonical
    reporting surface included, and on every checker count and monitor
    table.

Rings, ring interfaces and stations are never re-classed: their
hand-written classes run on both backends and check their own hooks.

Selection follows the attached hooks.  A tracer in a component slot or a
fault injector gives ``interp``; otherwise the generated core runs, with
the coherence checker, the monitor and any engine-level samplers (probes,
the telemetry stream, a watchdog, the profiler) riding along: the checker
and monitor are called from the generated services or from inherited
code, and the samplers read only state the generated core maintains.
``Machine(backend="interp")`` pins the reference core;
``Machine(backend="elab")`` selects exactly like the default but warns if
elaboration fails.

Each process generates a config's core in memory and compiles it once:
:func:`load` maps the generated source text to its executed module, so a
second machine of the same config skips ``compile()``.  The source is the
key, so any change to the IR or to the generator yields a new module;
nothing is written to disk.  The source is registered with
:mod:`linecache`, so tracebacks through generated code show its lines.

The elaborated core is applied by *re-classing* the already-wired component
instances (``obj.__class__ = Generated``) — no state is copied, moved, or
rebuilt, which is what keeps the switch exact.  Two safety rules:

* **tracers and fault injectors force interp**: the generated code stamps
  no tracer, so a tracer or a fault injector keeps the machine interpreted;
* **no switching under in-flight events**: pending events hold bound
  methods captured under the old classes; the backend only flips when the
  event queue is empty (:meth:`sync` is a no-op otherwise).

If elaboration fails (a broken generator, say) the machine stays
interpreted — the default selection never breaks a run; an explicit
``backend="elab"`` warns.
"""

from __future__ import annotations

import itertools
import linecache
import types
import warnings
from typing import Dict

from .ir import MachineIR

#: generated source text -> executed module, for this process
_modules: Dict[str, types.ModuleType] = {}
#: serial numbers naming each compiled module (unique even across threads)
_serial = itertools.count()


def interp_only_hooks(machine) -> bool:
    """A hook the generated code does not honour attached: a tracer in a
    re-classed component's slot, or a fault injector?

    Scans the tracer slots of the re-classed components directly (not just
    the Machine-level attributes) so tracers installed by hand in tests are
    honoured too.  Ring interfaces are never re-classed, so their hook
    slots are checked by their own code on either core.
    """
    if machine.fault is not None:
        return True
    for st in machine.stations:
        if st.memory.tracer is not None or st.nc.tracer is not None:
            return True
        for cpu in st.cpus:
            if cpu.tracer is not None:
                return True
    return False


def load(source: str) -> types.ModuleType:
    """The executed module for generated ``source``, compiled once per
    process."""
    mod = _modules.get(source)
    if mod is None:
        name = f"numachine_elab_{next(_serial)}"
        filename = f"<{name}>"
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        mod = types.ModuleType(name)
        mod.__file__ = filename
        exec(compile(source, filename, "exec"), mod.__dict__)
        _modules[source] = mod
    return mod


# ----------------------------------------------------------------------
def sync(machine) -> None:
    """Bring the machine's active backend in line with the selection and
    the hook state.  Called on entry to :meth:`Machine.run`; a no-op when
    nothing changed or events are in flight."""
    pref = machine._backend_pref
    want = not (
        pref == "interp" or machine._elab_failed or interp_only_hooks(machine)
    )
    if want == machine._elab_active:
        return
    if machine.engine.pending:
        return  # pending events hold old bound methods; never swap now
    if not want:
        _revert(machine)
        return
    try:
        # imported on first use: loading this large module (compiled from
        # source when no bytecode is cached) adds up to ~2 MB of peak RSS
        # that interp-only processes should not pay
        from . import codegen

        ir = MachineIR.from_machine(machine)
        _specialize(machine, load(codegen.generate_source(ir)))
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
    machine._elab_active = True


def ensure_interp(machine) -> None:
    """Force the interpreted classes back in place (tracer or fault
    injector attachment)."""
    if not machine._elab_active:
        return
    if machine.engine.pending:
        raise RuntimeError(
            "cannot attach hooks while elaborated events are in flight; "
            "drain the engine (run to completion) first"
        )
    _revert(machine)


# ----------------------------------------------------------------------
def _recapture(machine) -> None:
    """Re-capture the bus grant each ring interface holds: a bound method
    pins the function of the class *at capture time*, so it must be
    refreshed after every bus class swap (in either direction)."""
    for st in machine.stations:
        st.ring_interface.bus_granter = st.bus.request


def _specialize(machine, mod) -> None:
    for st in machine.stations:
        st.bus.__class__ = mod.ElabBus
        st.memory.__class__ = mod.ElabMem
        st.memory.out_port.__class__ = mod.ElabPort
        st.nc.__class__ = mod.ElabNC
        st.nc.out_port.__class__ = mod.ElabPort
        for cpu in st.cpus:
            cpu.__class__ = mod.ElabCPU
    _recapture(machine)


def _revert(machine) -> None:
    from ..cpu.processor import Processor
    from ..system.bus import Bus, OrderedPort

    # the interpreted classes are the active protocol's engine classes,
    # not the protocol-agnostic bases
    proto = machine.protocol
    for st in machine.stations:
        st.bus.__class__ = Bus
        st.memory.__class__ = proto.memory_class
        st.memory.out_port.__class__ = OrderedPort
        st.nc.__class__ = proto.nc_class
        st.nc.out_port.__class__ = OrderedPort
        for cpu in st.cpus:
            cpu.__class__ = Processor
    _recapture(machine)
    machine._elab_active = False
