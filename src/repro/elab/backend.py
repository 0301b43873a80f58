"""Backend selection and application.

Two backends execute a machine:

``interp``
    the ordinary class hierarchy, the reference core;
``elab``
    a generated specialized core (:mod:`repro.elab.codegen`) for the
    station bus, the ordered ports, the memory and NC pumps and the CPU
    request path — constants baked in, pump loops fused, and every hook
    (tracer, coherence checker, monitor) called where the interpreted
    classes call it.  Bit-identical to ``interp`` on the whole metrics
    snapshot (``Machine.obs_snapshot(include_wall=False)``), the canonical
    reporting surface and the trace section included, on the Chrome
    trace, on every checker count and monitor table, and on every fault
    a fault plan triggers.

Rings, ring interfaces and stations are never re-classed: their
hand-written classes run on both backends and check their own hooks.

The core is a property of the machine, not of what is attached to it: a
machine runs the generated core unless it was built with
``backend="interp"`` (``None`` and ``"elab"`` mean the same).  Every hook
runs on it.  The tracer, checker and monitor are called from the generated
services or from inherited code; the fault injector acts only on code both
cores share (the packet filter and the FIFO and credit squeezes on the
ring interfaces, link stalls on the rings, service spikes on the
``_dram_*`` / ``_nc_*`` attributes the inherited handlers read); and the
engine-level hooks (the probe sampler, a watchdog, the profiler) read only
state the generated core maintains.

Each process generates a config's core in memory and compiles it once:
:func:`load` maps the generated source text to its executed module, so a
second machine of the same config skips ``compile()``.  The source is the
key, so any change to the IR or to the generator yields a new module;
nothing is written to disk.  The source is registered with
:mod:`linecache`, so tracebacks through generated code show its lines.

The elaborated core is applied by *re-classing* the already-wired component
instances (``obj.__class__ = Generated``) — no state is moved or rebuilt,
which is what keeps the switch exact.  Each re-classed component that keeps
its attributes in a ``__dict__`` (memory module, NC, CPU) then gets a plain
copy of that dict: CPython 3.11 stores up to 30 attributes inline, laid out
by the *old* class, and after the swap the generated class's attribute
loads on such an instance keep falling back to the generic path (the
memory module's 25 attributes hit this; a copied dict restores
``LOAD_ATTR_WITH_HINT``).  The switch is one-way and
never happens under in-flight events: pending events hold bound methods
captured under the old classes, so :func:`sync` is a no-op while the
event queue is non-empty.  :meth:`Machine.run` calls it on entry, and
:meth:`Machine.attach_fault` calls it before the injector schedules its
fault windows.

If elaboration fails (a broken generator, say) the machine warns once and
is pinned to the interpreted classes.
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
    """Put the generated core in place, unless it already is, the machine
    is pinned to ``interp`` or events are in flight."""
    if machine._elab_active or machine._backend_pref == "interp":
        return
    if machine.engine.pending:
        return  # pending events hold old bound methods; never swap now
    try:
        # imported on first use: loading this large module (compiled from
        # source when no bytecode is cached) adds up to ~2 MB of peak RSS
        # that a process running only backend="interp" machines should
        # not pay
        from . import codegen

        mod = load(codegen.generate_source(MachineIR.from_machine(machine)))
    except Exception as exc:
        machine._backend_pref = "interp"
        warnings.warn(
            f"elaboration failed ({exc}); running interpreted",
            RuntimeWarning,
            stacklevel=2,
        )
        return
    for st in machine.stations:
        st.bus.__class__ = mod.ElabBus
        st.memory.__class__ = mod.ElabMem
        st.memory.out_port.__class__ = mod.ElabPort
        st.nc.__class__ = mod.ElabNC
        st.nc.out_port.__class__ = mod.ElabPort
        for cpu in st.cpus:
            cpu.__class__ = mod.ElabCPU
        # a plain dict, not the old class's inline layout (see above)
        for obj in (st.memory, st.nc, *st.cpus):
            obj.__dict__ = dict(obj.__dict__)
        # a bound method pins the function of the class at capture time,
        # so the ring interface's bus grant is re-captured after the swap
        st.ring_interface.bus_granter = st.bus.request
    machine._elab_active = True
