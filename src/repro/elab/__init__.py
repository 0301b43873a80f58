"""Build-time elaboration: compile a MachineConfig into a specialized core.

The machine's behaviour is fully determined at build time by the config
and the protocol transition tables, so instead of
interpreting it event by event through generic dispatch, this package
*elaborates* it once:

* :mod:`repro.elab.ir` extracts the station side's build-time constants
  from a wired :class:`~repro.system.machine.Machine` into a small IR;
* :mod:`repro.elab.codegen` emits a specialized Python module from the IR
  for the station bus, ordered ports, memory and NC pumps and the CPU
  request path (literal constants, fused pump loops, dense coherence
  dispatch, the tracer, coherence checker and monitor called where the
  interpreted classes call them); rings, ring interfaces and stations run
  their hand-written classes on both cores;
* :mod:`repro.elab.backend` compiles that source in memory, once per
  process, and puts it in place on every machine not built with
  ``backend="interp"``, whatever hooks are attached; the interpreted
  classes stay as the reference core it is bit-identical to.
"""

from .backend import sync
from .ir import MachineIR

__all__ = [
    "MachineIR",
    "sync",
]
