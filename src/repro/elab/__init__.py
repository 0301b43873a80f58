"""Build-time elaboration: compile a MachineConfig into a specialized core.

The machine's behaviour is fully determined at build time by the config,
the routing-mask layout and the protocol transition tables, so instead of
interpreting it event by event through generic dispatch, this package
*elaborates* it once:

* :mod:`repro.elab.ir` extracts everything build-time-constant from a
  wired :class:`~repro.system.machine.Machine` into a small IR;
* :mod:`repro.elab.codegen` emits a specialized Python module from the IR
  (literal constants, fused pump loops, dense coherence dispatch, no hook
  checks);
* :mod:`repro.elab.backend` compiles that source in memory, once per
  process, and applies a core per run, chosen by the attached hooks: the
  plain variant with none, the instrumented variant with only
  observability hooks, and the interpreter whenever a monitor, verifier
  or fault injector is attached, so hooked runs stay bit-identical.
"""

from .backend import sync
from .ir import MachineIR

__all__ = [
    "MachineIR",
    "sync",
]
