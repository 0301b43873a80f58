"""Deterministic fault injection + liveness watchdog (the degraded-hardware
sibling of :mod:`repro.verify`).

Faults are described by a :class:`FaultPlan` — a seeded, fully explicit
schedule of ring-link stalls, packet delay/duplication windows, FIFO
capacity squeezes and memory/NC service-time spikes — and applied by a
:class:`FaultInjector` through the same null-object hook pattern the tracer
and verifier use (a ``fault_filter`` slot on each station ring interface,
plus plain engine scheduling for the timed faults).  Every run with the
same plan and workload is bit-identical, so any failure a fault uncovers
is replayable from its seed alone.

Fault classes:

* **delay-class** (finite link stalls, packet delay, FIFO/credit squeeze,
  service spikes) — the machine must complete with final memory contents
  identical to the fault-free run; these faults only reshuffle timing.
* **loss-class** (packet duplication, permanent link stalls) — the machine
  must *detect and report* (an :class:`~repro.verify.InvariantViolation`,
  a :class:`WatchdogError`, or a data mismatch flagged by the harness)
  rather than hang or silently corrupt.

The :class:`Watchdog` bounds a run's simulated time / event count from
inside :meth:`Engine.run` and converts both runaway runs and drained-queue
deadlocks into a :class:`WatchdogError` carrying a diagnostic dump (FIFO
depths, locked lines, blocked components, a sample of in-flight events).
"""

from .plan import FaultEvent, FaultPlan
from .inject import FaultInjector
from .watchdog import Watchdog, WatchdogError, diagnostic_dump, render_dump

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "Watchdog",
    "WatchdogError",
    "diagnostic_dump",
    "render_dump",
]
