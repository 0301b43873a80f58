"""The pluggable coherence-protocol interface.

A :class:`CoherenceProtocol` bundles everything the rest of the system
needs to know about one coherence scheme:

* **engine classes** — ``memory_class`` / ``nc_class`` subclass the
  protocol-agnostic :class:`~repro.memory.memory_module.MemoryModule` and
  :class:`~repro.cache.network_cache.NetworkCache` plumbing (FIFOs,
  serialization, bus ports, stat groups, packet send helpers) and supply
  the coherence state machines themselves;
* **transition tables** — each engine class declares a ``DISPATCH`` class
  attribute, a tuple of ``(MsgType name, handler name)`` pairs.  It is the
  single source of truth for dispatch: each engine class compiles it once,
  at class creation, into a dense ``MsgType.value``-indexed ``HANDLERS``
  tuple (:func:`repro.interconnect.packet.dispatch_table`), so a subclass
  that overrides a handler gets its override;
* **directory/mask policy** — what the per-line ``proc_mask`` and routing
  mask *mean* is protocol-specific (NUMAchine: inexact hierarchical masks;
  flat MSI: an exact global full map), so the invariant checker
  (:mod:`repro.verify.checker`) delegates its mask-coverage checks here;
* **conformance suite** — ``conformance_invariants`` names the invariant
  counters a canonical checked run must exercise for the plug-in to be
  considered conformant (see :func:`repro.protocol.run_conformance`).

Selection is per-machine: ``MachineConfig.protocol`` wins over the
``NUMACHINE_PROTOCOL`` environment variable, default ``numachine``; the
:class:`~repro.system.machine.Machine` resolves the plug-in once at
construction and every layer (stations, checker, perf cache,
observability) reads it from there.
"""

from __future__ import annotations

from typing import Optional


class CoherenceProtocol:
    """Base class / interface for coherence-protocol plug-ins.

    Subclasses are stateless singletons registered in
    :mod:`repro.protocol`; all per-run state lives in the engine-class
    instances they name.
    """

    #: registry key, also the value of ``NUMACHINE_PROTOCOL``
    name: str = "?"
    #: MemoryModule subclass implementing the home-directory state machine
    memory_class: Optional[type] = None
    #: NetworkCache subclass implementing the NC-side state machine
    nc_class: Optional[type] = None

    #: (pre, post) LineState pairs illegal between two *unlocked*
    #: observations of the same home-directory line
    illegal_mem: frozenset = frozenset()
    #: same, for network-cache lines
    illegal_nc: frozenset = frozenset()
    #: NC line states that constitute a stable "this station holds a valid
    #: copy" claim (used by the single-writer invariant)
    valid_nc_states: tuple = ()
    #: invariant counters a conformant canonical run must exercise
    conformance_invariants: tuple = ()

    # ------------------------------------------------------------------
    # checker policy hooks (read-only; called with the line *unlocked*)
    # ------------------------------------------------------------------
    def check_mem_masks(self, checker, mem, la, entry, pkt) -> None:
        """Assert the home directory's masks cover reality for ``la``.

        ``checker`` is the attached
        :class:`~repro.verify.checker.CoherenceChecker`; implementations
        count each check in its ``checks`` dict in place
        (``checks[name] = checks.get(name, 0) + 1``, no call), raise
        through its ``_violate`` (formatting the message only on a
        violation) and read its in-flight invalidation shadow maps
        (``_pending_inval`` and ``_inval_inflight``: one dict per station
        id, keyed by line address).  They run on every unlocked memory or
        NC transaction, and must never mutate simulation state.
        """

    def check_nc_masks(self, checker, nc, la, line, pkt) -> None:
        """Assert the network cache's processor mask covers reality."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CoherenceProtocol {self.name}>"
