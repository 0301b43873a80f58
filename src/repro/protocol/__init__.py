"""Pluggable coherence protocols.

The machine resolves a :class:`~repro.protocol.base.CoherenceProtocol`
plug-in once at construction (see :func:`resolve_protocol`) and the whole
stack — stations, invariant checker, perf cache, fuzzer, observability —
reads it from ``machine.protocol`` / ``machine.protocol_name``.

Selection precedence: ``MachineConfig.protocol`` (when non-empty) over the
``NUMACHINE_PROTOCOL`` environment variable, default ``"numachine"``.

Registered plug-ins:

``numachine``
    The paper's two-level hierarchical write-back invalidate protocol
    (inexact routing masks, NACK-and-retry, ordered-multicast
    invalidation, full network-cache function).  The default.

``msi``
    A flat full-map MSI directory: the home tracks every sharer exactly
    in a global CPU bitmap, invalidations are exact, and the network
    cache is disabled (no combining/migration/caching).  The ablation
    baseline for "what does NUMAchine's protocol buy?".
"""

from __future__ import annotations

import os

from .base import CoherenceProtocol
from .msi_flat import MsiFlatProtocol
from .numachine import NumachineProtocol

PROTOCOLS: dict[str, CoherenceProtocol] = {
    p.name: p for p in (NumachineProtocol(), MsiFlatProtocol())
}

DEFAULT_PROTOCOL = "numachine"

__all__ = [
    "CoherenceProtocol",
    "PROTOCOLS",
    "DEFAULT_PROTOCOL",
    "get_protocol",
    "resolve_protocol_name",
    "resolve_protocol",
    "canonical_surface",
    "run_conformance",
]


def get_protocol(name: str) -> CoherenceProtocol:
    """Return the registered plug-in called ``name`` (case-insensitive)."""
    key = str(name).strip().lower()
    try:
        return PROTOCOLS[key]
    except KeyError:
        known = ", ".join(sorted(PROTOCOLS))
        raise ValueError(f"unknown coherence protocol {name!r} (known: {known})") from None


def resolve_protocol_name(config=None) -> str:
    """Resolve the active protocol name for ``config``.

    Precedence: ``config.protocol`` (non-empty) > ``NUMACHINE_PROTOCOL``
    environment variable > :data:`DEFAULT_PROTOCOL`.  The result is
    validated against the registry.
    """
    name = ""
    if config is not None:
        name = getattr(config, "protocol", "") or ""
    if not name:
        name = os.environ.get("NUMACHINE_PROTOCOL", "") or ""
    if not name:
        name = DEFAULT_PROTOCOL
    return get_protocol(name).name


def resolve_protocol(config=None) -> CoherenceProtocol:
    """Resolve and return the active plug-in for ``config``."""
    return get_protocol(resolve_protocol_name(config))


def canonical_surface(machine) -> dict:
    """The protocol-sensitive result surface of a finished run.

    This is what the default protocol's bit-identity tests pin against
    ``tests/data/protocol_fingerprints.json``: final simulated time,
    the event count (invariant across backends), every NC / memory
    counter that fired, resource utilizations and ring-interface delay
    means.  Wall-clock fields are deliberately excluded — the surface must
    be deterministic.
    """
    return {
        "now": machine.engine.now,
        # key name pinned by the protocol fixture and the benchmark's surface hash
        "hop_equivalent": machine.engine.events_run,
        "nc_stats": machine.nc_stats(),
        "memory_stats": machine.memory_stats(),
        "utilizations": machine.utilizations(),
        "ring_delays": machine.ring_interface_delays(),
    }


def run_conformance(name: str, nprocs: int = 16, *, workload=None):
    """Run the protocol's conformance suite: a canonical checked run.

    Builds a ``nprocs``-processor machine with protocol ``name``, attaches
    the runtime :class:`~repro.verify.checker.CoherenceChecker`, drives the
    hot-spot workload to completion, asserts quiescence, and requires every
    invariant the plug-in declares in ``conformance_invariants`` to have
    actually been exercised (checked at least once, not merely not
    violated).

    Returns the dict of per-invariant check counts.  Raises
    :class:`~repro.verify.checker.InvariantViolation` on any violation and
    :class:`AssertionError` if a declared invariant never fired.

    ``nprocs`` defaults to 16 because a single-station machine (P=4)
    never exercises the cross-station invariants.
    """
    # Lazy imports: repro.system.machine imports this package at module load.
    from ..system.config import MachineConfig
    from ..system.machine import Machine
    from ..verify.checker import CoherenceChecker
    from ..workloads.synthetic import HotSpot

    proto = get_protocol(name)
    config = MachineConfig.prototype()
    config.protocol = proto.name
    machine = Machine(config)
    checker = machine.attach_verifier(CoherenceChecker(max_locked_ticks=3_000_000))
    wl = workload if workload is not None else HotSpot(words=16, ops=40)
    wl.run(machine, nprocs=nprocs)
    checker.assert_quiescent()
    missing = [
        inv for inv in proto.conformance_invariants if not checker.checks.get(inv)
    ]
    if missing:
        raise AssertionError(
            f"protocol {proto.name!r}: declared conformance invariants never "
            f"exercised: {missing} (checks={checker.checks})"
        )
    return dict(checker.checks)
